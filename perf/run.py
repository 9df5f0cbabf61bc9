#!/usr/bin/env python3
"""The reference benchmark's one command (see perf/README.md).

    python3 perf/run.py                          every workload, 5 repeats
    python3 perf/run.py --trace --out head.json  … plus the per-layer pass
    python3 perf/run.py compare A.json B.json    verdicts from the bounds
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                 one run, one JSON line (the
                                                 BENCHMARK.json contract)

A *run* is a closed loop of ops — set up once, run once, check — for at
least ``--seconds``, each op in a fresh subprocess (``perf/op.py``), one at
a time.  End-to-end metrics are medians over the run's untraced ops; with
tracing, every other op runs under the span recorder and the per-layer
metrics are medians over those.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # executed as a script: make ``perf`` importable
    sys.path.insert(0, str(ROOT))

from perf import compare as comparison  # noqa: E402
from perf.layers import DERIVED, PER_LAYER, PROTOCOL_WORKLOADS  # noqa: E402

#: One thread everywhere, stable hashing: the load generator is this process
#: and the box has two cores.
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
OP_TIMEOUT_S = 170
MIN_OPS = 3  # a median of fewer is not a median
MIN_REPEATS = 3
#: Leaf spans must explain this much of a traced protocol op.  The
#: vectorized planes stage their matrices in inline numpy that no call
#: bounds (~12 % on vectorized_mock), so the gate sits below the ≥ 0.9 the
#: crypto planes reach; it exists to catch a patch that stopped firing.
MIN_COVERAGE = 0.8


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, *flags: str) -> dict:
    """One ``perf.op`` subprocess; returns the JSON object it printed."""
    workroot = ROOT / ".perf_work"
    workroot.mkdir(exist_ok=True)
    env = {
        **os.environ,
        **PINS,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    done = subprocess.run(
        [sys.executable, "-m", "perf.op", "--workload", workload,
         "--workroot", str(workroot), *flags],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=OP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"perf.op {workload} {' '.join(flags)} exited {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    workload: str,
    seed: int = 0,
    seconds: float = 10.0,
    trace: bool = False,
    scale: str = "full",
    min_ops: int = MIN_OPS,
) -> dict:
    """One run: ops back to back for ``seconds``, checked and aggregated."""
    flags = ["--seed", str(seed), "--scale", scale]
    ops, traced = [], []
    started = time.monotonic()
    longest = 0.0  # start no op that would end after the deadline
    while len(ops) < min_ops or time.monotonic() - started + longest < seconds:
        began = time.monotonic()
        ops.append(run_child(workload, *flags))
        if trace:
            traced.append(run_child(workload, *flags, "--trace"))
        longest = max(longest, time.monotonic() - began)
    probes = run_child(workload, *flags, "--probe")["layers"] if trace else {}

    every = ops + traced
    failures = [text for op in every for text in op["failures"]]
    attempted = sum(op["attempted"] for op in every)
    failed = sum(op["failed"] for op in every)
    # Same seed, same inputs: every op must decode the same result, and on
    # the pure-python kernel whatever else is importable.
    for op in every[1:]:
        attempted += 1
        if op["digest"] != ops[0]["digest"]:
            failed += 1
            failures.append("digest differs between repeats of one seed")
    kernels = {op["bigint_backend"] for op in every}
    attempted += 1
    if kernels != {"python"}:
        failed += 1
        failures.append(f"bigint kernel resolved to {sorted(kernels)}")

    def median(key: str, source: list[dict]) -> float:
        return statistics.median(op[key] for op in source)

    end_to_end = {
        "setup_s": median("setup_s", ops),
        "run_s": median("run_s", ops),
        "iter_s": statistics.median(
            sample for op in ops for sample in op["iter_samples"]
        ),
        "peak_rss_mb": median("peak_rss_mb", ops),
    }
    per_layer = None
    if trace:
        names = {name for op in traced for name in op["layers"]}
        per_layer = {
            name: statistics.median(op["layers"].get(name, 0) for op in traced)
            for name in names
        }
        per_layer.update(probes)
        per_layer["trace.overhead_frac"] = (
            median("run_s", traced) / end_to_end["run_s"] - 1
        )
        if scale == "full" and workload in PROTOCOL_WORKLOADS:
            attempted += 1
            if per_layer["trace.coverage_frac"] < MIN_COVERAGE:
                failed += 1
                failures.append(
                    f"trace.coverage_frac {per_layer['trace.coverage_frac']:.3f}"
                    f" < {MIN_COVERAGE}"
                )
    return {
        "workload": workload,
        "seed": seed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops": [
            {k: op[k] for k in ("setup_s", "run_s", "iter_samples", "peak_rss_mb",
                                "slowdown", "probes")}
            for op in ops
        ],
    }


# ---------------------------------------------------------- contract mode


def contract_line(run: dict, benchmark: dict, trace: bool) -> dict:
    """The one JSON object a contract run prints last.

    A per-layer metric whose layer does not run on the workload reads 0.
    """
    kind = "per_layer" if trace else "end_to_end"
    metrics = {
        entry["name"]: {
            "value": run[kind].get(entry["name"], 0),
            "unit": entry["unit"],
        }
        for entry in benchmark[kind]
    }
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main_contract(args) -> int:
    benchmark = load_benchmark()
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for text in run["failures"]:
        print(f"FAILED {args.workload}: {text}", file=sys.stderr)
    print(json.dumps(contract_line(run, benchmark, bool(args.trace))))
    return 0 if run["failed"] == 0 else 1


# -------------------------------------------------------------- suite mode


def _git(*command: str) -> str:
    try:
        done = subprocess.run(
            ["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "git_rev": _git("rev-parse", "--short", "HEAD"),
        "git_rev_full": _git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "bigint_kernel": "python",  # every run checks its ops resolved to it
        "thread_pins": PINS,
        "seed": args.seed,
        "repeats": args.repeats,
        "run_seconds": args.seconds,
    }


def _stats(samples: list[float]) -> dict:
    # n < 10: no percentile is claimed, only median and range.
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def main_suite(args) -> int:
    benchmark = load_benchmark()
    names = args.workloads or [w["name"] for w in benchmark["workloads"]]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    repeats = max(MIN_REPEATS, args.repeats)
    result = {
        "schema": "chiaroscuro-perf/v1",
        "environment": environment(args),
        "workloads": {},
    }
    any_failed = False
    for name in names:
        runs = [measure(name, args.seed, args.seconds) for _ in range(repeats)]
        entry = {
            "end_to_end": {
                metric: _stats([run["end_to_end"][metric] for run in runs])
                for metric in units
            },
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "failures": [text for run in runs for text in run["failures"]],
            "runs": [run["ops"] for run in runs],
        }
        print(f"== {name}")
        for metric, stats in entry["end_to_end"].items():
            print(
                f"  {metric:13s} {stats['median']:10.4f} {units[metric]:3s}"
                f"  min {stats['min']:.4f}  max {stats['max']:.4f}"
                f"  n={stats['n']}"
            )
        print(
            f"  failed_frac   {entry['failed'] / entry['attempted']:10.4f}"
            f"      ({entry['failed']} of {entry['attempted']} operations)"
        )
        if args.trace:
            traced = measure(name, args.seed, args.seconds, trace=True)
            entry["per_layer"] = traced["per_layer"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["failures"] += traced["failures"]
            run_s = traced["end_to_end"]["run_s"]
            for metric in sorted(traced["per_layer"]):
                value = traced["per_layer"][metric]
                share = (  # span totals only: a derived value is no part of run_s
                    f"  {100 * value / run_s:5.1f} % of run_s"
                    if metric.endswith("_s") and metric not in DERIVED else ""
                )
                print(f"  {metric:52s} {value:14.6g} {PER_LAYER[metric]:5s}{share}")
        for text in entry["failures"]:
            print(f"  FAILED: {text}")
        any_failed = any_failed or entry["failed"] > 0
        result["workloads"][name] = entry
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if any_failed else 0


def main_compare(args) -> int:
    base = json.loads(pathlib.Path(args.base).read_text())
    new = json.loads(pathlib.Path(args.new).read_text())
    rows, passed = comparison.compare(base, new, load_benchmark())
    print(f"base {args.base} @ {base['environment']['git_rev']}"
          f"  new {args.new} @ {new['environment']['git_rev']}")
    print("\n".join(comparison.render(rows)))
    print("PASS" if passed else "FAIL: a metric got worse or failed_frac rose")
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="perf/run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        return main_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one contract run of this workload")
    parser.add_argument("--workloads", nargs="+", help="suite: only these")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of one run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="suite: write the result file here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return main_contract(args) if args.workload else main_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
