"""One op of one workload in a fresh interpreter (the harness's child).

``python -m perf.op --workload W --seed N [--trace] [--scale toy]`` sets up
once, runs once, checks, and prints one JSON object.  A fresh process per
op makes ``ru_maxrss`` that op's own high-water mark and makes the op pay
imports, key generation and table warm-up the way a user's run does.
``--probe`` runs the workload's direct kernel probes instead.  Every
duration in the output is in reference-speed seconds (``perf/calibration.py``).
"""

import time

_PROCESS_START = time.perf_counter()  # before any heavy import: setup_s counts them

import argparse
import json
import pathlib
import random
import shutil
import sys
import tempfile

from . import calibration


def run_op(workload: str, seed: int, trace: bool, scale: str, workroot: str) -> dict:
    first_probe = calibration.probe()  # before the imports setup_s counts
    from . import layers, spans, workloads  # imports numpy + repro.*

    import_s = time.perf_counter() - _PROCESS_START - first_probe
    recorder = spans.Recorder()
    if trace:
        spans.install(recorder)
    config = workloads.load_config(workload, scale)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    try:
        out = workloads.WORKLOADS[workload](config, seed, recorder, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["setup_s"] = import_s + out.pop("ready_s")
    out["layers"]["api.import_s"] = import_s
    run_start, run_end = out.pop("run_window")
    spans_end = out.pop("spans_end", run_end)
    if trace:
        # The checks after the run (reference-plane rerun, …) also pass
        # through the patched entry points: only spans begun before
        # ``spans_end`` describe the op.  Spans are appended in start
        # order, so the cut keeps every parent index valid.
        kept = [s for s in recorder.spans if s[spans.START] < spans_end]
        summary = spans.summarize(kept)
        out["layers"].update(
            layers.span_layers(
                summary,
                out["run_s"],
                spans.leaf_seconds(kept, run_start, run_end),
                workload in layers.PROTOCOL_WORKLOADS,
            )
        )
        silent = [
            name for name in layers.EXPECTED_SPANS[workload] if name not in summary
        ]
        if silent:
            out["failed"] += len(silent)
            out["failures"].append(f"spans never fired: {', '.join(silent)}")
        out["attempted"] += len(layers.EXPECTED_SPANS[workload])

    out["probes"] = [first_probe, *out["probes"]]
    factor = calibration.slowdown(out["probes"])
    out["slowdown"] = out["layers"]["calibration.slowdown"] = factor
    for key in ("setup_s", "run_s"):
        out[key] /= factor
    out["iter_samples"] = [seconds / factor for seconds in out["iter_samples"]]
    out["layers"] = {
        name: calibration.rescale(value, layers.PER_LAYER[name], factor)
        for name, value in out["layers"].items()
    }
    return out


def run_probes(workload: str, scale: str) -> dict:
    """Time the bigint kernels the workload's crypto rows sit on."""
    from repro.crypto import bigint
    from repro.crypto.numtheory import FixedBaseTable, fixture_safe_primes

    from . import layers

    key_bits = {"vcrypto_encrypt": 256, "vcrypto_gossip": 256, "object_decrypt": 1024}
    values = {}
    rng = random.Random(0)
    with bigint.use_backend("python"):
        for name, (kind, bits, calls) in layers.PROBES.items():
            if key_bits.get(workload) != bits:
                continue
            if scale == "toy":
                calls = 20
            p, q = fixture_safe_primes(bits // 2, count=2)
            modulus = (p * q) ** 2
            base = rng.randrange(2, modulus)
            if kind == "powmod":
                exponents = [rng.getrandbits(2 * bits) for _ in range(calls)]
                fn = lambda e: bigint.powmod(base, e, modulus)  # noqa: E731
            else:
                table = FixedBaseTable(base, modulus, max_exponent_bits=256)
                exponents = [rng.getrandbits(256) for _ in range(calls)]
                fn = table.pow
            before = calibration.probe()
            started = time.perf_counter()
            for exponent in exponents:
                fn(exponent)
            microseconds = (time.perf_counter() - started) / calls * 1e6
            values[name] = microseconds / calibration.slowdown(
                [before, calibration.probe()]
            )
    return {"layers": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--workroot", required=True)
    args = parser.parse_args(argv)
    if args.probe:
        out = run_probes(args.workload, args.scale)
    else:
        out = run_op(args.workload, args.seed, args.trace, args.scale, args.workroot)
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
