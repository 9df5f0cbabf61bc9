"""Command-line interface: run the paper's experiments without writing code.

Subcommands
-----------
``cluster``   any clustering experiment, on any execution plane, driven by
the unified ``repro.api`` surface.  Flags build a :class:`~repro.api.RunSpec`
on the fly, or ``--spec`` loads one from JSON (the canonical, shareable
form)::

    python -m repro cluster --dataset cer --series 10000 --scale 100 \
        --k 20 --strategy G --epsilon 0.69 --iterations 8
    python -m repro cluster --spec examples/specs/cer_small.json \
        --checkpoint-dir ckpt --json-out result.json
    python -m repro cluster --dataset numed --plane vectorized --k 8

``plan``      print the Appendix B gossip/privacy plan (δ_atom, ι, n_e)::

    python -m repro plan --delta 0.995 --e-max 1e-12 --population 1000000 \
        --iterations 10 --length 24

``serve``/``submit``/``jobs``/``tail``   the experiment service: a durable
job queue under ``--root``, executed by a concurrent scheduler that
survives kills by resuming from checkpoints::

    python -m repro submit batch.json --root runs
    python -m repro serve --root runs --max-workers 8 --drain
    python -m repro jobs --root runs
    python -m repro tail --root runs <job-id>

``db``/``report``   the run warehouse: incrementally ingest service
roots, ``--json-out`` records and ``BENCH_*.json`` mirrors into sqlite,
then reproduce the paper's comparisons from stored runs (no re-run)::

    python -m repro db ingest runs BENCH_fig3_attack_quality.json --db wh.db
    python -m repro db ingest runs --db wh.db --follow       # live fleet
    python -m repro report fig3 --db wh.db
    python -m repro db query "SELECT * FROM v_detector_counts" --db wh.db
    python -m repro jobs --db wh.db                          # store offline

The tree's structural invariants (determinism, layering, ε-accounting) are
checked by the tier-1 tests under ``tests/invariants``, not by a subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .api import DATASETS, PLANES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing).

    Every leaf parser binds its handler (``set_defaults(handler=...)``),
    so adding a subcommand is one ``add_parser`` block here plus its
    ``_cmd_*`` function; ``repro report``'s leaves are generated from
    :data:`repro.warehouse.REPORTS`.
    """
    from .warehouse import REPORTS

    parser = argparse.ArgumentParser(
        prog="repro", description="Chiaroscuro (SIGMOD 2015) reproduction CLI"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options several leaves share, defined once (argparse parent parsers).
    root = argparse.ArgumentParser(add_help=False)
    root.add_argument("--root", metavar="DIR", default="service-root",
                      help="service root directory (default: service-root)")
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", metavar="FILE", default="warehouse.db",
                    dest="db_path",
                    help="warehouse file (default: warehouse.db)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output (one JSON document)")

    cluster = sub.add_parser(
        "cluster", help="run a clustering experiment on any execution plane"
    )
    cluster.set_defaults(handler=_cmd_cluster)
    cluster.add_argument("--spec", metavar="PATH",
                         help="load a RunSpec JSON file; the spec-building flags "
                              "(--dataset/--series/.../--seed) are then ignored, "
                              "while --plane overrides the spec's plane and the "
                              "run flags (--checkpoint-dir, --no-resume, "
                              "--json-out) apply as usual")
    cluster.add_argument("--plane", choices=PLANES.keys(), default=None,
                         help="execution plane (default: quality, or the spec's)")
    cluster.add_argument("--dataset", choices=DATASETS.keys(), default="cer")
    cluster.add_argument("--series", type=int, default=10_000)
    cluster.add_argument("--scale", type=int, default=100)
    cluster.add_argument("--k", type=int, default=20)
    cluster.add_argument("--strategy", default="G", help="G, GF, UF5, UF10, …")
    cluster.add_argument("--epsilon", type=float, default=0.69)
    cluster.add_argument("--iterations", type=int, default=8)
    cluster.add_argument("--no-smoothing", action="store_true")
    cluster.add_argument("--churn", type=float, default=0.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--key-bits", type=int, default=256,
                         help="threshold-key modulus for --plane object "
                              "(flag-built specs only; Table 2 uses 1024)")
    cluster.add_argument("--bigint-backend", choices=("auto", "python", "gmpy2"),
                         default=None,
                         help="modular-arithmetic kernel (default: auto = "
                              "REPRO_BIGINT_BACKEND, else gmpy2 when "
                              "installed; bit-identical either way). "
                              "Overrides the spec's bigint_backend too")
    cluster.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="write a resumable checkpoint after every "
                              "iteration; an existing matching checkpoint "
                              "resumes the run")
    cluster.add_argument("--no-resume", action="store_true",
                         help="ignore existing checkpoints in --checkpoint-dir")
    cluster.add_argument("--json-out", metavar="PATH", default=None,
                         help="write the structured run record "
                              "(chiaroscuro-run/v1: spec + history + timings)")

    plan = sub.add_parser("plan", help="Appendix B privacy/gossip plan")
    plan.set_defaults(handler=_cmd_plan)
    plan.add_argument("--delta", type=float, default=0.995)
    plan.add_argument("--e-max", type=float, default=1e-12)
    plan.add_argument("--population", type=int, default=1_000_000)
    plan.add_argument("--iterations", type=int, default=10)
    plan.add_argument("--length", type=int, default=24)

    serve = sub.add_parser(
        "serve", help="run the experiment server over a service root",
        parents=[root],
    )
    serve.set_defaults(handler=_cmd_serve)
    serve.add_argument("--max-workers", type=int, default=4,
                       help="concurrent worker processes (default: 4)")
    serve.add_argument("--poll", type=float, default=0.2, metavar="SECONDS",
                       help="how often to look for new submissions; a "
                            "finished job is reaped at once (default: 0.2)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once the queue is empty instead of "
                            "serving forever")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="with --drain: give up after this many seconds")

    submit = sub.add_parser(
        "submit", help="enqueue RunSpec JSON files (object or array per file)",
        parents=[root],
    )
    submit.set_defaults(handler=_cmd_submit)
    submit.add_argument("specs", nargs="+", metavar="SPEC",
                        help="spec files; each holds one spec object or a "
                             "JSON array of specs (a batch)")

    jobs = sub.add_parser("jobs", help="list the service root's jobs",
                          parents=[root, as_json])
    jobs.set_defaults(handler=_cmd_jobs)
    jobs.add_argument("--db", metavar="FILE", default=None, dest="db_path",
                      help="read job status from an ingested warehouse "
                           "instead of the store directory (for when the "
                           "root is remote or unavailable)")
    jobs.add_argument("--state", choices=("queued", "running", "completed",
                                          "failed"),
                      default=None, help="only jobs in this state")

    tail = sub.add_parser(
        "tail", help="print a job's event log (or every job's, merged)",
        parents=[root],
    )
    tail.set_defaults(handler=_cmd_tail)
    tail.add_argument("job", nargs="?", default=None,
                      help="job id (omit for every job's events, merged "
                           "by time)")
    tail.add_argument("--follow", action="store_true",
                      help="keep following appends (Ctrl-C to stop)")
    tail.add_argument("--raw", action="store_true",
                      help="print raw NDJSON records instead of the "
                           "rendered form")

    db_sub = sub.add_parser(
        "db", help="the run warehouse: ingest and query stored telemetry"
    ).add_subparsers(dest="db_command", required=True)
    ingest = db_sub.add_parser(
        "ingest",
        help="incrementally ingest service roots, run records and "
             "BENCH_*.json files (idempotent: re-ingesting is a no-op; "
             "the warehouse file is created and migrated automatically)",
        parents=[db],
    )
    ingest.set_defaults(handler=_cmd_db_ingest)
    ingest.add_argument("paths", nargs="+", metavar="PATH",
                        help="a service root directory, a --json-out run "
                             "record, a BENCH_*.json file, or a directory "
                             "of them")
    ingest.add_argument("--follow", action="store_true",
                        help="live tailing mode: keep re-ingesting deltas "
                             "from a running fleet (Ctrl-C to stop)")
    ingest.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="with --follow: delay between passes "
                             "(default: 0.5)")
    ingest.add_argument("--max-seconds", type=float, default=None,
                        metavar="SECONDS",
                        help="with --follow: stop after this long instead "
                             "of waiting for Ctrl-C")
    query = db_sub.add_parser(
        "query", help="run read-only SQL against the warehouse "
                      "(tables and v_* views)",
        parents=[db, as_json],
    )
    query.set_defaults(handler=_cmd_db_query)
    query.add_argument("sql", metavar="SQL")
    db_sub.add_parser(
        "stats", help="row counts, sources and event-type coverage",
        parents=[db, as_json],
    ).set_defaults(handler=_cmd_db_stats)

    report_sub = sub.add_parser(
        "report",
        help="render the paper's comparisons from the warehouse "
             "(no protocol re-run)",
    ).add_subparsers(dest="report_command", required=True)
    for name, report in REPORTS.items():
        leaf = report_sub.add_parser(name, help=report.help, parents=[db])
        leaf.set_defaults(handler=_cmd_report, report=report)
        for keyword, options in report.filters.items():
            leaf.add_argument(f"--{keyword}", default=None, **options)
        leaf.add_argument("--format", choices=("text", "markdown"),
                          default="text", dest="fmt")
    return parser


def _cmd_cluster(args, out) -> int:
    from .api import RunSpec

    try:
        if args.spec:
            spec = RunSpec.load(args.spec)
            if args.plane and args.plane != spec.plane:
                spec = spec.with_plane(args.plane)
        else:
            spec = RunSpec.from_cli_args(args)
        if args.bigint_backend and args.bigint_backend != spec.params.bigint_backend:
            spec = spec.replace(
                params=replace(spec.params, bigint_backend=args.bigint_backend)
            )
        return _run_cluster(args, spec, out)
    except ValueError as exc:
        # Spec validation and checkpoint refusals (e.g. "written by a
        # different spec") are user errors: message + exit code, no
        # traceback.
        print(f"error: {exc}", file=out)
        return 2


def _run_cluster(args, spec, out) -> int:
    from .api import (
        Experiment,
        FaultDetected,
        IterationCompleted,
        RunAborted,
        RunCompleted,
        RunStarted,
        run_record,
    )

    experiment = Experiment.from_spec(spec)
    result = None
    environment = None
    started = time.perf_counter()
    header_printed = False
    for event in experiment.run_iter(
        checkpoint_dir=args.checkpoint_dir, resume=not args.no_resume
    ):
        if isinstance(event, RunStarted):
            environment = event.environment
            print(f"dataset={event.dataset_name} t={event.t} n={event.n} "
                  f"population={event.population:,} "
                  f"sensitivity={event.sum_sensitivity:.0f}", file=out)
            print(f"strategy={event.label} plane={spec.plane} seed={spec.seed} "
                  f"bigint={event.bigint_backend}", file=out)
            if event.resumed_iteration:
                print(f"resuming after iteration {event.resumed_iteration} "
                      f"(checkpoint in {args.checkpoint_dir})", file=out)
        elif isinstance(event, IterationCompleted):
            if not header_printed:
                print(f"{'iter':>4} {'pre-inertia':>12} {'post-inertia':>13} "
                      f"{'#centroids':>11} {'eps':>9} {'exch/node':>10}", file=out)
                header_printed = True
            exchanges = (f"{event.exchanges_per_node:>10.0f}"
                         if event.exchanges_per_node is not None else f"{'-':>10}")
            stats = event.stats
            print(f"{stats.iteration:>4} {stats.pre_inertia:>12.2f} "
                  f"{stats.post_inertia:>13.2f} {stats.n_centroids:>11d} "
                  f"{stats.epsilon_spent:>9.4f} {exchanges}", file=out)
        elif isinstance(event, FaultDetected):
            print(f"fault detected: {event.fault} via {event.detector} "
                  f"(iteration {event.iteration}, "
                  f"{len(event.participants)} participant(s) flagged)", file=out)
        elif isinstance(event, RunAborted):
            print(f"run aborted at iteration {event.iteration}: {event.reason} "
                  f"(epsilon charged: {event.epsilon_charged:.4f})", file=out)
        elif isinstance(event, RunCompleted):
            result = event.result
    elapsed = time.perf_counter() - started

    if result is None or not result.history:
        print("no iterations completed (budget exhausted or clusters lost)",
              file=out)
        return 1
    best = result.best_iteration()
    print(f"best iteration: {best.iteration} (pre-inertia {best.pre_inertia:.2f})",
          file=out)
    if args.checkpoint_dir:
        print(f"checkpoints in {args.checkpoint_dir} "
              f"(resume with the same command)", file=out)
    if args.json_out:
        record = run_record(spec, result, timings={"wall_seconds": elapsed},
                            environment=environment)
        with open(args.json_out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"run record written to {args.json_out}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from .service import JobState, JobStore, Scheduler

    if args.timeout is not None and not args.drain:
        print("error: --timeout only applies with --drain "
              "(a foreground server runs until interrupted)", file=out)
        return 2
    store = JobStore(args.root)
    scheduler = Scheduler(
        store, max_workers=args.max_workers, poll_interval=args.poll
    )
    recovered = scheduler.recover()
    for job in recovered:
        print(f"recovered {job.job_id} (re-queued; will resume from its "
              f"latest checkpoint)", file=out)
    print(f"serving {store.root} with {args.max_workers} worker(s)", file=out)
    if args.drain:
        # Score only the jobs this drain is responsible for: a job that
        # failed terminally in some *previous* session must not make
        # every future drain exit 1 forever.
        watched = {
            job.job_id
            for job in store.in_state(JobState.QUEUED, JobState.RUNNING)
        }
        try:
            jobs = [
                job for job in scheduler.drain(timeout=args.timeout)
                if job.job_id in watched
            ]
        except TimeoutError as exc:
            print(f"error: {exc}", file=out)
            return 1
        failed = [job for job in jobs if job.state == JobState.FAILED]
        done = [job for job in jobs if job.state == JobState.COMPLETED]
        print(f"drained: {len(done)} completed, {len(failed)} failed", file=out)
        for job in failed:
            print(f"  failed {job.job_id}: {job.error}", file=out)
        return 1 if failed else 0
    try:
        scheduler.run_forever()
    except KeyboardInterrupt:
        print("interrupted; running jobs will resume on the next serve",
              file=out)
    return 0


def _cmd_submit(args, out) -> int:
    from .service import JobStore, load_specs

    store = JobStore(args.root)
    try:
        # Load and validate every file before enqueuing anything, so a
        # malformed later file cannot leave earlier files half-submitted.
        specs = [spec for path in args.specs for spec in load_specs(path)]
        jobs = store.submit_batch(specs)
    except KeyError as exc:
        # A spec dict missing a required block surfaces as KeyError.
        print(f"error: spec is missing required block {exc}", file=out)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    for job in jobs:
        print(f"queued {job.job_id}", file=out)
    print(f"{len(jobs)} job(s) submitted to {store.root}", file=out)
    return 0


def _reads_warehouse(body):
    """Turn ``body(con, args, out)`` into a handler that opens the
    warehouse at ``args.db_path`` read-only — a missing file is a clean
    exit 2 — and closes it afterwards."""

    def handler(args, out) -> int:
        from .warehouse import connect_readonly

        try:
            con = connect_readonly(args.db_path)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=out)
            return 2
        try:
            return body(con, args, out)
        finally:
            con.close()

    return handler


def _cmd_jobs(args, out) -> int:
    if args.db_path:
        return _jobs_from_db(args, out)
    from .service import JobStore

    store = JobStore(args.root)
    rows = [job.to_dict() for job in store.jobs()]
    return _print_jobs(rows, f"in {store.root}", args, out)


@_reads_warehouse
def _jobs_from_db(con, args, out) -> int:
    """``repro jobs --db``: job status from the warehouse, store offline.

    Sorted exactly like the store's listing — submit order
    (``submitted_at``, then ``job_id``) — so both surfaces agree
    row-for-row on the same fleet.
    """
    from .warehouse import run_query

    rows = run_query(
        con,
        "SELECT job_id, root, name, state, plane, strategy, "
        "submitted_at, started_at, finished_at, attempts, error "
        "FROM jobs ORDER BY COALESCE(submitted_at, 0), job_id",
    )
    return _print_jobs(rows, f"ingested in {args.db_path}", args, out)


def _print_jobs(rows: list[dict], where: str, args, out) -> int:
    if args.state:
        rows = [row for row in rows if row["state"] == args.state]
    if args.as_json:
        print(json.dumps(rows, indent=2), file=out)
        return 0
    if not rows:
        print(f"no jobs {where}", file=out)
        return 0
    print(f"{'job':<42} {'state':<10} {'plane':<11} {'strategy':<9} "
          f"{'attempts':>8}", file=out)
    for row in rows:
        spec = row.get("spec", row)  # store rows nest plane/strategy there
        print(f"{row['job_id']:<42} {row['state']:<10} "
              f"{spec.get('plane') or '?':<11} "
              f"{spec.get('strategy') or '?':<9} {row['attempts']:>8}", file=out)
    return 0


def _cmd_db_ingest(args, out) -> int:
    from . import warehouse

    try:
        con = warehouse.connect(args.db_path)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    try:
        if args.follow:
            deadline = (
                time.monotonic() + args.max_seconds
                if args.max_seconds is not None
                else None
            )
            totals = warehouse.follow_ingest(
                con,
                args.paths,
                poll_interval=args.poll,
                should_stop=(
                    (lambda: time.monotonic() >= deadline)
                    if deadline is not None
                    else None
                ),
            )
        else:
            totals = warehouse.ingest_paths(con, args.paths)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    finally:
        con.close()
    new = {k: v for k, v in totals.items() if v}
    summary = ", ".join(f"+{v} {k}" for k, v in new.items()) or "no new rows"
    print(f"ingested into {args.db_path}: {summary}", file=out)
    return 0


@_reads_warehouse
def _cmd_db_stats(con, args, out) -> int:
    from . import warehouse

    payload = warehouse.stats(con)
    if args.as_json:
        print(json.dumps(payload, indent=2), file=out)
        return 0
    print(f"warehouse {args.db_path} "
          f"(schema v{payload['schema_version']})", file=out)
    for table, count in payload["tables"].items():
        print(f"  {table:<14} {count:>8}", file=out)
    if payload["runs_by_source"]:
        print("runs by source: " + ", ".join(
            f"{source}={count}"
            for source, count in payload["runs_by_source"].items()
        ), file=out)
    if payload["events_by_type"]:
        print("events by type: " + ", ".join(
            f"{kind}={count}"
            for kind, count in payload["events_by_type"].items()
        ), file=out)
    return 0


@_reads_warehouse
def _cmd_db_query(con, args, out) -> int:
    import sqlite3

    from . import warehouse

    try:
        rows = warehouse.run_query(con, args.sql)
    except sqlite3.Error as exc:
        print(f"error: {exc}", file=out)
        return 2
    if args.as_json:
        print(json.dumps(rows, indent=2, default=str), file=out)
        return 0
    if not rows:
        print("(no rows)", file=out)
        return 0
    headers = list(rows[0].keys())
    table = [[("" if row[h] is None else str(row[h])) for h in headers]
             for row in rows]
    for line in warehouse.render_table(headers, table):
        print(line, file=out)
    return 0


@_reads_warehouse
def _cmd_report(con, args, out) -> int:
    filters = {name: getattr(args, name) for name in args.report.filters}
    print(args.report.render(con, fmt=args.fmt, **filters), file=out)
    return 0


def _render_event(record: dict) -> str:
    job = record.get("job", "?")
    kind = record.get("type", "?")
    try:
        detail = _render_detail(kind, record)
    except (TypeError, ValueError, KeyError):
        # A record from another version (or missing numeric fields) must
        # not abort the whole tail; fall back to the raw line.
        detail = json.dumps(record)
    return f"[{job}] {kind} {detail}".rstrip()


def _render_detail(kind: str, record: dict) -> str:
    return {
        "run_started": lambda r: (
            f"label={r.get('label')} dataset={r.get('dataset')} "
            f"resumed_after={r.get('resumed_iteration')}"
        ),
        "iteration_completed": lambda r: (
            f"iteration={r.get('iteration')} "
            f"pre_inertia={r.get('pre_inertia'):.2f} "
            f"centroids={r.get('n_centroids')} "
            f"eps_total={r.get('epsilon_spent_total'):.4f}"
        ),
        "checkpoint_saved": lambda r: f"iteration={r.get('iteration')}",
        "fault_detected": lambda r: (
            f"fault={r.get('fault')} detector={r.get('detector')} "
            f"iteration={r.get('iteration')}"
        ),
        "run_aborted": lambda r: (
            f"iteration={r.get('iteration')} reason={r.get('reason')} "
            f"epsilon_charged={r.get('epsilon_charged'):.4f}"
        ),
        "run_completed": lambda r: (
            f"reason={r.get('reason')} iterations={r.get('iterations')}"
        ),
        "job_completed": lambda r: f"wall={r.get('wall_seconds')}s",
        "job_failed": lambda r: f"error={r.get('error')}",
    }.get(kind, lambda r: "")(record)


def _cmd_tail(args, out) -> int:
    from .service import JobStore, tail_events, tail_jobs

    store = JobStore(args.root)
    if args.job:
        try:
            store.get(args.job)
        except KeyError as exc:
            print(f"error: {exc}", file=out)
            return 2
        records = tail_events(store.events_path(args.job), follow=args.follow)
    else:
        records = tail_jobs(store, follow=args.follow)
    try:
        for record in records:
            print(json.dumps(record) if args.raw else _render_event(record),
                  file=out)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_plan(args, out) -> int:
    from .privacy import GossipPrivacyPlan

    plan = GossipPrivacyPlan(
        delta=args.delta, e_max=args.e_max, population=args.population,
        max_iterations=args.iterations, series_length=args.length,
    )
    print(f"delta={plan.delta} e_max={plan.e_max} population={plan.population:,}", file=out)
    print(f"delta_atom = {plan.delta_atom:.10f} "
          f"(= {args.iterations * 2 * args.length}-th root of delta)", file=out)
    print(f"iota = {plan.iota:.3e} (strict Lemma-2 variant: {plan.iota_strict:.3e})",
          file=out)
    print(f"exchanges per participant per EESum (Thm 3): n_e = {plan.exchanges}", file=out)
    print(f"Lemma-2 noise inflation factor: {plan.noise_inflation:.12f}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    With no arguments at all, prints the full help and exits 2 (instead of
    the terse argparse usage error).
    """
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_help(out)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except BrokenPipeError:
        # `repro report ... | head` closing the pipe early is a normal
        # exit, not a traceback.  Detach stdout so the interpreter's
        # shutdown flush doesn't raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0

