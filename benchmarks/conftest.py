"""Benchmark-suite plumbing.

Every bench regenerates one of the paper's tables/figures and registers a
text rendition via :func:`record_report`; the tables are printed in the
pytest terminal summary (so they survive output capture) and written to
``benchmarks/out/<name>.txt`` for EXPERIMENTS.md.

Machine-readable telemetry rides along: :func:`record_json` writes
``benchmarks/out/BENCH_<name>.json`` with the bench's structured results
wrapped in a common envelope (git revision, a hash of the measured
``src/`` tree, python version, timestamp), so
the perf trajectory is trackable across PRs by diffing the JSON files.
Each file is *also* mirrored to ``BENCH_<name>.json`` at the repository
root — the copy that gets committed/uploaded, so the perf trajectory is
visible in the tree itself (and diffable between PRs) without digging
into CI artifacts.

:func:`time_run_calls` is the one stopwatch for the paper's local costs
(Fig. 5(a), and the benches that reuse them): it times the calls a
vectorized-crypto run makes on one set of means.  :func:`time_threshold`
times threshold decryption at any τ and share subset, per ciphertext (the
τ-sweep and the Sec. 6.3.2 composition).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import subprocess
import sys
import time
from typing import NamedTuple
from unittest import mock

import numpy as np

from repro.core import ChiaroscuroParams, ChiaroscuroRun
from repro.crypto import (
    SerialBackend,
    bigint,
    combine_partial_decryptions_batch,
    encrypt,
    generate_threshold_keypair,
)
from repro.datasets import TimeSeriesSet
from repro.privacy import Greedy

_REPORTS: list[tuple[str, list[str]]] = []
_OUT_DIR = pathlib.Path(__file__).parent / "out"
_REPO_ROOT = pathlib.Path(__file__).parent.parent


def record_report(name: str, title: str, lines: list[str]) -> None:
    """Register a figure reproduction for terminal display and save it."""
    _REPORTS.append((title, lines))
    _OUT_DIR.mkdir(exist_ok=True)
    (_OUT_DIR / f"{name}.txt").write_text(title + "\n" + "\n".join(lines) + "\n")


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None


#: Both revision fields of a point measured where no work tree answers
#: ``git rev-parse`` (a tree exported with ``git archive``, no git).
NO_HISTORY = "no-git-history"


def _git_rev(short: bool = True) -> str:
    """HEAD, ``-dirty``-suffixed (short form only) when ``src/`` carries
    uncommitted edits: a point measured before its commit exists must not
    pass for a point of the parent revision.  :data:`NO_HISTORY` without
    a work tree."""
    done = _git("rev-parse", *(["--short"] if short else []), "HEAD")
    rev = done.stdout.strip() if done and done.returncode == 0 else ""
    if not rev:
        return NO_HISTORY
    if short:
        dirty = _git("diff", "--quiet", "HEAD", "--", ":/src")
        if dirty is not None and dirty.returncode == 1:
            rev += "-dirty"
    return rev


def _src_tree() -> str:
    """sha256 over the sorted ``(path, bytes)`` of ``src/**/*.py`` as they
    are on disk, uncommitted edits included.  ``git_rev`` names a commit —
    for a point measured on edits, its parent; this names the code that
    was measured."""
    src = _REPO_ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        name = path.relative_to(src).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:%s" % (len(name), name, len(data), data))
    return digest.hexdigest()


def record_json(name: str, data: dict) -> None:
    """Write ``out/BENCH_<name>.json``: the bench's results + envelope.

    ``data`` is bench-specific (timings in seconds, populations, key sizes,
    measured tables); the envelope adds provenance so a stored file is
    self-describing.  Keys must be JSON-serializable — numpy scalars should
    be converted by the caller (``float``/``int``).

    The file is mirrored to the repository root (``BENCH_<name>.json``) so
    the cross-PR perf trajectory lives in the tree, not only in CI
    artifacts.
    """
    _OUT_DIR.mkdir(exist_ok=True)
    now = time.time()
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now))
    git_rev = _git_rev()
    envelope = {
        "schema": "chiaroscuro-bench/v1",
        "bench": name,
        "git_rev": git_rev,
        "python": sys.version.split()[0],
        "timestamp": timestamp,
        # The ordering block the warehouse's bench-trajectory view keys
        # on: a numeric epoch (no ISO parsing, no filesystem mtimes) and
        # the full revision alongside the short one.  The legacy
        # top-level git_rev/timestamp stay for old readers.
        "provenance": {
            "git_rev": git_rev,
            "git_rev_full": _git_rev(short=False),
            "src_tree": _src_tree(),
            "timestamp": timestamp,
            "unix_time": round(now, 3),
        },
        "data": data,
    }
    payload = json.dumps(envelope, indent=2) + "\n"
    (_OUT_DIR / f"BENCH_{name}.json").write_text(payload)
    (_REPO_ROOT / f"BENCH_{name}.json").write_text(payload)


def record_runs(name: str, runs: list[dict], extra: dict | None = None) -> None:
    """Write ``out/BENCH_<name>.json`` in the shared run-record schema.

    ``runs`` is a list of :func:`repro.api.run_record` dicts — one per
    experiment the bench executed (spec + per-iteration history +
    timings), so every BENCH file that runs experiments exposes the same
    ``chiaroscuro-run/v1`` shape and can be diffed across PRs with one
    tool.  ``extra`` carries bench-specific aggregates alongside.
    """
    payload = {"schema": "chiaroscuro-run/v1", "runs": runs}
    if extra:
        payload.update(extra)
    record_json(name, payload)


class RunCosts(NamedTuple):
    """One means set through a run's own calls."""

    run: ChiaroscuroRun
    ciphertexts: int  # what the run packs one set of k·(n+1) values into
    seconds: dict[str, float]  # encrypt / add / decrypt


def time_run_calls(key_bits: int, k: int, series_length: int) -> RunCosts:
    """Time one set of ``k·(series_length+1)`` means values through the
    calls a ``plane="vectorized-crypto"`` run makes, with its own
    ``packed`` codec, ``backend`` and ``keypair``:

    * encrypt: ``backend.encrypt_batch`` of ``packed.pack(set)`` (the
      packing stays outside the stopwatch, as outside the run's
      ``crypto_ms``);
    * add: one ``backend.mulmod_batch`` of two encrypted sets, a gossip
      merge;
    * decrypt: τ ``partial_decrypt_batch`` calls, then
      ``combine_partial_decryptions_batch``.

    The run is paper-shaped — n_e = 30 and ε = 0.69 over 10 GREEDY
    iterations, so the slot plan is a real run's — with 5 devices and
    τ = 3.  The decrypted sum is checked against the packed values.
    """
    rng = np.random.default_rng(0)
    population, tau = 5, 3
    params = ChiaroscuroParams(
        k=k, key_bits=key_bits, tau_fraction=tau / population
    )
    dataset = TimeSeriesSet(
        rng.uniform(0.0, 80.0, (population, series_length)), 0.0, 80.0
    )
    run = ChiaroscuroRun(
        dataset, Greedy(params.epsilon), params,
        rng.uniform(0.0, 80.0, (k, series_length)), plane="vectorized-crypto",
    )
    packed, backend, keypair = run.packed, run.backend, run.keypair
    public, context = keypair.public, keypair.context
    sets = rng.uniform(0.0, 80.0, (2, k * (series_length + 1)))
    seconds = {}
    with bigint.use_backend(run.bigint_backend):
        plaintexts = packed.pack(sets)
        start = time.perf_counter()
        left = backend.encrypt_batch(public, plaintexts[0], run.crypto_rng)
        seconds["encrypt"] = time.perf_counter() - start
        right = backend.encrypt_batch(public, plaintexts[1], run.crypto_rng)
        start = time.perf_counter()
        added = backend.mulmod_batch(left, right, public.n_s1)
        seconds["add"] = time.perf_counter() - start
        start = time.perf_counter()
        partials = {
            share.index: backend.partial_decrypt_batch(context, share, added)
            for share in keypair.shares[: context.threshold]
        }
        summed = combine_partial_decryptions_batch(context, partials)
        seconds["decrypt"] = time.perf_counter() - start
    assert context.threshold == tau
    fixed = np.rint(sets * packed.scale).astype(np.int64).sum(axis=0)
    assert packed.unpack_integers(summed, sets.shape[1], bias_multiplier=2) == (
        fixed.tolist()
    )
    return RunCosts(run, len(left), seconds)


class ThresholdCosts(NamedTuple):
    """One share subset's threshold decryption, per ciphertext."""

    partial_seconds: float  # one partial decryption, with one share
    combine_seconds: float  # one combination of the subset's partials
    exponent_bits: int  # the largest combination exponent


#: ciphertexts each :func:`time_threshold` call decrypts
THRESHOLD_CIPHERTEXTS = 2


def time_threshold(
    key_bits: int, n_shares: int, threshold: int, subset: list[int] | None = None
) -> ThresholdCosts:
    """Time threshold decryption under a fresh ``key_bits``-bit key (s = 1,
    the python kernel) dealt as ``n_shares`` shares, any ``threshold`` of
    which decrypt, on the calls a run makes:

    * partial: ``SerialBackend.partial_decrypt_batch`` with every share of
      ``subset`` (default: the first ``threshold`` indices), per share and
      ciphertext;
    * combine: ``combine_partial_decryptions_batch`` of those partials,
      per ciphertext.

    The largest exponent is read off the ``bigint.multi_powmod`` calls of
    one more, untimed, combination.  The plaintexts are checked.
    """
    rng = random.Random(0)
    keypair = generate_threshold_keypair(key_bits, n_shares, threshold, rng=rng)
    public, context = keypair.public, keypair.context
    subset = subset or list(range(1, threshold + 1))
    values = [rng.randrange(public.n_s) for _ in range(THRESHOLD_CIPHERTEXTS)]
    ciphertexts = [encrypt(public, value, rng=rng) for value in values]
    backend = SerialBackend()
    with bigint.use_backend("python"):
        start = time.perf_counter()
        partials = {
            index: backend.partial_decrypt_batch(
                context, keypair.shares[index - 1], ciphertexts
            )
            for index in subset
        }
        partial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        combined = combine_partial_decryptions_batch(context, partials)
        combine_seconds = time.perf_counter() - start
        widths = []
        multi_powmod = bigint.multi_powmod

        def spy(bases, exponents, modulus):
            widths.extend(abs(e).bit_length() for e in exponents)
            return multi_powmod(bases, exponents, modulus)

        with mock.patch.object(bigint, "multi_powmod", spy):
            combine_partial_decryptions_batch(context, partials)
    assert combined == values
    return ThresholdCosts(
        partial_seconds / (len(subset) * len(values)),
        combine_seconds / len(values),
        max(widths),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper figure reproductions")
    for title, lines in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title} ---")
        for line in lines:
            terminalreporter.write_line(line)
