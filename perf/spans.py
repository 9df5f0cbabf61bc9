"""Span recorder for the traced run — measures the layers from outside.

The recorder lives here, not in ``src/``: :func:`install` wraps the layers'
public, batch-level entry points at import time (class methods on the
class; module-level functions imported by name in every consumer's
namespace).  A span is ``[name, start, end, parent, items]``; spans stay
in memory and are summarized when the op ends.  Self time is a span's
duration minus the time its direct children cover; ``items`` is the work
count read from the call's arguments (or result) *after* the span closed,
so counting is never timed.

Only batch-level calls are wrapped (at most ~10⁴ per op): a per-ciphertext
wrapper would measure itself.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

__all__ = ["PATCHES", "Recorder", "install", "leaf_seconds", "summarize"]

NAME, START, END, PARENT, ITEMS = range(5)


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        return index

    def _end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def timed(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as span ``name``; returns (result, seconds)."""
        index = self._begin(name)
        try:
            result = fn(*args)
        finally:
            self._end(index)
        return result, self.spans[index][END] - self.spans[index][START]

    def wrap(self, fn: Callable, name: str, items: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``items(args, kwargs, result)``
        gives the call's work count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if items is not None:
                self.spans[index][ITEMS] = int(items(args, kwargs, result))
            return result

        return wrapper

    def wrap_steps(self, fn: Callable, name: str) -> Callable:
        """A generator function recorded as one span per yielded step.

        The span covers the ``next()`` that produced the step, not the time
        the consumer holds it; the final ``next()`` that only ends the
        generator is not a step and leaves no span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                index = self._begin(name)
                try:
                    step = next(steps)
                except StopIteration:
                    self._end(index)
                    # Children recorded during the tail keep their parent
                    # index valid: blank the span instead of deleting it.
                    self.spans[index][NAME] = ""
                    return
                except BaseException:
                    self._end(index)
                    raise
                self._end(index)
                yield step

        return wrapper


def _n(position: int) -> Callable:
    """Work count = ``len`` of the positional argument (``self`` is 0)."""
    return lambda args, kwargs, result: len(args[position])


#: (module, attribute path, span name, items, kind).  ``kind`` is "call" or
#: "steps" (generator, one span per step).  A function imported by name is
#: listed once per consumer namespace — patching its home module would miss
#: the copies bound at import.
PATCHES: tuple[tuple[str, str, str, Callable | None, str], ...] = (
    # crypto
    ("repro.crypto.backend", "SerialBackend.encrypt_batch",
     "crypto.backend.encrypt_batch", _n(2), "call"),
    ("repro.crypto.backend", "SerialBackend.partial_decrypt_batch",
     "crypto.backend.partial_decrypt_batch", _n(3), "call"),
    ("repro.crypto.backend", "SerialBackend.pow_batch",
     "crypto.backend.pow_batch", _n(1), "call"),
    ("repro.crypto.backend", "SerialBackend.mulmod_batch",
     "crypto.backend.mulmod_batch", _n(1), "call"),
    ("repro.crypto.damgard_jurik", "FastEncryptor.__init__",
     "crypto.damgard_jurik.fast_encryptor_init", None, "call"),
    ("repro.crypto.encoding", "PackedCodec.pack",
     "crypto.encoding.pack", _n(1), "call"),
    ("repro.crypto.encoding", "PackedCodec.unpack_integers",
     "crypto.encoding.unpack", _n(1), "call"),
    ("repro.core.computation", "combine_partial_decryptions_batch",
     "crypto.threshold.combine",
     lambda args, kwargs, result: len(result), "call"),
    ("repro.gossip.decryption", "combine_partial_decryptions",
     "crypto.threshold.combine", lambda args, kwargs, result: 1, "call"),
    ("repro.core.protocol", "generate_threshold_keypair",
     "crypto.threshold.keygen", None, "call"),
    # gossip
    ("repro.gossip.cipher_array", "CipherEESum.exchange_pairs",
     "gossip.cipher_array.exchange_pairs", _n(1), "call"),
    ("repro.gossip.vectorized_protocol", "VectorizedGossipEngine.run_cycle",
     "gossip.vectorized_protocol.run_cycle",
     lambda args, kwargs, result: len(result[0]), "call"),
    ("repro.gossip.vectorized_protocol", "VectorizedGossipEngine.draw_pairing",
     "gossip.vectorized_protocol.draw_pairing", None, "call"),
    ("repro.gossip.eesum", "VectorizedEESum.exchange_pairs",
     "gossip.eesum.vectorized_exchange_pairs", _n(1), "call"),
    ("repro.gossip.dissemination", "VectorizedMinId.exchange_pairs",
     "gossip.dissemination.exchange_pairs", _n(1), "call"),
    ("repro.gossip.decryption", "VectorizedShareCollection.exchange_pairs",
     "gossip.decryption.share_collection", _n(1), "call"),
    ("repro.gossip.engine", "GossipEngine.run_cycle",
     "gossip.engine.run_cycle",
     lambda args, kwargs, result: result, "call"),
    ("repro.gossip.eesum", "EESum.exchange",
     "gossip.eesum.object_exchange", None, "call"),
    ("repro.gossip.decryption", "EpidemicDecryption.setup",
     "gossip.decryption.epidemic_setup", None, "call"),
    ("repro.gossip.decryption", "EpidemicDecryption.exchange",
     "gossip.decryption.epidemic_exchange", None, "call"),
    ("repro.gossip.decryption", "EpidemicDecryption.plaintexts_of",
     "gossip.decryption.plaintexts_of", None, "call"),
    # core
    ("repro.core.noise", "NoisePlan.draw_shares",
     "core.noise.draw_shares",
     lambda args, kwargs, result: result.size, "call"),
    ("repro.core.noise", "NoisePlan.correction",
     "core.noise.correction", None, "call"),
    ("repro.core.computation", "ComputationStep.run",
     "core.computation.step", None, "call"),
    ("repro.core.computation", "VectorizedComputationStep.run",
     "core.computation.step", None, "call"),
    ("repro.core.computation", "VectorizedCryptoComputationStep.run",
     "core.computation.step", None, "call"),
    ("repro.core.protocol", "ChiaroscuroRun.__init__",
     "core.protocol.init", None, "call"),
    ("repro.core.protocol", "ChiaroscuroRun.run_iter",
     "core.protocol.iter", None, "steps"),
    ("repro.core.protocol", "assign_to_closest",
     "clustering.distance.assign", _n(0), "call"),
    ("repro.core.protocol", "intra_inertia",
     "clustering.inertia.intra_inertia", _n(0), "call"),
    # api
    ("repro.api.experiment", "build_dataset",
     "datasets.build", None, "call"),
    ("repro.api.experiment", "Experiment._build_context",
     "api.experiment.context", None, "call"),
    ("repro.api.checkpoint", "CheckpointStore.save",
     "api.checkpoint.save", None, "call"),
    # service (the scheduler side; workers are other processes)
    ("repro.service.store", "JobStore.submit_batch",
     "service.store.submit_batch", None, "call"),
    ("repro.service.scheduler", "Scheduler.drain",
     "service.scheduler.drain", None, "call"),
)


def install(recorder: Recorder) -> None:
    """Apply every entry of :data:`PATCHES` (call after importing ``repro``).

    A target that no longer exists raises ``AttributeError`` here — a
    renamed entry point must fail the traced run, not read 0 s.
    """
    for module_name, path, name, items, kind in PATCHES:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attribute)
        if kind == "steps":
            patched = recorder.wrap_steps(original, name)
        else:
            patched = recorder.wrap(original, name, items)
        setattr(owner, attribute, patched)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: ``total_s``, ``self_s``, ``calls``, ``items`` and the
    per-call ``durations`` in call order."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_seconds[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        if not span[NAME]:
            continue
        entry = out.setdefault(
            span[NAME],
            {"total_s": 0.0, "self_s": 0.0, "calls": 0, "items": 0, "durations": []},
        )
        duration = span[END] - span[START]
        entry["total_s"] += duration
        entry["self_s"] += duration - child_seconds[index]
        entry["calls"] += 1
        entry["items"] += span[ITEMS]
        entry["durations"].append(duration)
    return out


def leaf_seconds(spans: list[list], start: float, end: float) -> float:
    """Total duration of the childless spans inside ``[start, end]``."""
    parents = {span[PARENT] for span in spans if span[PARENT] >= 0}
    return sum(
        span[END] - span[START]
        for index, span in enumerate(spans)
        if span[NAME]
        and index not in parents
        and span[START] >= start
        and span[END] <= end
    )
