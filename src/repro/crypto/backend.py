"""Crypto execution backends: batched encryption and partial decryption.

The batched plane funnels every bulk ciphertext operation through a
:class:`CryptoBackend` so the execution strategy is swappable without
touching protocol code:

* :class:`SerialBackend` — the in-process reference implementation;
* :class:`ProcessPoolBackend` — fans batches out over a
  ``ProcessPoolExecutor``, the right tool for the pure-Python big-int
  arithmetic that dominates local costs (it is CPU-bound and releases no
  GIL).

**Determinism.** Reproducibility across backends is a hard requirement
(the protocol seeds everything).  Randomness is therefore *one stream,
drawn before dispatch*: the caller's ``rng`` emits a batch's whole
randomness up front (:func:`~repro.crypto.damgard_jurik.draw_randomness` —
with a :class:`FastEncryptor`, a single ``getrandbits`` blob of full-width
odd randomizer exponents; without, one raw randomizer per item), and the
arithmetic that consumes it (:func:`~repro.crypto.damgard_jurik.
encrypt_drawn`) is a pure function of (plaintexts, drawn slice).  Worker
count, chunking, and scheduling order then cannot change any ciphertext —
the serial and process-pool backends, and :func:`repro.crypto.damgard_jurik.
encrypt_batch`, produce bit-identical batches from the same master RNG
state.  Partial decryption is deterministic to begin with.

Backends are selected by name through :func:`create_backend`, which is the
hook :class:`repro.core.ChiaroscuroParams` plugs into (``crypto_backend``
/ ``backend_workers`` fields).
"""

from __future__ import annotations

import os
import random
from typing import TYPE_CHECKING

import numpy as np

from . import bigint
from .damgard_jurik import (
    FastEncryptor,
    draw_randomness,
    encrypt_batch,
    encrypt_drawn,
)
from .keys import KeyShare, PublicKey, ThresholdContext

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "CryptoBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "create_backend",
]


# --- process-pool worker side -------------------------------------------
# The (potentially table-backed) encryptor ships once per worker through the
# pool initializer, together with the parent's resolved bigint backend name
# (workers must re-select it — the selection is process-global state, and a
# spec/CLI choice made in the parent would otherwise be invisible to them).
# Chunks then carry only plaintexts and their slice of the drawn randomness.

_WORKER_ENCRYPTOR: FastEncryptor | None = None


def _init_worker(encryptor: FastEncryptor | None, bigint_backend: str) -> None:
    global _WORKER_ENCRYPTOR
    _WORKER_ENCRYPTOR = encryptor
    bigint.select_backend(bigint_backend)
    if encryptor is not None:
        # Warm the fixed-base table *after* the backend re-selection: the
        # unpickled table has no native-row cache, and building it here —
        # once per worker process — keeps it out of every batch. Without
        # this, the first batch of each worker (and, before tables became
        # backend-aware, *every* batch) paid the full table rebuild.
        encryptor.warm()


def _encrypt_chunk(
    public: PublicKey, plaintexts: list[int], drawn: bytes | list[int]
) -> list[int]:
    return encrypt_drawn(public, plaintexts, drawn, _WORKER_ENCRYPTOR)


def _pow_chunk(exponent: int, modulus: int, chunk: list[int]) -> list[int]:
    return bigint.powmod_batch(chunk, exponent, modulus)


def _mulmod_chunk(modulus: int, lefts, rights) -> np.ndarray:
    return bigint.mulmod_pairwise(lefts, rights, modulus)


class CryptoBackend:
    """Interface both backends implement (and custom ones may)."""

    name = "abstract"

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        raise NotImplementedError

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        raise NotImplementedError

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        """``[b**exponent mod modulus]`` with one shared exponent — the
        scalar-multiplication shape of a gossip exchange round (every
        lagging pair side scales its vector by the same ``2^d``)."""
        raise NotImplementedError

    def mulmod_batch(self, lefts, rights, modulus: int) -> np.ndarray:
        """Elementwise ``lefts[i]·rights[i] mod modulus`` over two 1-D
        batches (lists or object ndarrays) — the homomorphic-add shape of a
        whole exchange round — as a 1-D ``dtype=object`` ndarray of ``int``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (no-op for in-process backends)."""


class SerialBackend(CryptoBackend):
    """In-process reference backend; optionally table-accelerated."""

    name = "serial"

    def __init__(self, encryptor: FastEncryptor | None = None) -> None:
        self.encryptor = encryptor

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        return encrypt_batch(public, plaintexts, rng, self.encryptor)

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        exponent = context.partial_exponent(share)
        return bigint.powmod_batch(ciphertexts, exponent, context.public.n_s1)

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        return bigint.powmod_batch(bases, exponent, modulus)

    def mulmod_batch(self, lefts, rights, modulus: int) -> np.ndarray:
        return bigint.mulmod_pairwise(lefts, rights, modulus)


class ProcessPoolBackend(CryptoBackend):
    """Fan batches out over worker processes.

    The executor is created lazily on first use and recreated after
    :meth:`close`, so one backend object can serve several protocol runs.
    Batches smaller than ``min_batch`` stay in-process — dispatch overhead
    would dwarf the arithmetic.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int = 0,
        encryptor: FastEncryptor | None = None,
        min_batch: int = 8,
    ) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.encryptor = encryptor
        self.min_batch = max(1, min_batch)  # an empty batch never reaches the pool
        self._executor: ProcessPoolExecutor | None = None
        self._serial = SerialBackend(encryptor)

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Imported on first use: a serial run never loads the pool.
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(self.encryptor, bigint.active_backend()),
            )
        return self._executor

    def _map(self, fn, fixed: tuple, *columns) -> list[int]:
        """``fn(*fixed, *chunk)`` over aligned chunks of ``columns``, pooled,
        results concatenated in order.  Columns are sliced per *item*; one
        holding several elements per item (the exponent byte blob) is cut
        at the matching multiples."""
        count = len(columns[0])
        per_chunk = max(1, -(-count // (4 * self.max_workers)))
        starts = range(0, count, per_chunk)

        def cut(column):
            stride = len(column) // count
            return [column[i * stride : (i + per_chunk) * stride] for i in starts]

        out: list[int] = []
        for part in self._pool().map(
            fn, *([value] * len(starts) for value in fixed), *map(cut, columns)
        ):
            out.extend(part)
        return out

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        # Randomness is drawn up front either way, so falling back to the
        # serial path for small batches cannot change the output.
        if len(plaintexts) < self.min_batch:
            return self._serial.encrypt_batch(public, plaintexts, rng)
        drawn = draw_randomness(public, len(plaintexts), rng, self.encryptor)
        return self._map(_encrypt_chunk, (public,), list(plaintexts), drawn)

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        if len(ciphertexts) < self.min_batch:
            return self._serial.partial_decrypt_batch(context, share, ciphertexts)
        exponent = context.partial_exponent(share)
        return self._map(
            _pow_chunk, (exponent, context.public.n_s1), list(ciphertexts)
        )

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        if len(bases) < self.min_batch:
            return self._serial.pow_batch(bases, exponent, modulus)
        return self._map(_pow_chunk, (exponent, modulus), list(bases))

    def mulmod_batch(self, lefts, rights, modulus: int) -> np.ndarray:
        # Per-element work is one multiply — far cheaper than a powmod —
        # so sharding only pays beyond a much larger floor (pickling two
        # ciphertexts per element is the dominant dispatch cost).
        if len(lefts) < max(self.min_batch, 512) or len(lefts) != len(rights):
            return self._serial.mulmod_batch(lefts, rights, modulus)
        merged = self._map(_mulmod_chunk, (modulus,), lefts, rights)
        return np.array(merged, dtype=object)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def create_backend(
    name: str = "serial",
    workers: int = 0,
    encryptor: FastEncryptor | None = None,
) -> CryptoBackend:
    """Build a backend by name (``"serial"`` or ``"process"``)."""
    if name == "serial":
        return SerialBackend(encryptor)
    if name == "process":
        return ProcessPoolBackend(max_workers=workers, encryptor=encryptor)
    raise ValueError(f"unknown crypto backend {name!r} (use 'serial' or 'process')")
