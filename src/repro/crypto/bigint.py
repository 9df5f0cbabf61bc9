"""Pluggable bigint arithmetic kernel for the crypto plane.

Every hot modular-arithmetic operation in the repository funnels through
this module so the underlying implementation is swappable without touching
protocol code.  Two backends exist:

* ``python`` — CPython's built-in arbitrary-precision integers (the
  default; zero new dependencies, always available);
* ``gmpy2`` — GMP-backed ``mpz`` arithmetic, a *soft* dependency that is
  used only when the package is importable and selected.  GMP's
  subquadratic multiplication and sliding-window ``powmod`` give 3–10×
  on the 1024–2048-bit operands the Damgård–Jurik plane works with.

Both backends are exact integer arithmetic, so every result is
**bit-identical** across them — backend choice is a pure speed knob and
must never change a ciphertext, a decryption, or a protocol trace.

Selection
---------
The active backend is process-global (worker processes of the pool
backend re-select it from the name shipped in their initializer):

* ``REPRO_BIGINT_BACKEND`` environment variable (``auto`` | ``python`` |
  ``gmpy2``), read at import time and whenever ``auto`` is re-resolved;
* :func:`select_backend` — programmatic selection, used by
  ``ChiaroscuroRun`` to apply ``ChiaroscuroParams.bigint_backend`` (the
  RunSpec field) and by the CLI ``--bigint-backend`` flag;
* :func:`use_backend` — a context manager for tests and benchmarks.

``auto`` defers to the environment variable when set, else picks
``gmpy2`` when importable and ``python`` otherwise.  Requesting
``gmpy2`` explicitly when the package is absent raises ``ValueError``
(the soft-dependency boundary is loud, never silent).

Primitives
----------
Beyond :func:`invert`, the kernel exposes the batched shapes the
protocol actually exhibits:

* :func:`powmod_batch` — many bases, one shared exponent/modulus (the
  partial-decryption shape: ``c_i^{2Δd}`` over a whole means vector).
  On the python backend, a modulus that is a perfect square ``r²``
  (``n²`` of an ``s = 1`` key, ``p²`` of its CRT half) with ``r`` of at
  least 384 bits and an exponent of at least 64 bits runs a sliding-
  window chain on the two ``r``-adic digits of ``x = x0 + x1·r``: half-
  width products and divisions where builtin ``pow`` pays full-width
  ones, ≈ 0.65× its time at 1024-bit roots.  Selected by input size
  alone, bit-identical, and :func:`powmod` is one item of it;
* :func:`invert_batch` — Montgomery's batch-inversion trick: ``n``
  inverses for the price of one inversion plus ``3(n−1)``
  multiplications;
* :func:`multi_powmod` — Straus (interleaved) multi-exponentiation
  ``∏ b_i^{e_i} mod m`` with one shared squaring chain, the threshold
  Lagrange-combination shape;
* :func:`mulmod_pairwise` — elementwise products ``a_i·b_i mod m`` over
  two equally long vectors, the homomorphic-add shape of a whole gossip
  exchange round (every pair's ciphertext vectors merge at once).  On the
  python kernel it is one ``np.multiply`` and one in-place ``np.remainder``
  over 1-D ``dtype=object`` arrays — the same two integer operations per
  element, dispatched from C instead of a per-item Python loop — and it
  returns a 1-D object ndarray;
* :func:`comb_pow_batch` — one fixed base, many short exponents, walked
  column-wise over a precomputed Lim–Lee comb (the encryption-randomizer
  shape).  The comb rows are object ndarrays; a column is one C-level
  gather ``row[digits[t]]`` by its ``uint16`` digit column and two in-place
  object-ufunc passes over the batch, never a per-item Python loop.

Every entry point returns plain Python ``int`` values (a list, or an
object ndarray of them) — native types (``mpz``) never leak to callers,
so serialization, hashing and pickling behaviour is identical whichever
backend computed a value.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from ..blocks import row_blocks

__all__ = [
    "BACKEND_ENV",
    "active_backend",
    "available_backends",
    "comb_pow_batch",
    "invert",
    "invert_batch",
    "multi_powmod",
    "mulmod_pairwise",
    "powmod",
    "powmod_batch",
    "resolve_backend",
    "select_backend",
    "to_native",
    "use_backend",
]

#: Environment variable consulted when resolving the ``auto`` backend.
BACKEND_ENV = "REPRO_BIGINT_BACKEND"

try:  # soft dependency: pure-python remains the zero-dependency default
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - exercised on gmpy2-less installs
    _gmpy2 = None


class _PythonBackend:
    """CPython built-in integers — the always-available reference."""

    name = "python"

    @staticmethod
    def to_native(value: int) -> int:
        return int(value)

    @staticmethod
    def invert(value: int, modulus: int) -> int:
        return pow(value, -1, modulus)


class _Gmpy2Backend:
    """GMP-backed ``mpz`` arithmetic via :mod:`gmpy2` (soft dependency)."""

    name = "gmpy2"

    @staticmethod
    def to_native(value: int):
        return _gmpy2.mpz(value)

    @staticmethod
    def invert(value: int, modulus: int) -> int:
        try:
            result = int(_gmpy2.invert(value, modulus))
        except ZeroDivisionError as exc:
            raise ValueError(f"base is not invertible mod {modulus}") from exc
        if result == 0 and modulus != 1:
            # gmpy2 < 2.1 signalled "no inverse" with 0 instead of raising.
            raise ValueError(f"base is not invertible mod {modulus}")
        return result


_BACKENDS = {"python": _PythonBackend}
if _gmpy2 is not None:
    _BACKENDS["gmpy2"] = _Gmpy2Backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this process."""
    return tuple(_BACKENDS)


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend name to a concrete one, without side
    effects.

    ``None``/``""``/``"auto"`` consult :data:`BACKEND_ENV`; an unset (or
    itself-``auto``) variable resolves to ``gmpy2`` when importable, else
    ``python``.  Unknown names, and an explicit ``gmpy2`` request without
    the package, raise ``ValueError``.
    """
    requested = (name or "auto").strip().lower()
    if requested == "auto":
        requested = (os.environ.get(BACKEND_ENV) or "auto").strip().lower()
    if requested == "auto":
        return "gmpy2" if "gmpy2" in _BACKENDS else "python"
    if requested == "python":
        return "python"
    if requested == "gmpy2":
        if "gmpy2" not in _BACKENDS:
            raise ValueError(
                "bigint backend 'gmpy2' requested but the gmpy2 package is "
                "not installed (pure-python is the default; install gmpy2 "
                "for the fast path)"
            )
        return "gmpy2"
    raise ValueError(
        f"unknown bigint backend {requested!r} (use 'auto', 'python' or 'gmpy2')"
    )


def select_backend(name: str | None = None) -> str:
    """Select the process-global backend; returns the concrete name."""
    global _ACTIVE
    _ACTIVE = _BACKENDS[resolve_backend(name)]
    return _ACTIVE.name


def active_backend() -> str:
    """Concrete name of the backend currently in effect."""
    return _ACTIVE.name


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Temporarily select a backend (tests, benchmarks, comparisons)."""
    previous = _ACTIVE.name
    try:
        yield select_backend(name)
    finally:
        select_backend(previous)


try:
    _ACTIVE = _BACKENDS[resolve_backend("auto")]
except ValueError as _exc:  # bad REPRO_BIGINT_BACKEND: never break imports
    warnings.warn(f"{_exc}; falling back to the python bigint backend")
    _ACTIVE = _PythonBackend


# ------------------------------------------------------------- primitives


def to_native(value: int):
    """The active backend's native integer (``int`` or ``mpz``).

    For building arithmetic-heavy local loops (e.g. the fixed-base table)
    on the fast representation; convert back with ``int()`` before the
    value leaves the crypto layer.
    """
    return _ACTIVE.to_native(value)


#: Smallest square root ``r`` (in bits) for which the n-adic chain beats
#: builtin ``pow`` modulo ``r²``, and the shortest exponent that pays for
#: the chain's split, window table and join.  Both are read off the
#: measured grids in ``docs/PERFORMANCE.md`` ("n-adic exponentiation mod
#: n²", re-checked under "Exponent split at n"): at 256-bit roots the
#: chain is a wash, from 384 bits it wins on
#: every exponent past CPython's own 60-bit windowing cutoff, and below
#: that cutoff sparse ``2^k`` exponents (the gossip scalings) lose.
_NADIC_MIN_ROOT_BITS = 384
_NADIC_MIN_EXPONENT_BITS = 64


def _nadic_root(exponent: int, modulus: int) -> int:
    """``r`` with ``modulus == r²`` when the n-adic chain should run, else 0.

    Two comparisons come first: a positive exponent of at least
    ``_NADIC_MIN_EXPONENT_BITS`` bits, and a modulus no smaller than the
    square of the smallest ``_NADIC_MIN_ROOT_BITS``-bit root.  ``isqrt``
    (≈ 4 µs at 2048 bits) runs only on what passes both.
    """
    if exponent < 1 << (_NADIC_MIN_EXPONENT_BITS - 1) or modulus < 1 << (
        2 * _NADIC_MIN_ROOT_BITS - 2
    ):
        return 0
    root = math.isqrt(modulus)
    return root if root * root == modulus else 0


def _sliding_window(exponent: int) -> tuple[int, list[tuple[int, int]]]:
    """A positive exponent's left-to-right sliding-window digits.

    Returns the window ``w`` and ``(position, digit)`` pairs, highest
    first: digit ``d`` is the index of ``base^(2d+1)`` in the table of odd
    powers, multiplied in once the chain has squared down to bit
    ``position`` (the window's lowest bit).  ``w`` minimises multiplies:
    ``bits/(w+1)`` in the chain plus ``2^(w−1)`` to build the table.
    """
    bits = bin(exponent)[2:]
    window = min(range(1, 9), key=lambda w: len(bits) // (w + 1) + (1 << (w - 1)))
    digits = []
    done = 0
    while (start := bits.find("1", done)) >= 0:
        stop = bits.rfind("1", start, start + window) + 1
        digits.append((len(bits) - stop, int(bits[start:stop], 2) >> 1))
        done = stop
    return window, digits


def _nadic_odd_powers(x0: int, x1: int, root: int, window: int) -> list[tuple[int, int]]:
    """``[x^1, x^3, …, x^(2^w − 1)]`` of ``x = x0 + x1·root`` mod ``root²``,
    as digit pairs."""
    table = [(x0, x1)]
    if window > 1:
        q, s0 = divmod(x0 * x0, root)
        s1 = ((x0 * x1 << 1) + q) % root
        for _ in range((1 << (window - 1)) - 1):
            q, y0 = divmod(x0 * s0, root)
            x1 = (x0 * s1 + x1 * s0 + q) % root
            x0 = y0
            table.append((x0, x1))
    return table


def _nadic_powmod_batch(bases: Sequence[int], exponent: int, root: int) -> list[int]:
    """``[b**exponent mod root² for b in bases]`` on two ``root``-adic digits.

    ``x = x0 + x1·root`` is held as the pair ``(x0, x1)``; since
    ``root² ≡ 0``, a squaring is ``x0² + 2·x0·x1·root`` and a multiply by
    ``(b0, b1)`` is ``x0·b0 + (x0·b1 + x1·b0)·root``.  Each step is two or
    three half-width products and two half-width reductions where builtin
    ``pow`` pays one full-width product and one full-width division.

    The exponent is split at the root, ``e = E·root + e0``: since
    ``(a + k·root)^root ≡ a^root (mod root²)`` (every later binomial term
    carries ``root²``), ``b^(E·root) ≡ z^root`` with ``z = (b mod root)^E
    mod root``, one half-width builtin ``pow``.  One interleaved (Straus)
    chain then runs ``b^e0 · z^root``, squaring once per bit of
    ``max(e0, root)`` instead of once per bit of ``e``.  Plain ring
    arithmetic in ``Z/root²Z``: exact for any base (non-units, negatives,
    values ≥ ``root²``), any root ≥ 2 and any ``exponent ≥ 1``.
    """
    square = root * root
    high, low = divmod(exponent, root)
    # One schedule for the batch: both parts' windows merged by bit
    # position, each digit an index into the concatenated odd-power tables.
    moves: list[tuple[int, int]] = []
    if low:
        low_window, moves = _sliding_window(low)
    if high:
        root_window, digits = _sliding_window(root)
        offset = 1 << (low_window - 1) if low else 0
        moves += [(position, offset + digit) for position, digit in digits]
    moves.sort(reverse=True)
    above, first = moves[0]
    steps: list[tuple[int, int | None]] = []
    for position, index in moves[1:]:
        steps.append((above - position, index))
        above = position
    steps.append((above, None))
    out = []
    for base in bases:
        x1, x0 = divmod(base % square, root)
        table = []
        if low:
            table += _nadic_odd_powers(x0, x1, root, low_window)
        if high:
            table += _nadic_odd_powers(pow(x0, high, root), 0, root, root_window)
        x0, x1 = table[first]
        for squarings, digit in steps:
            for _ in range(squarings):
                q, y0 = divmod(x0 * x0, root)
                x1 = ((x0 * x1 << 1) + q) % root
                x0 = y0
            if digit is not None:
                b0, b1 = table[digit]
                q, y0 = divmod(x0 * b0, root)
                x1 = (x0 * b1 + x1 * b0 + q) % root
                x0 = y0
        out.append(x0 + x1 * root)
    return out


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base**exponent mod modulus``; negative exponents use the modular
    inverse (``ValueError`` when it does not exist)."""
    return powmod_batch([base], exponent, modulus)[0]


def powmod_batch(bases: Sequence[int], exponent: int, modulus: int) -> list[int]:
    """``[b**exponent mod modulus for b in bases]`` with one shared
    exponent — the partial-decryption shape.

    On the python backend a square modulus ``r²`` at or above the
    crossover, with a long positive exponent, runs the n-adic chain
    (:func:`_nadic_powmod_batch`); everything else is builtin ``pow``.
    """
    backend = _ACTIVE
    if backend is _PythonBackend:
        root = _nadic_root(exponent, modulus)
        if root:
            return _nadic_powmod_batch(bases, exponent, root)
        return [pow(b, exponent, modulus) for b in bases]
    e = _gmpy2.mpz(exponent)
    m = _gmpy2.mpz(modulus)
    try:
        return [int(_gmpy2.powmod(b, e, m)) for b in bases]
    except (ValueError, ZeroDivisionError) as exc:
        # A negative exponent of a non-invertible base: match pow()'s
        # error type so both backends fail identically.
        raise ValueError(f"base is not invertible mod {modulus}") from exc


def invert(value: int, modulus: int) -> int:
    """Modular inverse of ``value`` (``ValueError`` if not invertible)."""
    return _ACTIVE.invert(value, modulus)


def invert_batch(values: Sequence[int], modulus: int) -> list[int]:
    """All inverses ``v⁻¹ mod modulus`` via Montgomery's batch trick.

    One modular inversion plus ``3(n−1)`` multiplications instead of ``n``
    inversions: prefix products are accumulated, the full product is
    inverted once, and the individual inverses are peeled off backwards.
    Raises ``ValueError`` if *any* element is non-invertible (the failure
    is detected on the aggregated product, exactly like the one-inversion
    cost profile implies).
    """
    if not values:
        return []
    backend = _ACTIVE
    m = backend.to_native(modulus)
    native = [backend.to_native(v % modulus) for v in values]
    prefix = []
    acc = backend.to_native(1)
    for v in native:
        prefix.append(acc)
        acc = acc * v % m
    acc = backend.invert(acc, modulus)  # raises ValueError when gcd ≠ 1
    acc = backend.to_native(acc)
    out = [0] * len(native)
    for i in range(len(native) - 1, -1, -1):
        out[i] = int(prefix[i] * acc % m)
        acc = acc * native[i] % m
    return out


def mulmod_pairwise(
    lefts: Sequence[int], rights: Sequence[int], modulus: int
) -> np.ndarray:
    """Elementwise ``lefts[i]·rights[i] mod modulus`` over two vectors, as a
    1-D ``dtype=object`` ndarray of ``int``.

    The homomorphic-add shape of one vectorized gossip round: every
    scheduled pair merges its whole ciphertext vector in a single batched
    call.  On the python kernel the batch is one ``np.multiply`` and one
    in-place ``np.remainder`` over object arrays (lists are converted, object
    ndarrays used as they are); on gmpy2 native conversion happens once per
    operand (not per operation), which is where it recovers its per-element
    overhead.
    """
    if len(lefts) != len(rights):
        raise ValueError("mulmod_pairwise needs equally long vectors")
    backend = _ACTIVE
    if backend is _PythonBackend:
        out = np.asarray(lefts, dtype=object) * np.asarray(rights, dtype=object)
        out %= np.array(modulus, dtype=object)
        return out
    m = backend.to_native(modulus)
    return np.array(
        [
            int(backend.to_native(a) * backend.to_native(b) % m)
            for a, b in zip(lefts, rights)
        ],
        dtype=object,
    )


def _comb_digits(exponents: bytes, width: int, teeth: int, spacing: int):
    """``out[t, i]``: bits ``t, t + spacing, …, t + (teeth − 1)·spacing`` of
    the ``i``-th ``width``-byte little-endian exponent in ``exponents``, as
    one ``uint16`` digit (bits past ``8·width`` read as zero).  Items are
    unpacked a block at a time: no bit matrix of the whole batch."""
    count = len(exponents) // width
    items = np.frombuffer(exponents, np.uint8).reshape(count, width)
    span = teeth * spacing
    weights = (1 << np.arange(teeth)).astype(np.uint16)
    out = np.empty((spacing, count), np.uint16)
    for block in row_blocks(count, span):
        bits = np.unpackbits(items[block], axis=1, count=span, bitorder="little")
        bits = bits.reshape(-1, teeth, spacing)
        out[:, block] = np.einsum("irt,r->ti", bits, weights)
    return out


def comb_pow_batch(
    rows: Sequence[np.ndarray], modulus, exponents: bytes, width: int, spacing: int
) -> list[int]:
    """Fixed-base powers of ``width``-byte little-endian exponents (back to
    back in ``exponents``) from a Lim–Lee comb, one column at a time.

    ``rows[j]`` is a 1-D object ndarray whose entry ``u`` is
    ``base^(Σ_r u_r · 2^(r·spacing + j·rounds))`` on the active backend's
    native type, ``rounds = ⌈spacing / len(rows)⌉`` (see
    :class:`~repro.crypto.numtheory.FixedBaseTable`).  Column ``t = j·rounds
    + k`` multiplies every item by ``rows[j][digit t]``, and each round
    ``k`` (from ``rounds − 1`` down) opens with a squaring.  A column is one
    C-level gather ``rows[j][digits[t]]`` and in-place ``np.multiply`` /
    ``np.remainder`` passes over the batch's accumulator array.
    """
    if len(exponents) % width:
        raise ValueError(f"exponents must be {width} bytes apiece")
    rounds = -(-spacing // len(rows))
    digits = _comb_digits(exponents, width, len(rows[0]).bit_length() - 1, spacing)
    modulus = np.array(modulus, dtype=object)  # 0-d: no per-pass conversion
    acc = None
    for k in range(rounds - 1, -1, -1):
        for t in range(k, spacing, rounds):
            column = rows[t // rounds][digits[t]]
            if acc is None:  # the first column: plain lookups
                acc = column
                continue
            if t == k:  # a later round opens with its squaring
                acc *= acc
                acc %= modulus
            acc *= column
            acc %= modulus
    return [int(a) for a in acc]


#: Bases per Straus group: each group precomputes ``2^G − 1`` subset
#: products, and every exponent bit costs one lookup-multiply per group.
_STRAUS_GROUP = 4


def multi_powmod(
    bases: Sequence[int], exponents: Sequence[int], modulus: int
) -> int:
    """``∏ bases[i]**exponents[i] mod modulus`` by Straus interleaving.

    One shared squaring chain over the longest exponent replaces the per-
    base square-and-multiply: for ``n`` bases of ``B``-bit exponents the
    cost drops from ``n·B`` squarings to ``B`` squarings plus at most
    ``B·⌈n/4⌉`` table multiplies — the threshold share-combination shape,
    where every partial decryption carries a ``Δ``-sized Lagrange
    exponent.  Negative exponents are handled by batch-inverting the
    affected bases up front (one inversion total, Montgomery trick).
    """
    if len(bases) != len(exponents):
        raise ValueError("multi_powmod needs equally many bases and exponents")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    reduced = [b % modulus for b in bases]
    negative = [i for i, e in enumerate(exponents) if e < 0]
    if negative:
        inverted = invert_batch([reduced[i] for i in negative], modulus)
        for slot, i in enumerate(negative):
            reduced[i] = inverted[slot]
        exponents = [abs(e) for e in exponents]
    backend = _ACTIVE
    m = backend.to_native(modulus)
    pairs = [
        (backend.to_native(b), int(e))
        for b, e in zip(reduced, exponents)
        if e != 0
    ]
    if not pairs:
        return 1 % modulus
    one = backend.to_native(1)
    groups = []
    for start in range(0, len(pairs), _STRAUS_GROUP):
        chunk = pairs[start : start + _STRAUS_GROUP]
        table = [one] * (1 << len(chunk))
        for bit, (base, _) in enumerate(chunk):
            step = 1 << bit
            for idx in range(step, step << 1):
                table[idx] = table[idx - step] * base % m
        groups.append((table, [e for _, e in chunk]))
    result = one
    for bit in range(max(e.bit_length() for _, e in pairs) - 1, -1, -1):
        result = result * result % m
        for table, exps in groups:
            idx = 0
            for pos, e in enumerate(exps):
                if (e >> bit) & 1:
                    idx |= 1 << pos
            if idx:
                result = result * table[idx] % m
    return int(result % m)
