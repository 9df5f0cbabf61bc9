"""Number-theoretic primitives for the Damgård–Jurik cryptosystem.

Everything here operates on plain Python integers (arbitrary precision),
which is what the paper's Java ``BigInteger`` implementation used.  The
module provides:

* Miller–Rabin probabilistic primality testing,
* random prime and *safe prime* generation (``p = 2q + 1`` with ``q`` prime),
* modular inverse / CRT helpers,
* :class:`FixedBaseTable` — Lim–Lee comb fixed-base modular
  exponentiation, the amortization primitive behind the batched encryption
  plane (the randomizer base is fixed for a whole protocol run, so its
  comb is precomputed once and every randomizer afterwards costs about
  ``bits/h`` multiplications and a few squarings instead of a full
  square-and-multiply modexp), sized by :func:`comb_shape`,
* a fixture table of pre-generated safe primes so that tests and benchmarks
  can build 256-bit to 1024-bit keys instantly (generating 512-bit safe
  primes from scratch in pure Python takes minutes and adds nothing to the
  reproduction -- the paper likewise fixes a single 1024-bit key).
"""

from __future__ import annotations

import random

import numpy as np

from . import bigint

__all__ = [
    "FixedBaseTable",
    "comb_shape",
    "is_probable_prime",
    "random_safe_prime",
    "fixture_safe_primes",
    "modinv",
    "crt_pair",
    "lcm",
]


#: Most residues a comb may hold (``blocks · 2^teeth``): twice the 8-bit
#: byte-digit table it replaced, ≈ 1.6 MB of 512-bit residues.
_COMB_MAX_ENTRIES = 1 << 14

#: A modular squaring's cost in modular products: CPython squares with half
#: the digit products, then reduces at full price (0.88 measured at a
#: 512-bit modulus, 0.83 at 2048 bits).
_SQUARING_COST = 0.88


def _comb_layout(exponent_bits: int, teeth: int, blocks: int) -> tuple[int, int, int]:
    """``(spacing, rounds, blocks)``: bits per exponent row, bits per block,
    and how many blocks a row fills (never more than asked for)."""
    spacing = -(-exponent_bits // teeth)
    rounds = -(-spacing // blocks)
    return spacing, rounds, -(-spacing // rounds)


def comb_shape(exponent_bits: int, uses: int) -> tuple[int, int]:
    """The comb ``(teeth, blocks)`` of at most :data:`_COMB_MAX_ENTRIES`
    residues that minimises build + ``uses`` × per-use cost, in products.

    Building costs ``blocks·(2^teeth − teeth − 1)`` products and the
    ``(teeth − 1)·spacing + (blocks − 1)·rounds`` squarings that reach the
    generators; a use costs ``spacing − 1`` products and ``rounds − 1``
    squarings.  0 uses get ``(1, 1)``, no table; thousands of 256-bit
    exponents get ``(11, 8)``."""

    def cost(shape: tuple[int, int]) -> float:
        spacing, rounds, blocks = _comb_layout(exponent_bits, *shape)
        teeth = shape[0]
        squarings = (teeth - 1) * spacing + (blocks - 1) * rounds
        build = blocks * ((1 << teeth) - teeth - 1) + _SQUARING_COST * squarings
        return build + uses * (spacing - 1 + _SQUARING_COST * (rounds - 1))

    # A shape whose last blocks stay empty costs what its trimmed twin
    # costs and comes after it, so ``min`` never returns it.
    return min(
        (
            (teeth, blocks)
            for teeth in range(1, _COMB_MAX_ENTRIES.bit_length())
            for blocks in range(
                1, min(-(-exponent_bits // teeth), _COMB_MAX_ENTRIES >> teeth) + 1
            )
        ),
        key=cost,
    )


class FixedBaseTable:
    """Lim–Lee comb fixed-base exponentiation (Lim & Lee, "More flexible
    exponentiation with precomputation", CRYPTO '94): ``base^e mod modulus``
    for ``0 ≤ e < 2^max_exponent_bits``, a whole number of bytes.

    A comb of shape ``(teeth, blocks)`` reads an exponent as ``teeth`` rows
    of ``spacing`` bits, each cut into ``blocks`` blocks of ``rounds`` bits
    (:func:`_comb_layout`; blocks a row does not fill are not built).  The
    bits at offset ``t`` of every row form a ``teeth``-bit digit ``u``, and
    row ``j`` of the table (the block holding ``t``) stores
    ``base^(Σ_r u_r·2^(r·spacing + j·rounds))``, the identity at ``u = 0``.
    An exponentiation costs ``spacing − 1`` products and ``rounds − 1``
    squarings; the table holds ``blocks·2^teeth ≤ 2^14`` residues, sized by
    :func:`comb_shape` from how many exponentiations it will serve.
    :meth:`pow_batch`, the hot path, evaluates a batch column-wise by
    :func:`~repro.crypto.bigint.comb_pow_batch`.
    """

    __slots__ = (
        "base",
        "modulus",
        "shape",
        "spacing",
        "max_exponent_bits",
        "_rows",
        "_native",
    )

    #: Process-wide count of native-row (re)builds — the expensive part of
    #: table construction.  Tests pin that this does not scale with the
    #: number of batches a worker serves (a table is built/warmed once per
    #: process, then reused for every round).
    native_builds: int = 0

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: int,
        shape: tuple[int, int] = (8, 4),
    ) -> None:
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if max_exponent_bits < 8 or max_exponent_bits % 8:
            raise ValueError("max_exponent_bits must be a positive multiple of 8")
        teeth, blocks = shape
        if teeth < 1 or blocks < 1 or blocks << teeth > _COMB_MAX_ENTRIES:
            raise ValueError(
                f"shape must be >= (1, 1) with <= {_COMB_MAX_ENTRIES} entries"
            )
        spacing, rounds, blocks = _comb_layout(max_exponent_bits, teeth, blocks)
        self.base = base % modulus
        self.modulus = modulus
        self.shape = (teeth, blocks)
        self.spacing = spacing
        self.max_exponent_bits = max_exponent_bits
        # Build on the active bigint backend's native representation and
        # keep both forms: plain ints for pickling/serialization, native
        # values (one object ndarray per row, the comb's gather source) as
        # the evaluation cache.
        mod_native = bigint.to_native(modulus)
        powers = [bigint.to_native(self.base)]  # base^(2^p)
        for _ in range((teeth - 1) * spacing + (blocks - 1) * rounds):
            powers.append(powers[-1] * powers[-1] % mod_native)
        native_rows: list[list] = []
        for j in range(blocks):
            row = [bigint.to_native(1)]
            for r in range(teeth):
                g = powers[r * spacing + j * rounds]
                row += [g] + [v * g % mod_native for v in row[1:]]
            native_rows.append(row)
        self._rows = [[int(v) for v in row] for row in native_rows]
        self._native = (
            bigint.active_backend(),
            [np.array(row, dtype=object) for row in native_rows],
            mod_native,
        )
        FixedBaseTable.native_builds += 1

    def _native_rows(self) -> tuple[list[np.ndarray], object]:
        """The rows (1-D object ndarrays) and modulus on the *current*
        backend's native type.

        Rebuilt lazily when the process-global bigint backend changed since
        construction (or after unpickling, which drops the cache) — never
        per batch.
        """
        backend = bigint.active_backend()
        if self._native is None or self._native[0] != backend:
            self._native = (
                backend,
                [
                    np.array([bigint.to_native(v) for v in row], dtype=object)
                    for row in self._rows
                ],
                bigint.to_native(self.modulus),
            )
            FixedBaseTable.native_builds += 1
        return self._native[1], self._native[2]

    def warm(self) -> "FixedBaseTable":
        """Materialize the native-row cache for the *current* backend now.

        Pool workers call this from their initializer (after re-selecting
        the parent's bigint backend), hoisting the rebuild that unpickling
        otherwise defers into the first batch of every fresh worker.
        """
        self._native_rows()
        return self

    def __getstate__(self) -> dict:
        # The native cache may hold backend-specific types (mpz) and is
        # cheap to rebuild — ship only the plain-int table.
        return {
            "base": self.base,
            "modulus": self.modulus,
            "shape": self.shape,
            "spacing": self.spacing,
            "max_exponent_bits": self.max_exponent_bits,
            "_rows": self._rows,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._native = None

    def pow(self, exponent: int) -> int:
        """Return ``base^exponent mod modulus`` — a batch of one."""
        if exponent < 0 or exponent.bit_length() > self.max_exponent_bits:
            raise ValueError(f"exponent must be in [0, 2^{self.max_exponent_bits})")
        width = self.max_exponent_bits // 8
        return self.pow_batch(exponent.to_bytes(width, "little"))[0]

    def pow_batch(self, exponents: bytes) -> list[int]:
        """``base^e mod modulus`` for every ``max_exponent_bits / 8``-byte
        little-endian exponent serialized back to back in ``exponents``;
        the slot width is what bounds each exponent."""
        rows, modulus = self._native_rows()
        return bigint.comb_pow_batch(
            rows, modulus, exponents, self.max_exponent_bits // 8, self.spacing
        )


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_probable_prime(n: int, rounds: int = 40, *, rng: random.Random) -> bool:
    """Miller–Rabin primality test with ``rounds`` witnesses drawn from ``rng``.

    The error probability is at most ``4**-rounds`` for composite ``n``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = bigint.powmod(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_safe_prime(bits: int, rng: random.Random) -> int:
    """Return a random safe prime ``p = 2q + 1`` with exactly ``bits`` bits.

    Safe primes are what the threshold variant of Damgård–Jurik requires:
    with ``p = 2p' + 1`` and ``q = 2q' + 1``, the secret Shamir modulus is
    ``m = p'q'``.
    """
    if bits < 4:
        raise ValueError("a safe prime needs at least 4 bits")
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rounds=20, rng=rng):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rng=rng):
            return p


#: Pre-generated safe primes, keyed by bit length.  Generated offline with
#: Miller–Rabin (40 rounds); see module docstring for why they are embedded.
_SAFE_PRIME_FIXTURES: dict[int, list[int]] = {
    64: [
        14897046672217588199,
        14178776599924588307,
        15393115191447268427,
        10458455445404678879,
    ],
    96: [
        47222442388102515170836202243,
        52774362830454563031515189039,
        63052048229077480577613561203,
        40501624764932308242761781599,
    ],
    128: [
        220424696421893434127799946122096314987,
        267502274774597202767012973212828797343,
        312015602571053440305595457796093131603,
        219573957808944365996801560228304190167,
    ],
    192: [
        5880582777307843120827294707521675229618032528818619991027,
        5183435659490334833677538252601765234946777894394001448439,
        5964218080930234503322231867167178237274689845799549021199,
        6139320963126055734501916747027323957058262864354110080479,
    ],
    256: [
        82505111318128096585133210098176771300954997033852603878852767604005134515347,
        108739848806812124297295309339910808516749669551044951104906414744007422811567,
        67664754409348690685130775322563885554542438739014804579626224568851561366899,
        79673430306924749542037436427271180033053000468781939662773672416414905879787,
    ],
    512: [
        11534223474509878178987097692734071885360564624935332824811404002210801646364897441443711197338884711881052009160475476020935820788307623730764201346047267,
        7927998207352882824249442586803189286311041565802118953489440128849634142062420355273077544646157871902872725897297622145628779732506863906765926562273903,
        8902618841226777744087376015252960596822130929463558165775471057200643476867370673965452079050688822740064711760718600883759533800788613842821598646523739,
        11656412083879556716356238818586996911779792073617729316841015719806471236162925040777059926007461641726332683874769440713171951622638274026554998855224679,
    ],
    1024: [
        172566520780718927005566931585710880089337578227696480607696890652502743361241263182240830426828162270532966250711870154546205372931098797188652127426584609710909450244490412671178574054358952088250258855369066803107800256448243163616092280447618244260182715198635843336861211808552157596387038222975918621619,
        145380619645005229640558065143794950097440559009253440597082340632999731661573996636521820135332413068781392546932029428922968506437747871760044875334172310678622614187067119587378010600309699938473354747218828433455209147870097113396654664834610285578873233848139480940746720704957238369748632273889479506503,
        155297592070212356302711952057147281821703665806060163101546477196320723443014992996071791766240662623222305596630715003662443276680541317940740112566774159676643827071895730457717014072754595344522594118779040813555539893161556648108406607795712287283902195096275840602966000692135297130772353946857523339103,
        116570906493454959233032341422202108218388732780268301905856834774776051703224298991666006445033880552744938445299187543335263653234756814515622519734484961709028505163915790457359056521464713702296209945684451613675081648658672416642654802201184397099565603409554766431712583675687475752830000289341019212499,
    ],
}


def _register_fixtures(table: dict[int, list[int]]) -> None:
    for bits, primes in table.items():
        slot = _SAFE_PRIME_FIXTURES.setdefault(bits, [])
        for p in primes:
            if p not in slot:
                slot.append(p)


def fixture_safe_primes(bits: int, count: int = 2) -> list[int]:
    """Return ``count`` distinct pre-generated safe primes of ``bits`` bits.

    Raises ``KeyError`` if no fixture of that size exists (callers can fall
    back to :func:`random_safe_prime`).
    """
    primes = _SAFE_PRIME_FIXTURES.get(bits, [])
    if len(primes) < count:
        raise KeyError(
            f"no fixture with {count} safe primes of {bits} bits; "
            f"available sizes: {sorted(_SAFE_PRIME_FIXTURES)}"
        )
    return primes[:count]


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m`` (raises if not invertible).

    Routed through the pluggable :mod:`repro.crypto.bigint` kernel, so
    every existing call site inherits the gmpy2 fast path when selected.
    """
    return bigint.invert(a, m)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x ≡ r1 (mod m1)`` and ``x ≡ r2 (mod m2)`` for coprime moduli.

    Used to build the Damgård–Jurik decryption exponent ``d`` with
    ``d ≡ 0 (mod m)`` and ``d ≡ 1 (mod n^s)``.
    """
    g = gcd(m1, m2)
    if g != 1:
        raise ValueError("crt_pair requires coprime moduli")
    inv = modinv(m1 % m2, m2)
    x = r1 + m1 * ((r2 - r1) * inv % m2)
    return x % (m1 * m2)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (non-negative)."""
    while b:
        a, b = b, a % b
    return abs(a)


def lcm(a: int, b: int) -> int:
    """Least common multiple."""
    return a // gcd(a, b) * b
