"""Tests for non-interactive threshold decryption."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    bigint,
    combine_partial_decryptions,
    combine_partial_decryptions_batch,
    damgard_jurik,
    decrypt,
    encrypt,
    encrypt_batch,
    generate_keypair,
    generate_threshold_keypair,
    homomorphic_add,
    partial_decrypt,
    ThresholdContext,
)
from repro.crypto.numtheory import modinv
from repro.crypto.shamir import lagrange_at_zero
from repro.crypto.threshold import combine_subset, subset_combination


def _delta_form_combine(context, partials):
    """Shoup's combination with Δ-sized exponents ``2·Δ·L_i`` and the
    constant ``(4Δ²)⁻¹``, as the combiner read before it sized its
    exponents from the share subset: the oracle for every subset."""
    indices = sorted(partials)
    coefficients = lagrange_at_zero(indices, context.delta)
    public = context.public
    combined = bigint.multi_powmod(
        [partials[i] for i in indices],
        [2 * coefficients[i] for i in indices],
        public.n_s1,
    )
    raw = damgard_jurik.dlog_1_plus_n(public, combined)
    return raw * modinv(4 * context.delta**2, public.n_s) % public.n_s


class TestThresholdDecryption:
    def test_exact_threshold(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        c = encrypt(tk.public, 424242, rng=crypto_rng)
        partials = {
            s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[:3]
        }
        assert combine_partial_decryptions(tk.context, partials) == 424242

    def test_any_share_subset(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        c = encrypt(tk.public, 777, rng=crypto_rng)
        for picks in ([0, 4, 8], [1, 2, 3], [2, 5, 7]):
            partials = {
                tk.shares[i].index: partial_decrypt(tk.context, tk.shares[i], c)
                for i in picks
            }
            assert combine_partial_decryptions(tk.context, partials) == 777

    def test_extra_shares_ignored(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        c = encrypt(tk.public, 31337, rng=crypto_rng)
        partials = {
            s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[:5]
        }
        assert combine_partial_decryptions(tk.context, partials) == 31337

    def test_below_threshold_raises(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        c = encrypt(tk.public, 1, rng=crypto_rng)
        partials = {
            s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[:2]
        }
        with pytest.raises(ValueError):
            combine_partial_decryptions(tk.context, partials)

    def test_matches_plain_private_key(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        c = encrypt(tk.public, 2024, rng=crypto_rng)
        assert decrypt(tk.private, c) == 2024

    def test_homomorphic_then_threshold(self, threshold_keypair, crypto_rng):
        """The Chiaroscuro pattern: aggregate first, threshold-decrypt after."""
        tk = threshold_keypair
        total = 0
        c = encrypt(tk.public, 0, rng=crypto_rng)
        for value in (10, 200, 3000, 40000):
            total += value
            c = homomorphic_add(
                tk.public, c, encrypt(tk.public, value, rng=crypto_rng)
            )
        partials = {
            s.index: partial_decrypt(tk.context, s, c) for s in tk.shares[3:6]
        }
        assert combine_partial_decryptions(tk.context, partials) == total

    def test_s2_threshold(self, threshold_keypair_s2, crypto_rng):
        tk = threshold_keypair_s2
        value = 2**300 + 99
        c = encrypt(tk.public, value, rng=crypto_rng)
        partials = {
            s.index: partial_decrypt(tk.context, s, c)
            for s in (tk.shares[0], tk.shares[10], tk.shares[23])
        }
        assert combine_partial_decryptions(tk.context, partials) == value

    @settings(max_examples=10, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2**64), seed=st.integers(0, 2**31))
    def test_threshold_roundtrip_property(self, threshold_keypair, value, seed):
        tk = threshold_keypair
        rng = random.Random(seed)
        c = encrypt(tk.public, value, rng=rng)
        picked = rng.sample(tk.shares, tk.context.threshold)
        partials = {s.index: partial_decrypt(tk.context, s, c) for s in picked}
        assert combine_partial_decryptions(tk.context, partials) == value


class TestSubsetSizedCombination:
    """The combiner clears Lagrange denominators with the subset's ``D_S``
    instead of ``Δ``: the same plaintexts from far shorter exponents."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_subset_matches_the_delta_form(self, data):
        n_shares = data.draw(st.integers(1, 20), label="l")
        threshold = data.draw(st.integers(1, n_shares), label="tau")
        subset = data.draw(
            st.lists(
                st.integers(1, n_shares), min_size=threshold, unique=True
            ),
            label="S",
        )
        s = data.draw(st.sampled_from([1, 2]), label="s")
        rng = random.Random(data.draw(st.integers(0, 2**31), label="seed"))
        tk = generate_threshold_keypair(128, n_shares, threshold, s, rng=rng)
        value = data.draw(st.integers(0, tk.public.n_s - 1), label="plaintext")
        c = encrypt(tk.public, value, rng=rng)
        partials = {
            i: partial_decrypt(tk.context, tk.shares[i - 1], c) for i in subset
        }
        first = {i: partials[i] for i in sorted(subset)[:threshold]}
        assert combine_partial_decryptions(tk.context, partials) == value
        assert _delta_form_combine(tk.context, first) == value
        everything = {i: [p] for i, p in partials.items()}
        assert combine_subset(tk.context, everything) == [value]
        assert _delta_form_combine(tk.context, partials) == value

    def test_tau_100(self):
        """The paper's τ = 100 (0.01 % of 10⁶ participants), every share."""
        rng = random.Random(100)
        tk = generate_threshold_keypair(256, 100, 100, rng=rng)
        values = [tk.public.n_s - 1, rng.randrange(tk.public.n_s)]
        cts = [encrypt(tk.public, v, rng=rng) for v in values]
        partials = {
            s.index: [partial_decrypt(tk.context, s, c) for c in cts]
            for s in tk.shares
        }
        assert combine_partial_decryptions_batch(tk.context, partials) == values
        for j, value in enumerate(values):
            column = {i: partials[i][j] for i in partials}
            assert _delta_form_combine(tk.context, column) == value

    @pytest.mark.parametrize("tau", [1, 2, 3, 16, 50, 100])
    def test_first_shares_combine_with_binomial_exponents(
        self, threshold_keypair, tau
    ):
        """For ``S = {1..τ}`` the ``L_i`` are signed binomials, ``D_S = 1``:
        the largest exponent is ``2·C(τ, ⌊τ/2⌋)`` at most, where the Δ form
        carried ``log₂ τ!`` bits more."""
        public = threshold_keypair.public
        context = ThresholdContext(public=public, n_shares=tau, threshold=tau)
        exponents, constant = subset_combination(context, list(range(1, tau + 1)))
        largest = max(abs(e) for e in exponents).bit_length()
        assert largest <= math.comb(tau, tau // 2).bit_length() + 2
        assert constant == modinv(4 * context.delta, public.n_s)


class TestBatchCombination:
    """The fused batch combiner used by the vectorized-crypto plane."""

    def _column_partials(self, tk, ciphertexts, shares):
        return {
            s.index: [partial_decrypt(tk.context, s, c) for c in ciphertexts]
            for s in shares
        }

    def test_batch_matches_scalar_map(self, threshold_keypair, crypto_rng):
        """Bit-identical to mapping the scalar combiner over the batch —
        the Montgomery batch inversion is an optimization, not a change."""
        tk = threshold_keypair
        values = [0, 1, 31337, 2**40 + 5, tk.public.n_s - 1]
        cts = [encrypt(tk.public, v, rng=crypto_rng) for v in values]
        partials = self._column_partials(tk, cts, tk.shares[:3])
        batch = combine_partial_decryptions_batch(tk.context, partials)
        assert batch == values
        scalar = [
            combine_partial_decryptions(
                tk.context, {i: column[j] for i, column in partials.items()}
            )
            for j in range(len(cts))
        ]
        assert batch == scalar

    def test_extra_shares_ignored(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        cts = [encrypt(tk.public, v, rng=crypto_rng) for v in (7, 8)]
        partials = self._column_partials(tk, cts, tk.shares[:5])
        assert combine_partial_decryptions_batch(tk.context, partials) == [7, 8]

    def test_below_threshold_raises(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        cts = [encrypt(tk.public, 9, rng=crypto_rng)]
        partials = self._column_partials(tk, cts, tk.shares[:2])
        with pytest.raises(ValueError, match="distinct partial"):
            combine_partial_decryptions_batch(tk.context, partials)

    def test_misaligned_columns_raise(self, threshold_keypair, crypto_rng):
        tk = threshold_keypair
        cts = [encrypt(tk.public, v, rng=crypto_rng) for v in (1, 2)]
        partials = self._column_partials(tk, cts, tk.shares[:3])
        partials[tk.shares[0].index].pop()
        with pytest.raises(ValueError, match="equally long"):
            combine_partial_decryptions_batch(tk.context, partials)

    def test_empty_batch(self, threshold_keypair):
        tk = threshold_keypair
        partials = {s.index: [] for s in tk.shares[:3]}
        assert combine_partial_decryptions_batch(tk.context, partials) == []


class TestKeyDealing:
    def test_context_parameters(self, threshold_keypair):
        ctx = threshold_keypair.context
        assert ctx.n_shares == 9
        assert ctx.threshold == 3
        import math

        assert ctx.delta == math.factorial(9)

    def test_share_indices_unique(self, threshold_keypair):
        indices = [s.index for s in threshold_keypair.shares]
        assert len(set(indices)) == len(indices)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            generate_threshold_keypair(
                256, n_shares=3, threshold=5, rng=random.Random(0)
            )


class TestOneDealer:
    """``generate_threshold_keypair`` shares the key ``generate_keypair``
    deals: same primes, same plain key, same checks."""

    @pytest.mark.parametrize(
        "bits, s", [(128, 1), (256, 2), (512, 2), (96, 2)],
        ids=["fixture-128", "fixture-256", "fixture-512", "drawn-96"],
    )
    def test_the_plain_key_is_the_threshold_keys_private(self, bits, s):
        """96 bits has no fixture: both draw their primes from the rng."""
        plain = generate_keypair(bits, s, rng=random.Random(11))
        dealt = generate_threshold_keypair(bits, 1, 1, s, rng=random.Random(11))
        assert dealt.private == plain

    @pytest.mark.parametrize("deal", [
        lambda rng: generate_keypair(96, rng=rng),
        lambda rng: generate_threshold_keypair(96, 3, 2, rng=rng),
    ], ids=["plain", "threshold"])
    def test_equal_primes_are_refused(self, monkeypatch, deal):
        prime = damgard_jurik.random_safe_prime(48, random.Random(2))
        monkeypatch.setattr(
            damgard_jurik, "random_safe_prime", lambda bits, rng: prime
        )
        with pytest.raises(ValueError, match="must differ"):
            deal(random.Random(0))

    @pytest.mark.parametrize("call", [
        lambda tk: generate_keypair(128),
        lambda tk: generate_threshold_keypair(128, 3, 2),
        lambda tk: encrypt(tk.public, 1),
        lambda tk: encrypt_batch(tk.public, [1]),
    ], ids=["generate_keypair", "generate_threshold_keypair", "encrypt",
            "encrypt_batch"])
    def test_randomness_is_always_injected(self, threshold_keypair, call):
        with pytest.raises(TypeError, match="rng"):
            call(threshold_keypair)
