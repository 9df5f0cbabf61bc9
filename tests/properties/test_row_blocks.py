"""Walking a matrix in row blocks changes where the bytes live, never a bit.

The array planes touch their ``population × dims`` state a cache-sized block
of rows at a time (:mod:`repro.blocks`).  Each blocked pass has a short
whole-matrix reference — the code it replaced — and must reproduce it bit
for bit, sign of zero and random-stream position included, wherever the
block boundaries happen to fall (a NaN's sign bit aside, which numpy's
add loops do not fix).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blocks import block_rows
from repro.core.computation import VectorizedComputationStep
from repro.core.noise import NoisePlan
from repro.gossip import VectorizedEESum, VectorizedGossipEngine
from repro.privacy import gen_noise_share


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# --------------------------------------------------------------------------
# Algorithm 2 exchanges


def _reference_exchange(values, omega, count, left, right):
    """The unblocked Alg. 2 batch: one gather per side, halve, scatter."""
    merged = (values[left] + values[right]) * 0.5
    values[left] = merged
    values[right] = merged
    weight = (omega[left] + omega[right]) * 0.5
    omega[left] = weight
    omega[right] = weight
    advanced = np.maximum(count[left], count[right]) + 1
    count[left] = advanced
    count[right] = advanced


@st.composite
def _pairings(draw):
    """``(dims, population, rounds of disjoint (left, right))`` with the pair
    count of the first round on or next to a block boundary.  20 000 dims is
    wider than a block, so there every block is a single row."""
    dims = draw(st.sampled_from([1, 3, 31, 211, 20_000]))
    block = block_rows(dims * 8)
    pairs = draw(
        st.sampled_from(
            sorted({0, 1, max(block - 1, 0), block, block + 1, 2 * block + 3})
        )
    )
    # Bystanders: an odd one out, and nodes churned away for the round.
    population = max(2, 2 * pairs + draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rounds = []
    for n_pairs in (pairs, draw(st.integers(0, population // 2)), pairs):
        order = rng.permutation(population)
        rounds.append((order[:n_pairs], order[n_pairs : 2 * n_pairs]))
    return dims, population, rng, rounds


@settings(max_examples=40, deadline=None)
@given(case=_pairings())
def test_blocked_exchange_is_the_whole_batch_exchange(case):
    dims, population, rng, rounds = case
    initial = rng.uniform(-40.0, 40.0, size=(population, dims))
    # Rows move as opaque byte blocks: NaN payloads, infinities (whose sum
    # is a NaN) and signed zeros must land exactly where the float
    # arithmetic puts them.  The sign of a NaN is not arithmetic: which
    # operand's payload NaN + NaN keeps depends on numpy's add loop (in
    # place or not, and the length), so NaNs are compared by position and
    # every other entry bit for bit.
    special = rng.random(initial.shape)
    initial[special < 0.2] = -0.0
    initial[(0.2 <= special) & (special < 0.23)] = np.nan
    initial[(0.23 <= special) & (special < 0.26)] = np.inf
    initial[(0.26 <= special) & (special < 0.29)] = -np.inf
    eesum = VectorizedEESum(initial)
    values, omega, count = initial.copy(), eesum.omega.copy(), eesum.count.copy()
    for left, right in rounds:
        with np.errstate(invalid="ignore"):  # inf + -inf
            eesum.exchange_pairs(left, right)
            _reference_exchange(values, omega, count, left, right)
        nan = np.isnan(values)
        assert np.array_equal(np.isnan(eesum.values), nan)
        assert np.array_equal(
            eesum.values.view(np.uint64)[~nan], values.view(np.uint64)[~nan]
        )
        assert _same_bits(eesum.omega, omega)
        assert np.array_equal(eesum.count, count)


@pytest.mark.parametrize(
    "layout",
    [
        np.asfortranarray,
        lambda m: np.concatenate([m, m], axis=1)[:, :3],
        lambda m: m[::2],
    ],
    ids=["fortran", "column-slice", "row-stride"],
)
def test_taking_ownership_of_a_strided_matrix_raises(layout):
    """Rows are copied as contiguous byte blocks, so ``copy=False`` refuses a
    matrix that is not C-contiguous rather than copying it silently; the
    default copy takes any layout."""
    matrix = layout(np.arange(24.0).reshape(8, 3))
    with pytest.raises(ValueError, match="C-contiguous"):
        VectorizedEESum(matrix, copy=False)
    eesum = VectorizedEESum(matrix)
    eesum.exchange_pairs(np.array([0]), np.array([1]))
    expected = np.array(matrix)
    expected[[0, 1]] = (matrix[0] + matrix[1]) * 0.5
    assert np.array_equal(eesum.values, expected)


def test_estimates_are_nan_exactly_where_no_weight_arrived():
    eesum = VectorizedEESum(np.arange(12.0).reshape(6, 2))
    eesum.exchange_pairs(np.array([0, 2]), np.array([1, 3]))
    expected = np.full((6, 2), np.nan)
    expected[:2] = eesum.values[:2] / 0.5
    assert np.array_equal(eesum.estimates(), expected, equal_nan=True)
    assert np.array_equal(
        eesum.estimates(np.array([4, 1])), expected[[4, 1]], equal_nan=True
    )


# --------------------------------------------------------------------------
# Noise-share draws


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(
        [(1, 2), (7, 3), (600, 31), (78, 211), (200, 211), (3, 20_000)]
    ),
    n_nu=st.sampled_from([1, 12, 50_000]),
    into_view=st.booleans(),
)
def test_blocked_draw_is_the_one_shot_draw(seed, shape, n_nu, into_view):
    """``draw_shares(rng, P, out=…)`` fills a buffer block by block with the
    matrix one ``(P, dims)`` Gamma-difference sample would give, and leaves
    the generator where that sample would."""
    count, dims = shape
    plan = NoisePlan(
        k=1, series_length=dims - 1, dmin=0.0, dmax=40.0, epsilon=0.7, n_nu=n_nu
    )
    one_shot_rng = np.random.default_rng(seed)
    one_shot = gen_noise_share(n_nu, plan.scale, one_shot_rng, size=shape)

    rng = np.random.default_rng(seed)
    if into_view:
        out = np.full((count, dims + 1), 7.0)[:, :dims]  # strided, like the payload
        shares = plan.draw_shares(rng, count, out=out)
        assert shares is out
    else:
        shares = plan.draw_shares(rng, count)
    assert shares.shape == shape
    assert _same_bits(shares, one_shot)
    assert rng.bit_generator.state == one_shot_rng.bit_generator.state


# --------------------------------------------------------------------------
# The staged payload


class _PayloadSpy(VectorizedComputationStep):
    """Keeps a copy of the staged buffer the carrier is handed."""

    def _aggregate(self, payload):
        self.staged = payload.copy()
        return super()._aggregate(payload)


def _dense_payload(plan, noise_rng, labels, series):
    """Algorithm 3's staging as it was first written: the dense one-hot
    ``population × dims`` means matrix, quantized, plus the quantized
    shares."""
    population, n = series.shape
    stride = n + 1
    mean_matrix = np.zeros((population, plan.dimensions))
    for node, label in enumerate(labels):
        mean_matrix[node, label * stride : label * stride + n] = series[node]
        mean_matrix[node, label * stride + n] = 1.0
    shares = gen_noise_share(
        plan.n_nu, plan.scale, noise_rng, size=(population, plan.dimensions)
    )
    scale = float(1 << plan.fractional_bits)
    body = np.round(mean_matrix * scale)
    body += np.round(shares * scale)
    body /= scale
    return np.concatenate([body, np.ones((population, 1))], axis=1)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    population=st.sampled_from([2, 9, 700]),  # 700 × 30 × 8 B: two blocks
    epsilon=st.sampled_from([5.0, 1e9]),
)
def test_staged_payload_is_the_dense_formula(seed, population, epsilon):
    """Shares are staged first and the means added on top — yet a share that
    rounds to −0.0 must come out as the dense formula leaves it: ``+0.0``
    under a ``+0.0`` mean, ``−0.0`` only under a mean that is ``−0.0``
    too."""
    k, n = 10, 2
    data_rng = np.random.default_rng(seed)
    labels = data_rng.integers(0, k, size=population)
    series = data_rng.choice(
        [-0.0, 0.0, -1e-9, 1e-9, -2.0**-25, 3.25, -7.5, 39.999], size=(population, n)
    )
    # ε = 1e9 makes the Laplace scale ~1e-7: shares far below the 2^-24 grid.
    plan = NoisePlan(
        k=k, series_length=n, dmin=-40.0, dmax=40.0, epsilon=epsilon, n_nu=3
    )
    expected = _dense_payload(plan, np.random.default_rng(seed), labels, series)
    if epsilon > 5.0:
        zeros = expected[:, :-1] == 0
        assume(np.signbit(expected[:, :-1][zeros]).any())
        assume(not np.signbit(expected[:, :-1][zeros]).all())

    noise_rng = np.random.default_rng(seed)
    step = _PayloadSpy(
        noise_plan=plan, exchanges=1, threshold=1, noise_rng=noise_rng,
    )
    step.run(VectorizedGossipEngine(population, seed=seed % 1000), labels, series)
    assert _same_bits(step.staged, expected)
