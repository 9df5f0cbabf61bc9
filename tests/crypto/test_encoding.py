"""Tests for the signed fixed-point codec and the packed-slot codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import FixedPointCodec, PackedCodec


class TestRoundTrip:
    def test_positive(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(3.25)) == pytest.approx(3.25)

    def test_negative(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(-7.125)) == pytest.approx(-7.125)

    def test_zero(self, keypair128):
        codec = FixedPointCodec(keypair128.public)
        assert codec.decode(codec.encode(0.0)) == 0.0

    def test_resolution(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=32)
        value = 0.123456789
        assert codec.decode(codec.encode(value)) == pytest.approx(value, abs=2**-31)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_roundtrip_property(self, keypair128, value):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(value)) == pytest.approx(value, abs=2**-23)


class TestAdditivity:
    def test_sum_of_encodings(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        pub = keypair128.public
        total = (codec.encode(-3.5) + codec.encode(1.25) + codec.encode(10.0)) % pub.n_s
        assert codec.decode(total) == pytest.approx(7.75)

    def test_extra_shift_delayed_division(self, keypair128):
        """Decoding after the EESum 2^j scaling divides back correctly."""
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        pub = keypair128.public
        scaled = codec.encode(-5.5) * 16 % pub.n_s
        assert codec.decode(scaled, extra_shift=4) == pytest.approx(-5.5)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        b=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    def test_additivity_property(self, keypair128, a, b):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        total = (codec.encode(a) + codec.encode(b)) % keypair128.public.n_s
        assert codec.decode(total) == pytest.approx(a + b, abs=2**-22)


class TestCapacity:
    def test_s2_extends_capacity(self, keypair128, keypair_s2):
        """The refusal names its remedies, and the expansion ``s`` is one:
        a slot the s=1 plaintext cannot hold plans at s=2."""
        sizing = dict(
            fractional_bits=48, max_abs_value=1e9, exchanges=200
        )
        with pytest.raises(ValueError, match="key size or the expansion s"):
            PackedCodec.plan(keypair128.public, **sizing)
        assert PackedCodec.plan(keypair_s2.public, **sizing).slots == 1


@pytest.fixture()
def packed(keypair128):
    """16 fractional bits, values < 2^8, room for a 2^12 coefficient mass."""
    return PackedCodec(
        keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=12
    )


class TestPackedRoundTrip:
    def test_exact_on_grid(self, packed):
        """Values on the fixed-point grid round-trip exactly — not approximately."""
        values = [1.5, -2.25, 100.0, -127.875, 0.0, 42.0625]
        assert packed.unpack(packed.pack(values), len(values)) == values

    def test_multiple_plaintexts(self, packed):
        values = [float(i) - 20.0 for i in range(3 * packed.slots + 1)]
        plaintexts = packed.pack(values)
        assert len(plaintexts) == packed.packed_length(len(values)) == 4
        assert packed.unpack(plaintexts, len(values)) == values

    def test_empty(self, packed):
        assert packed.pack([]) == []
        assert packed.unpack([], 0) == []

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-255.0, max_value=255.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, keypair128, values):
        codec = PackedCodec(
            keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=12
        )
        grid = [round(v * codec.scale) / codec.scale for v in values]
        assert codec.unpack(codec.pack(grid), len(grid)) == grid

    def test_value_exceeding_slot_raises(self, packed):
        with pytest.raises(ValueError, match="slot capacity"):
            packed.pack([300.0])  # |f| = 300·2^16 ≥ 2^24

    def test_too_few_plaintexts_rejected(self, packed):
        plaintexts = packed.pack([1.0] * (packed.slots + 1))
        with pytest.raises(ValueError, match="not enough plaintexts"):
            packed.unpack(plaintexts[:1], packed.slots + 1)

    def test_unpack_integers_exact(self, packed):
        values = [3.5, -3.5]
        ints = packed.unpack_integers(packed.pack(values), 2)
        assert ints == [round(3.5 * packed.scale), -round(3.5 * packed.scale)]


def _scalar_pack(codec, values):
    """The pre-matrix reference: one value at a time, Python ``round``."""
    packed, current, filled = [], 0, 0
    for value in values:
        fixed = round(float(value) * codec.scale)
        assert abs(fixed) < codec.bias
        current |= (fixed + codec.bias) << (filled * codec.slot_bits)
        filled += 1
        if filled == codec.slots:
            packed.append(current)
            current, filled = 0, 0
    if filled:
        for slot in range(filled, codec.slots):
            current |= codec.bias << (slot * codec.slot_bits)
        packed.append(current)
    return packed


class TestPackedMatrix:
    """``pack(matrix)`` — one numpy quantization pass, stripes assembled
    column-wise — is bit-identical to packing row by row, value by value."""

    @pytest.mark.parametrize("extra", [-1, 0, 1])  # ragged / exact / padded
    def test_matrix_equals_rowwise_scalar_reference(self, packed, extra):
        rng = np.random.default_rng(extra + 7)
        matrix = rng.uniform(-255.9, 255.9, size=(11, 2 * packed.slots + extra))
        matrix[0] = np.round(matrix[0] * 4) / 4 + 0.5 / packed.scale  # exact ties
        matrix[1, :] = -0.0
        rows = packed.pack(matrix)
        assert rows == [_scalar_pack(packed, row) for row in matrix]
        assert rows == [packed.pack(row) for row in matrix]
        assert rows == [packed.pack(list(row)) for row in matrix]
        assert all(type(p) is int for row in rows for p in row)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.lists(
                st.floats(min_value=-255.99, max_value=255.99, allow_nan=False),
                min_size=5,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matrix_property(self, keypair128, values):
        codec = PackedCodec(
            keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=100
        )  # 2 slots per plaintext: 5 values → a padded third stripe
        assert codec.pack(np.array(values)) == [
            _scalar_pack(codec, row) for row in values
        ]

    def test_wide_slots_take_the_python_int_path(self, keypair128):
        codec = PackedCodec(
            keypair128.public, fractional_bits=24, value_bits=70, accumulation_bits=8
        )
        matrix = np.array([[2.0**45 + 0.5, -(2.0**45), 1.25, 0.0]])
        assert codec.pack(matrix) == [_scalar_pack(codec, matrix[0])]

    def test_empty_shapes(self, packed):
        assert packed.pack(np.empty((3, 0))) == [[], [], []]
        assert packed.pack(np.empty((0, 4))) == []

    @pytest.mark.parametrize("bad", [256.0, -256.0, float("nan"), float("inf")])
    def test_one_over_range_cell_rejects_the_whole_matrix(self, packed, bad):
        matrix = np.zeros((4, 3))
        matrix[2, 1] = bad
        with pytest.raises(ValueError, match="slot capacity"):
            packed.pack(matrix)
        assert packed.pack(np.full((1, 1), 255.99))  # just inside still packs


class TestPackedAccumulation:
    def test_homomorphic_sum_with_bias_multiplier(self, packed):
        """Plaintext-level additivity: slot-wise sums decode exactly once the
        accumulated bias mass is subtracted."""
        n_s = packed.public.n_s
        a = packed.pack([1.25, -7.5, 3.0])
        b = packed.pack([-0.75, 2.5, 40.0])
        summed = [(x + y) % n_s for x, y in zip(a, b)]
        assert packed.unpack(summed, 3, bias_multiplier=2) == [0.5, -5.0, 43.0]

    def test_scaled_sum_matches_scalar_codec(self, packed, keypair128):
        """EESum-style coefficients: 4·x + 2·y decodes identically on both
        codecs (same signed fixed-point integer)."""
        scalar = FixedPointCodec(keypair128.public, fractional_bits=16)
        n_s = keypair128.public.n_s
        x, y = -3.125, 10.5
        packed_sum = [
            (4 * p + 2 * q) % n_s
            for p, q in zip(packed.pack([x]), packed.pack([y]))
        ]
        scalar_sum = (4 * scalar.encode(x) + 2 * scalar.encode(y)) % n_s
        assert packed.unpack(packed_sum, 1, bias_multiplier=6) == [
            scalar.decode(scalar_sum)
        ]

    def test_overflowing_mass_detected(self, packed):
        """The decode-time soundness gate refuses an unsound unpack."""
        plaintexts = packed.pack([1.0])
        with pytest.raises(ValueError, match="coefficient mass"):
            packed.unpack(plaintexts, 1, bias_multiplier=1 << 13)

    def test_gate_sits_exactly_at_the_slot_capacity(self, keypair128):
        """With the EESum total ``C = 2^count`` the gate's quantity is
        ``2·B·terms·2^count``: at equality with ``2^slot_bits`` the extreme
        slots still decode exactly; one more doubling must raise."""
        codec = PackedCodec(
            keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=9
        )
        terms, count = 2, 8
        assert 2 * codec.bias * terms << count == 1 << codec.slot_bits
        extremes = [codec.bias - 1, 1 - codec.bias, 0]
        packed_once = codec.pack([f / codec.scale for f in extremes])
        summed = [terms * (p << count) for p in packed_once]
        assert codec.unpack_integers(
            summed, 3, bias_multiplier=terms << count
        ) == [terms * (f << count) for f in extremes]
        with pytest.raises(ValueError, match="coefficient mass"):
            codec.unpack_integers(
                [2 * p for p in summed], 3, bias_multiplier=terms << (count + 1)
            )

    def test_extra_shift(self, packed):
        n_s = packed.public.n_s
        scaled = [(p * 8) % n_s for p in packed.pack([-5.5])]
        assert packed.unpack(scaled, 1, bias_multiplier=8, extra_shift=3) == [-5.5]


class TestPackedPlanning:
    def test_plan_fits_capacity(self, keypair128):
        codec = PackedCodec.plan(
            keypair128.public,
            fractional_bits=16,
            max_abs_value=100.0,
            exchanges=36,  # 2^36 ≥ 50 contributors × 2^30
        )
        assert codec.slots >= 1
        # planned accumulation covers the declared coefficient mass
        assert 2 * codec.bias * (1 << 36) <= 1 << codec.slot_bits

    def test_plan_rejects_impossible(self, keypair128):
        with pytest.raises(ValueError, match="plaintext space too small"):
            PackedCodec.plan(
                keypair128.public,
                fractional_bits=16,
                max_abs_value=100.0,
                exchanges=420,  # 2^420 ≥ 10⁶ contributors × 2^400
            )

    def test_packs_several_slots_at_modest_accumulation(self, keypair128):
        codec = PackedCodec.plan(
            keypair128.public,
            fractional_bits=16,
            max_abs_value=100.0,
            exchanges=1,
        )
        assert codec.slots >= 4  # a 255-bit plaintext carries several slots

    def test_invalid_parameters(self, keypair128):
        with pytest.raises(ValueError):
            PackedCodec(keypair128.public, fractional_bits=16, value_bits=10)
        with pytest.raises(ValueError):
            PackedCodec(
                keypair128.public,
                fractional_bits=16,
                value_bits=200,
                accumulation_bits=100,
            )  # slot wider than the plaintext


class TestQuantizeToGrid:
    """quantize_to_grid is the grid contract between the mock-homomorphic
    plane and the real codec: it must equal encode→decode elementwise."""

    def test_matches_codec_roundtrip(self, keypair128):
        import numpy as np

        from repro.crypto import FixedPointCodec, quantize_to_grid

        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        rng = np.random.default_rng(5)
        values = rng.uniform(-50.0, 50.0, size=200)
        gridded = quantize_to_grid(values, 24)
        roundtripped = np.array([codec.decode(codec.encode(v)) for v in values])
        assert np.array_equal(gridded, roundtripped)
