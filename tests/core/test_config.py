"""Tests pinning the Table 1/2 parameter sheet."""

import pytest

from repro.core import ChiaroscuroParams


class TestTable2Defaults:
    def test_defaults_mirror_table2(self):
        params = ChiaroscuroParams()
        assert params.k == 50
        assert params.key_bits == 1024
        assert params.epsilon == 0.69  # ln 2
        assert params.noise_share_fraction == 1.0  # n_ν = 100 %
        assert params.exchanges == 30  # n_e
        assert params.max_iterations == 10
        assert params.floor_size == 4
        assert params.uf_iterations == 5
        assert params.smoothing_fraction == 0.2  # SMA 20 %

    def test_tau_range_matches_table(self):
        """Table 2: τ ∈ [0.001 %, 10 %]; default realistic case 0.01 %."""
        params = ChiaroscuroParams()
        assert params.tau_fraction == pytest.approx(1e-4)
        assert params.tau_count(10**6) == 100  # the paper's "100 participants"

    def test_tau_count_floor(self):
        assert ChiaroscuroParams(tau_fraction=1e-4).tau_count(100) == 1

    def test_noise_share_count(self):
        assert ChiaroscuroParams().noise_share_count(1234) == 1234
        assert ChiaroscuroParams(noise_share_fraction=0.5).noise_share_count(1000) == 500

    def test_smoothing_window(self):
        params = ChiaroscuroParams()
        assert params.smoothing_window(24) == 4  # round(4.8) = 5 → even 4
        assert params.smoothing_window(20) == 4
        assert params.smoothing_window(2) == 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"theta": -1.0},
            {"max_iterations": 0},
            {"exchanges": 0},
            {"tau_fraction": 0.0},
            {"tau_fraction": 1.5},
            {"epsilon": 0.0},
            {"noise_share_fraction": 0.0},
            {"smoothing_fraction": 1.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ChiaroscuroParams(**kwargs)
