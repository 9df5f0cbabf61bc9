"""Chiaroscuro initialization parameters (Tables 1 and 2).

Every participating device downloads these from the bootstrap server at
initialization time (footnote 4 of the paper).  Defaults mirror Table 2's
experimental values wherever the paper fixes one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .smoothing import derive_sma_window

__all__ = ["ChiaroscuroParams"]


@dataclass(frozen=True)
class ChiaroscuroParams:
    """The full parameter sheet of Table 1, with Table 2 defaults.

    k-means block: ``k`` initial centroids, convergence threshold ``theta``
    (mean squared centroid displacement), and the ``n_it^max`` cap that
    guarantees termination (Sec. 4.2.4).

    Epidemic block: the exchange count ``n_e`` required for the epidemic
    sums to converge (derivable from :class:`repro.privacy.GossipPrivacyPlan`).

    Crypto/privacy block: key size, key-share threshold ``tau`` (fraction of
    the population), privacy level ``epsilon`` (Table 2 uses ln 2 ≈ 0.69),
    and the noise-share count ``n_nu`` as a fraction of the population
    (Table 2: 100%).

    Execution block (implementation, not paper): ``crypto_backend`` selects
    how ciphertext batches are evaluated (``"serial"`` in-process or
    ``"process"`` over a worker pool with ``backend_workers`` processes,
    0 = one per CPU); ``bigint_backend`` selects the modular-arithmetic
    kernel (``"auto"`` | ``"python"`` | ``"gmpy2"``, see
    :mod:`repro.crypto.bigint` — ``"auto"`` keeps the process's active
    kernel, which the ``REPRO_BIGINT_BACKEND`` env var seeds at import
    time, defaulting to gmpy2-if-installed).  Backend choice — execution
    *and* bigint — is fully result-neutral (bit-identical runs for the same
    seed).

    Not on this sheet, because each is named once elsewhere: the simulation
    substrate (``ChiaroscuroRun(plane=)`` / ``RunSpec.plane``), the budget
    strategy (``RunSpec.strategy``), and the probabilistic-relaxation δ,
    which only :class:`repro.privacy.GossipPrivacyPlan` computes with.
    """

    # k-means
    k: int = 50
    theta: float = 1e-3
    max_iterations: int = 10

    # epidemic
    exchanges: int = 30

    # crypto / privacy
    key_bits: int = 1024
    expansion_s: int = 1
    tau_fraction: float = 0.0001  # Table 2 realistic case: 0.01 %
    epsilon: float = 0.69
    noise_share_fraction: float = 1.0  # n_ν = 100 % of the population

    # quality heuristics (Sec. 5)
    floor_size: int = 4
    uf_iterations: int = 5
    smoothing_fraction: float = 0.2  # SMA window = 20 % of series length
    use_smoothing: bool = True

    # execution (batched crypto plane)
    crypto_backend: str = "serial"
    backend_workers: int = 0  # 0 = one worker per CPU
    bigint_backend: str = "auto"  # modular-arithmetic kernel (crypto.bigint)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be > 1 (Sec. 2.1 requires 1 < k < t)")
        if self.theta < 0:
            raise ValueError("theta must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.exchanges < 1:
            raise ValueError("exchanges must be >= 1")
        if not 0 < self.tau_fraction <= 1:
            raise ValueError("tau_fraction must be in (0, 1]")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.noise_share_fraction <= 1:
            raise ValueError("noise_share_fraction must be in (0, 1]")
        if not 0 <= self.smoothing_fraction < 1:
            raise ValueError("smoothing_fraction must be in [0, 1)")
        if self.crypto_backend not in ("serial", "process"):
            raise ValueError("crypto_backend must be 'serial' or 'process'")
        if self.bigint_backend not in ("auto", "python", "gmpy2"):
            raise ValueError(
                "bigint_backend must be 'auto', 'python' or 'gmpy2'"
            )
        if self.backend_workers < 0:
            raise ValueError("backend_workers must be >= 0 (0 = one per CPU)")

    def tau_count(self, population: int) -> int:
        """Absolute key-share threshold τ for a given population size."""
        return max(1, round(self.tau_fraction * population))

    def noise_share_count(self, population: int) -> int:
        """The ``n_ν`` parameter — the assumed number of noise-shares."""
        return max(1, round(self.noise_share_fraction * population))

    def smoothing_window(self, series_length: int) -> int:
        """SMA window size ``w`` (even, so the ±w/2 span is symmetric)."""
        return derive_sma_window(series_length, self.smoothing_fraction)

    def smoothing_plan(self, series_length: int) -> tuple[int, bool]:
        """``(window, applies)`` for a series length — the one gate every
        plane uses: window ``0`` when ``use_smoothing`` is off, and smoothing
        applies only when ``0 < window < n``."""
        window = self.smoothing_window(series_length) if self.use_smoothing else 0
        return window, 0 < window < series_length
