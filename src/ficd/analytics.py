"""Closed-form oracles, distribution distances, bound checks, and benchmarks.

Everything here is either an independent ground truth (conjugate
posteriors, tilted mixtures, sliced Wasserstein) or a measurement
harness over sampling runs (phase profiles, bound reports, timing
tables). Oracles are pure functions; reports are plain dataclasses that
state pass or fail per assertion.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from ficd.guidance import Condition, EnergyFunction, QuadraticEnergy
from ficd.posterior import (
    PosteriorPartStrategy,
    cramer_rao_bound,
    fisher_information,
    strategy_name,
)
from ficd.sampler import RunTrace, sample, step
from ficd.schedule import NoiseSchedule, alpha_bar, check_step, middle_third
from ficd.scoremodel import GaussianMixture, mixture_logpdf

__all__ = [
    "GaussianPosterior",
    "linear_gaussian_posterior",
    "tilted_gmm_oracle",
    "sliced_wasserstein",
    "BoundReport",
    "bound_verification",
    "phase_profile",
    "deviation_bound",
    "DeviationReport",
    "deviation_bound_check",
    "BenchmarkRow",
    "BenchmarkTable",
    "benchmark_steps",
    "write_csv",
    "TRACE_COLUMNS",
    "trace_to_csv",
    "samples_to_csv",
]


@dataclass(frozen=True)
class GaussianPosterior:
    """Exact Gaussian posterior: mean and SPD covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        np.linalg.cholesky(cov)  # raises if not positive-definite
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


def linear_gaussian_posterior(
    prior_mean, prior_cov, A, y, noise_var: float
) -> GaussianPosterior:
    """Conjugate posterior for y = A x + noise with isotropic noise.

    covariance = (prior_cov^-1 + A^T A / noise_var)^-1 and
    mean = covariance (prior_cov^-1 prior_mean + A^T y / noise_var).
    """
    mu0 = np.asarray(prior_mean, dtype=np.float64)
    sigma0 = np.asarray(prior_cov, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    prec0 = np.linalg.inv(sigma0)
    precision = prec0 + A.T @ A / noise_var
    covariance = np.linalg.inv(precision)
    covariance = 0.5 * (covariance + covariance.T)
    mean = covariance @ (prec0 @ mu0 + A.T @ y / noise_var)
    return GaussianPosterior(mean=mean, covariance=covariance)


def tilted_gmm_oracle(gmm: GaussianMixture, c, lam: float) -> GaussianMixture:
    """The mixture proportional to p(x) exp(-lam ||x - c||^2), in closed form.

    Each component keeps Gaussian form with precision prec_i + 2 lam I
    and mean solved from prec_i mu_i + 2 lam c; weights are scaled by
    the component evidence N(mu_i; c, cov_i + I / (2 lam)), the
    ``mixture_logpdf`` of a one-component mixture, and re-normalized.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0:
        return gmm
    c = np.asarray(c, dtype=np.float64)
    d = gmm.d
    if c.shape != (d,):
        raise ValueError(f"c has shape {c.shape}, expected ({d},)")
    new_means = np.empty_like(gmm.means)
    new_covs = np.empty_like(gmm.covariances)
    log_evidence = np.empty(gmm.K)
    eye = np.eye(d)
    for i in range(gmm.K):
        prec = np.linalg.inv(gmm.covariances[i])
        tilted_prec = prec + 2.0 * lam * eye
        cov = np.linalg.inv(tilted_prec)
        new_covs[i] = 0.5 * (cov + cov.T)
        new_means[i] = new_covs[i] @ (prec @ gmm.means[i] + 2.0 * lam * c)
        evidence_cov = gmm.covariances[i] + eye / (2.0 * lam)
        evidence = GaussianMixture(weights=[1.0], means=c, covariances=evidence_cov)
        log_evidence[i : i + 1] = mixture_logpdf(evidence, gmm.means[i : i + 1])
    log_w = np.log(np.maximum(gmm.weights, 1e-300)) + log_evidence
    log_w -= log_w.max()
    w = np.exp(log_w)
    return GaussianMixture(weights=w / w.sum(), means=new_means, covariances=new_covs)


def sliced_wasserstein(samples_a, samples_b, n_projections: int = 64, seed: int = 0) -> float:
    """Mean 1-d Wasserstein-1 distance over seeded random unit directions."""
    a = np.atleast_2d(np.asarray(samples_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(samples_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("sample sets must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must share a dimension")
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_projections, a.shape[1]))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    total = 0.0
    for u in directions:
        total += _wasserstein_1d(a @ u, b @ u)
    return total / n_projections


def _wasserstein_1d(u: np.ndarray, v: np.ndarray) -> float:
    """W1 between the empirical distributions of two 1-d samples: the
    integral of |U - V| between successive pooled values, with the bits of
    scipy 1.17's ``scipy.stats.wasserstein_distance(u, v)``."""
    pooled = np.concatenate((u, v))
    pooled.sort(kind="mergesort")
    deltas = np.diff(pooled)
    u_cdf = np.sort(u).searchsorted(pooled[:-1], "right") / u.size
    v_cdf = np.sort(v).searchsorted(pooled[:-1], "right") / v.size
    # scipy takes np.vecdot here; for two float64 vectors np.dot calls the
    # same BLAS ddot, and it exists on numpy 1.x too.
    return np.dot(np.abs(u_cdf - v_cdf), deltas)


# --- Fisher bound verification -----------------------------------------


@dataclass
class BoundReport:
    """Spectral radius of the score Jacobian versus 1 / (1 - alpha_bar_t)."""

    t: np.ndarray
    spectral_radius: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray

    @property
    def within(self) -> np.ndarray:
        return self.spectral_radius <= self.bound

    @property
    def pass_rate(self) -> float:
        return float(np.mean(self.within))

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.within))


def bound_verification(model, schedule: NoiseSchedule, x_grid, t_set) -> BoundReport:
    """Checks spectral_radius(I(x_t)) against the information ceiling per
    (x, t), with one ``fisher_information`` call on the whole grid per t."""
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=np.float64))
    t_set = [int(t) for t in t_set]
    n = len(x_grid)
    bounds = np.repeat([cramer_rao_bound(schedule, t) for t in t_set], n)
    radii = np.ravel([fisher_information(model, x_grid, t).spectral_radius for t in t_set])
    return BoundReport(
        t=np.repeat(np.array(t_set, dtype=np.int64), n),
        spectral_radius=radii,
        bound=bounds,
        ratio=radii / bounds,
    )


# --- phase profile -----------------------------------------------------


def phase_profile(trace: RunTrace) -> tuple[float, float, float]:
    """Mean conditional-gradient norm over the early, middle, and late
    thirds of the step range (early = largest t)."""
    if trace.t.size == 0:
        raise ValueError("trace is empty")
    lo, hi = middle_third(int(trace.t.max()))
    early = trace.t > hi
    late = trace.t < lo
    mid = ~early & ~late
    if not (early.any() and mid.any() and late.any()):
        raise ValueError("trace is too short for three phases; it needs at least 3 steps")
    return (
        float(np.mean(trace.grad_norm[early])),
        float(np.mean(trace.grad_norm[mid])),
        float(np.mean(trace.grad_norm[late])),
    )


# --- strategy-gap check ------------------------------------------------


# Relative rounding allowance of the ceiling comparison: a unit-norm
# gradient meets the ceiling exactly, up to floating-point rounding.
_DEVIATION_RTOL = 1e-12


def deviation_bound(rho: float, kappa: float, schedule: NoiseSchedule, t: int) -> float:
    """Sharp step-t ceiling on the FICD/MPGD state gap:
    rho * kappa * (2 / sqrt(abar_t) - sqrt(abar_{t-1})).

    From the same state, noise, score and g = lam * grad E(x0_hat), the
    two steps differ only in the scalar pullback, so the gap is rho times
    the coefficient difference times |g|; kappa bounds |g|. The claimed
    coefficients are written out here rather than read from
    posterior_coefficient, so that a wrong coefficient there shows as a
    gap above this ceiling instead of moving the ceiling with it.
    """
    check_step(schedule, t)
    abar, abar_prev = alpha_bar(schedule, t), alpha_bar(schedule, t - 1)
    return rho * kappa * (2.0 / math.sqrt(abar) - math.sqrt(abar_prev))


@dataclass
class DeviationReport:
    """Lock-stepped FICD versus MPGD one-step gaps against the sharp
    ceiling of deviation_bound; a step passes at or below the ceiling,
    with a 1e-12 relative allowance for rounding."""

    t: np.ndarray
    max_gap: np.ndarray
    bound: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.max_gap <= self.bound * (1.0 + _DEVIATION_RTOL)

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passed))

    def offending_steps(self) -> list[int]:
        return [int(t) for t in self.t[~self.passed]]


def deviation_bound_check(
    model,
    energy: EnergyFunction,
    c: Condition,
    rho: float,
    n_chains: int = 64,
    seed: int = 0,
    kappa: float = 1.0,
) -> DeviationReport:
    """Steps FICD and MPGD from shared states with shared noise at every t.

    The carrier trajectory advances with the FICD result; at each step
    the MPGD result is computed from the identical pre-step state, and
    the largest per-chain gap is compared against the ceiling
    deviation_bound(rho, kappa, ...). Both steps run with lam = 1, so
    the ceiling holds where |grad E(x0_hat)| <= kappa.
    """
    schedule: NoiseSchedule = model.schedule
    T = schedule.T
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_chains, model.dim))
    ts, gaps, bounds = [], [], []
    for t in range(T, 0, -1):
        noise = rng.standard_normal(x.shape) if t > 1 else np.zeros_like(x)
        x_f, _ = step(PosteriorPartStrategy.FICD, model, energy, x, t, c, rho, 1.0, noise)
        x_m, _ = step(PosteriorPartStrategy.MPGD, model, energy, x, t, c, rho, 1.0, noise)
        ts.append(t)
        gaps.append(float(np.linalg.norm(x_f - x_m, axis=1).max()))
        bounds.append(deviation_bound(rho, kappa, schedule, t))
        x = x_f
    return DeviationReport(
        t=np.asarray(ts, dtype=np.int64),
        max_gap=np.asarray(gaps),
        bound=np.asarray(bounds),
    )


# --- benchmarks --------------------------------------------------------


@dataclass
class BenchmarkRow:
    strategy: str
    median_run_s: float
    median_step_s: float


@dataclass
class BenchmarkTable:
    rows: list[BenchmarkRow]
    T: int
    n_chains: int
    repetitions: int

    def row(self, strategy: str) -> BenchmarkRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise KeyError(strategy)

    def to_text(self) -> str:
        lines = [
            f"benchmark: T={self.T} chains={self.n_chains}"
            f" repetitions={self.repetitions} (medians, warm-up discarded)",
            f"{'strategy':<10} {'run_s':>10} {'step_s':>12}",
        ]
        for r in self.rows:
            lines.append(f"{r.strategy:<10} {r.median_run_s:>10.4f} {r.median_step_s:>12.6f}")
        return "\n".join(lines)


def benchmark_steps(
    model,
    configs,
    repetitions: int = 20,
    energy: EnergyFunction | None = None,
    condition: Condition | None = None,
) -> BenchmarkTable:
    """Median wall times, one row per SamplerConfig.

    Each config, with every setting it carries, gets one discarded
    warm-up run and ``repetitions`` (at least 1) timed runs of the full
    sampler. The configs must share one n_chains.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    configs = list(configs)
    if len({config.n_chains for config in configs}) != 1:
        raise ValueError("configs must be non-empty and share one n_chains")
    if energy is None:
        energy = QuadraticEnergy()
    if condition is None:
        condition = Condition.target(np.zeros(model.dim))
    rows = []
    for config in configs:
        run_times, step_times = [], []
        for rep in range(repetitions + 1):
            started = time.perf_counter()
            _, trace = sample(config, model, energy, condition)
            elapsed = time.perf_counter() - started
            if rep == 0:
                continue  # warm-up
            run_times.append(elapsed)
            step_times.append(float(np.median(trace.step_wall_time_s)))
        rows.append(
            BenchmarkRow(
                strategy=strategy_name(config.strategy),
                median_run_s=float(np.median(run_times)),
                median_step_s=float(np.median(step_times)),
            )
        )
    return BenchmarkTable(rows, model.schedule.T, configs[0].n_chains, repetitions)


# --- CSV formats -------------------------------------------------------


def write_csv(path, header, rows) -> None:
    """The one CSV dialect ficd writes: comma-separated, CRLF line ends,
    each value as str (repr for a Python float). No value needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


TRACE_COLUMNS = ["t", "grad_norm", "step_wall_time_s", "newly_flagged"]


def trace_to_csv(trace: RunTrace, path) -> None:
    """Writes one row per executed step, in the TRACE_COLUMNS order."""
    write_csv(path, TRACE_COLUMNS, zip(*(getattr(trace, name).tolist() for name in TRACE_COLUMNS)))


_CSV_BLOCK_ROWS = 1024


def samples_to_csv(samples: np.ndarray, path) -> None:
    """Writes chain_id plus one dim_j column per coordinate."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    header = ["chain_id"] + [f"dim_{j}" for j in range(samples.shape[1])]
    # tolist() turns a block into Python floats in one C-level pass; one
    # block at a time keeps those lists to about 0.6 MB at d = 16.
    starts = range(0, len(samples), _CSV_BLOCK_ROWS)
    blocks = (samples[s : s + _CSV_BLOCK_ROWS].tolist() for s in starts)
    rows = ([i, *row] for i, row in enumerate(itertools.chain.from_iterable(blocks)))
    write_csv(path, header, rows)
