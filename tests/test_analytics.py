"""Oracle, metric, report, and CSV tests for the analytics module."""

import csv
import dataclasses
import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, wasserstein_distance

from call_counts import recorded_calls
from ficd import analytics
from ficd.analytics import (
    TRACE_COLUMNS,
    BenchmarkTable,
    GaussianPosterior,
    benchmark_steps,
    bound_verification,
    deviation_bound,
    deviation_bound_check,
    linear_gaussian_posterior,
    phase_profile,
    samples_to_csv,
    sliced_wasserstein,
    tilted_gmm_oracle,
    trace_to_csv,
    write_csv,
)
from ficd.guidance import Condition, DistanceEnergy, EnergyFunction, QuadraticEnergy
from ficd.posterior import PosteriorPartStrategy
from ficd.sampler import RunTrace, SamplerConfig, sample
from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    LearnedScoreModel,
    NetSpec,
    mixture_logpdf,
)


class ZeroEnergy(EnergyFunction):
    def value(self, x, c):
        x = np.asarray(x)
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])

    def grad(self, x, c):
        return np.zeros_like(np.asarray(x, dtype=np.float64))


def grid_2d(lim=8.0, n=401):
    axis = np.linspace(-lim, lim, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    cell = (axis[1] - axis[0]) ** 2
    return pts, cell


# --- conjugate posterior -----------------------------------------------


def test_identity_measurement_posterior():
    post = linear_gaussian_posterior(
        np.zeros(2), np.eye(2), np.eye(2), np.array([1.0, 1.0]), 1.0
    )
    assert np.allclose(post.mean, [0.5, 0.5], rtol=1e-12)
    assert np.allclose(post.covariance, 0.5 * np.eye(2), rtol=1e-12)


def test_uninformative_measurement_returns_prior():
    mu0 = np.array([0.3, -0.7])
    sigma0 = np.array([[1.0, 0.2], [0.2, 0.5]])
    post = linear_gaussian_posterior(mu0, sigma0, np.eye(2), np.ones(2), np.inf)
    assert np.allclose(post.mean, mu0, atol=1e-10)
    assert np.allclose(post.covariance, sigma0, atol=1e-10)
    post0 = linear_gaussian_posterior(mu0, sigma0, np.zeros((2, 2)), np.ones(2), 1.0)
    assert np.allclose(post0.mean, mu0, atol=1e-10)
    assert np.allclose(post0.covariance, sigma0, atol=1e-10)


def test_posterior_matches_grid_integration():
    mu0 = np.array([0.3, -0.2])
    sigma0 = np.array([[1.0, 0.3], [0.3, 0.8]])
    A = np.array([[1.0, 0.0], [0.5, 1.0]])
    y = np.array([0.7, -0.4])
    noise_var = 0.5
    post = linear_gaussian_posterior(mu0, sigma0, A, y, noise_var)

    pts, cell = grid_2d()
    prior = GaussianMixture(np.array([1.0]), mu0[None, :], sigma0[None, :, :])
    log_prior = mixture_logpdf(prior, pts)
    resid = pts @ A.T - y
    log_lik = -0.5 * np.sum(resid**2, axis=1) / noise_var
    w = np.exp(log_prior + log_lik - np.max(log_prior + log_lik))
    w /= w.sum()
    grid_mean = w @ pts
    assert np.all(np.abs(grid_mean - post.mean) < 1e-3)


def test_posterior_validation():
    with pytest.raises(ValueError):
        linear_gaussian_posterior(np.zeros(2), np.eye(2), np.eye(2), np.ones(2), 0.0)
    with pytest.raises(ValueError):
        GaussianPosterior(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))


# --- tilted mixture ----------------------------------------------------


def test_tilt_zero_strength_is_identity():
    gmm = GaussianMixture.isotropic([0.4, 0.6], [[-1.0, 0.0], [2.0, 1.0]], [0.5, 1.5])
    assert tilted_gmm_oracle(gmm, np.zeros(2), 0.0) is gmm


def test_tilt_single_standard_normal():
    gmm = GaussianMixture.isotropic([1.0], [[0.0]], [1.0])
    tilted = tilted_gmm_oracle(gmm, np.zeros(1), 0.5)
    assert np.allclose(tilted.means, 0.0, atol=1e-14)
    assert np.allclose(tilted.covariances, 0.5, rtol=1e-12)
    assert np.allclose(tilted.weights, [1.0])


def test_tilt_strong_pulls_means_to_anchor():
    gmm = GaussianMixture.isotropic([0.5, 0.5], [[-2.0, 1.0], [3.0, 0.0]], [0.7, 1.2])
    c = np.array([0.4, -0.6])
    tilted = tilted_gmm_oracle(gmm, c, 1e8)
    assert np.allclose(tilted.means, c, atol=1e-6)


def test_tilt_matches_grid_normalization():
    gmm = GaussianMixture.isotropic([0.35, 0.65], [[-1.5, 0.5], [1.0, -1.0]], [0.6, 0.9])
    c = np.array([0.5, -0.5])
    lam = 0.3
    tilted = tilted_gmm_oracle(gmm, c, lam)

    pts, cell = grid_2d()
    base = np.exp(mixture_logpdf(gmm, pts))
    tilt = base * np.exp(-lam * np.sum((pts - c) ** 2, axis=1))
    tilt /= tilt.sum() * cell
    oracle = np.exp(mixture_logpdf(tilted, pts))
    tv = 0.5 * np.sum(np.abs(tilt - oracle)) * cell
    assert tv < 1e-3, tv
    assert np.isclose(tilted.weights.sum(), 1.0, rtol=1e-12)


def test_tilt_weights_match_scipy_evidence_on_dense_covariances():
    # The oracle's log evidence comes from mixture_logpdf; scipy's density
    # is the independent reference (worst seen over 2,000 draws: 1.5e-13).
    rng = np.random.default_rng(47)
    d, lam = 4, 0.5
    A = rng.normal(size=(3, d, d))
    covs = A @ np.swapaxes(A, 1, 2) + 0.3 * np.eye(d)
    gmm = GaussianMixture(
        weights=rng.dirichlet(np.ones(3)),
        means=rng.normal(size=(3, d)) * 1.5,
        covariances=0.5 * (covs + np.swapaxes(covs, 1, 2)),
    )
    c = rng.normal(size=d)
    log_w = np.log(gmm.weights) + [
        multivariate_normal.logpdf(mu, mean=c, cov=cov + np.eye(d) / (2.0 * lam))
        for mu, cov in zip(gmm.means, gmm.covariances)
    ]
    w = np.exp(log_w - log_w.max())
    np.testing.assert_allclose(tilted_gmm_oracle(gmm, c, lam).weights, w / w.sum(), rtol=1e-12)


def test_tilt_rejects_negative_strength():
    gmm = GaussianMixture.isotropic([1.0], [[0.0]], [1.0])
    with pytest.raises(ValueError):
        tilted_gmm_oracle(gmm, np.zeros(1), -0.1)


# --- sliced Wasserstein ------------------------------------------------


def test_sw_identical_sets_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 3))
    assert sliced_wasserstein(a, a.copy(), n_projections=16, seed=1) == 0.0


def test_sw_shifted_point_masses():
    a = np.array([[0.0]])
    b = np.array([[1.0]])
    assert np.isclose(sliced_wasserstein(a, b, n_projections=8, seed=0), 1.0, rtol=1e-12)


def test_sw_same_gaussian_draws_small():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5000, 2))
    b = rng.standard_normal((5000, 2))
    assert sliced_wasserstein(a, b, n_projections=64, seed=2) < 0.05


def test_sw_symmetric_and_validates():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 2))
    b = rng.standard_normal((80, 2)) + 1.0
    assert sliced_wasserstein(a, b, seed=4) == sliced_wasserstein(b, a, seed=4)
    with pytest.raises(ValueError):
        sliced_wasserstein(np.empty((0, 2)), b)
    with pytest.raises(ValueError):
        sliced_wasserstein(a, rng.standard_normal((10, 3)))


# A small pool makes ties likely; nan, the infinities and +-1e308 (whose
# differences overflow) reach the nan and inf paths of the integral.
W1_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf, 1e308, -1e308]),
    st.floats(min_value=-1e6, max_value=1e6),
)


# The copy repeats scipy 1.17's operations; older releases sum the
# integral with other operations, so their bits may differ.
SCIPY_MINOR = tuple(int(p) for p in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(
    SCIPY_MINOR < (1, 17),
    reason="bit equality holds against scipy >= 1.17's wasserstein_distance",
)
@settings(max_examples=300, deadline=None)
@given(
    u=st.lists(W1_VALUES, min_size=1, max_size=40),
    v=st.lists(W1_VALUES, min_size=1, max_size=25),
)
def test_w1_has_the_bits_of_scipy(u, v):
    u, v = np.array(u), np.array(v)
    with np.errstate(invalid="ignore", over="ignore"):
        got = analytics._wasserstein_1d(u, v)
        want = wasserstein_distance(u, v)
    assert np.array_equal(got, want, equal_nan=True), (got, want)


# --- Fisher bound reports ----------------------------------------------


def test_bound_report_single_gaussian_all_pass():
    T = 50
    sched = linear_schedule(T)
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), sched
    )
    grid = np.array([[0.0, 0.0], [1.0, -1.0], [3.0, 2.0]])
    ts = [1, 10, 25, 40, 50]
    report = bound_verification(model, sched, grid, ts)
    assert report.all_pass
    assert report.t.size == len(ts) * grid.shape[0]
    # ratio is 1 - alpha_bar_t for unit prior variance, largest at t = T
    abars = sched.alpha_bars
    expected = {t: 1.0 - abars[t - 1] for t in ts}
    for t in ts:
        got = report.ratio[report.t == t]
        assert np.allclose(got, expected[t], rtol=1e-9)
    assert report.ratio.max() == pytest.approx(1.0 - abars[T - 1], rel=1e-9)


def test_bound_report_tiny_variance_saturates():
    T = 30
    sched = linear_schedule(T)
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0]], [1e-8]), sched
    )
    report = bound_verification(model, sched, np.array([[0.0]]), [1, 15, 30])
    assert report.all_pass
    assert np.all(report.ratio > 0.999)


def test_bound_report_mixture_records_violations():
    T = 40
    sched = linear_schedule(T)
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([0.5, 0.5], [[-5.0, 0.0], [5.0, 0.0]], [0.25, 0.25]),
        sched,
    )
    grid = np.array([[0.0, 0.0], [-5.0, 0.0], [5.0, 0.0], [2.0, 0.0]])
    report = bound_verification(model, sched, grid, [10, 20, 30])
    assert report.t.size == 12
    assert np.all(np.isfinite(report.ratio))
    # Between well-separated modes the mixture curvature exceeds the
    # single-Gaussian ceiling, so violations are recorded, not asserted.
    assert not report.all_pass
    assert 0.0 < report.pass_rate < 1.0


# --- phase profile -----------------------------------------------------


def constant_trace(T, value=1.0):
    n = T
    return RunTrace(
        t=np.arange(T, 0, -1, dtype=np.int64),
        grad_norm=np.full(n, value),
        step_wall_time_s=np.zeros(n),
        newly_flagged=np.zeros(n, dtype=np.int64),
        flagged_chains=np.empty(0, dtype=np.int64),
    )


def test_phase_profile_constant_trace():
    early, mid, late = phase_profile(constant_trace(30))
    assert early == mid == late == 1.0


def test_phase_profile_partition_is_exact():
    T = 31
    trace = constant_trace(T)
    hi = (2 * T) // 3
    lo = T // 3
    early = trace.t > hi
    late = trace.t <= lo
    mid = ~early & ~late
    counts = early.astype(int) + mid.astype(int) + late.astype(int)
    assert np.all(counts == 1)
    assert early.sum() > 0 and mid.sum() > 0 and late.sum() > 0


def test_phase_profile_peaked_trace():
    T = 90
    trace = constant_trace(T, value=0.5)
    mid_mask = (trace.t > T // 3) & (trace.t <= (2 * T) // 3)
    trace.grad_norm[mid_mask] = 3.0
    early, mid, late = phase_profile(trace)
    assert mid > early and mid > late


def test_phase_profile_simulated_runs():
    """The exact conditional gradient peaks mid-run when the condition
    sits at the saddle between two well-separated modes: early denoised
    means hug the origin, mid-run mode commitment raises the gradient,
    and late-run convergence to the condition kills it. The scalar
    substitute inflates the early phase instead."""
    T = 200
    sched = linear_schedule(T)
    covs = np.array([np.diag([0.25, 1.0]), np.diag([0.25, 1.0])])
    model = GaussianMixtureScore(
        GaussianMixture(
            np.array([0.5, 0.5]), np.array([[-1.5, 0.0], [1.5, 0.0]]), covs
        ),
        sched,
    )
    energy = QuadraticEnergy()
    c = Condition.target(np.array([0.0, 0.0]))
    _, exact_trace = sample(
        SamplerConfig(
            T=T, strategy=PosteriorPartStrategy.EXACT, rho=0.2, n_chains=256, seed=7
        ),
        model, energy, c,
    )
    early_e, mid_e, late_e = phase_profile(exact_trace)
    assert mid_e > early_e and mid_e > late_e, (early_e, mid_e, late_e)

    _, ficd_trace = sample(
        SamplerConfig(
            T=T, strategy=PosteriorPartStrategy.FICD, rho=0.2, n_chains=256, seed=7
        ),
        model, energy, c,
    )
    early_f, _, _ = phase_profile(ficd_trace)
    assert early_f > early_e


def test_phase_profile_rejects_empty():
    trace = constant_trace(5)
    trace.t = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError):
        phase_profile(trace)
    # Fewer than 3 steps leave a third empty; 3 steps fill one step each.
    for T in (1, 2):
        with pytest.raises(ValueError, match="three phases"):
            phase_profile(constant_trace(T))
    assert phase_profile(constant_trace(3)) == (1.0, 1.0, 1.0)


# --- strategy-gap reports ----------------------------------------------


def test_deviation_bound_formula():
    # alpha_bars 0.36, 0.25; at t = 2: 0.1 * 1 * (2 / sqrt(0.25) - sqrt(0.36)) = 0.1 * (4 - 0.6)
    schedule = NoiseSchedule(np.array([0.64, 1.0 - 0.25 / 0.36]))
    np.testing.assert_allclose(schedule.alpha_bars, [0.36, 0.25], rtol=1e-12)
    assert np.isclose(deviation_bound(0.1, 1.0, schedule, 2), 0.34, rtol=1e-12)


def test_deviation_check_zero_gradient_passes():
    T = 20
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), linear_schedule(T)
    )
    report = deviation_bound_check(
        model, ZeroEnergy(), Condition.target(np.zeros(2)), rho=0.1, n_chains=8
    )
    assert report.all_pass
    assert np.all(report.max_gap == 0.0)


def test_deviation_check_measures_scalar_gap_exactly():
    """With a unit-norm gradient the per-step gap is
    rho * (2 / sqrt(abar_t) - sqrt(abar_{t-1})): exactly the ceiling at
    kappa = 1, so that report passes, while kappa = 0.5 breaks the
    premise |g| <= kappa and every step is flagged."""
    T = 20
    sched = linear_schedule(T)
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), sched
    )
    rho = 0.2
    report = deviation_bound_check(
        model, DistanceEnergy(), Condition.target(np.array([30.0, 30.0])),
        rho=rho, n_chains=16, seed=3,
    )
    abars = sched.alpha_bars
    for i, t in enumerate(report.t):
        abar = abars[t - 1]
        abar_prev = 1.0 if t == 1 else abars[t - 2]
        predicted = rho * (2.0 / math.sqrt(abar) - math.sqrt(abar_prev))
        assert np.isclose(report.max_gap[i], predicted, rtol=1e-9), t
    assert report.all_pass
    halved = deviation_bound_check(
        model, DistanceEnergy(), Condition.target(np.array([30.0, 30.0])),
        rho=rho, n_chains=16, seed=3, kappa=0.5,
    )
    assert np.array_equal(halved.max_gap, report.max_gap)
    assert not halved.all_pass
    assert len(halved.offending_steps()) == T


# --- benchmarks --------------------------------------------------------


def test_benchmark_counts_and_table():
    T = 10
    sched = linear_schedule(T)
    rng_model = LearnedScoreModel.init(
        NetSpec(hidden_width=16, hidden_layers=3, time_embed_dim=8),
        sched, d=2, rng=np.random.default_rng(0),
    )
    configs = [
        SamplerConfig(T=T, strategy=s, rho=0.05, n_chains=32, seed=0)
        for s in (PosteriorPartStrategy.FICD, PosteriorPartStrategy.EXACT)
    ]
    table = benchmark_steps(rng_model, configs, repetitions=3)
    ficd = table.row("ficd")
    exact = table.row("exact")
    assert ficd.median_run_s > 0 and exact.median_run_s > 0
    assert ficd.median_step_s > 0 and exact.median_step_s > 0
    text = table.to_text()
    assert "ficd" in text and "exact" in text
    # What the timed configs cost, counted on untimed runs: one score call
    # per step, plus one score_vjp call for exact.
    energy, condition = QuadraticEnergy(), Condition.target(np.zeros(2))
    for config in configs:
        calls, expected, _ = recorded_calls(config, rng_model, energy, condition)
        assert calls == expected, config.strategy
    assert [method for method, _, _ in calls] == ["score", "score_vjp"] * T
    with pytest.raises(KeyError):
        table.row("nope")
    with pytest.raises(ValueError):
        benchmark_steps(
            rng_model, [SamplerConfig(T=T + 1, strategy=PosteriorPartStrategy.FICD, n_chains=4)]
        )


def test_benchmark_rows_share_one_chain_count():
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), linear_schedule(4)
    )
    with pytest.raises(ValueError, match="one n_chains"):
        benchmark_steps(model, [SamplerConfig(T=4, n_chains=n) for n in (2, 3)], repetitions=1)
    with pytest.raises(ValueError, match="non-empty"):
        benchmark_steps(model, [], repetitions=1)


def test_benchmark_needs_one_repetition():
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), linear_schedule(4)
    )
    for repetitions in (0, -1):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            benchmark_steps(model, [SamplerConfig(T=4, n_chains=2)], repetitions=repetitions)


# --- CSV formats -------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    T = 8
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), linear_schedule(T)
    )
    _, trace = sample(
        SamplerConfig(T=T, strategy=PosteriorPartStrategy.FICD, rho=0.1, n_chains=4, seed=2),
        model, QuadraticEnergy(), Condition.target(np.zeros(2)),
    )
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == TRACE_COLUMNS
    back = np.array(rows[1:], dtype=np.float64).T
    assert back.shape == (len(TRACE_COLUMNS), T)
    for name, column in zip(TRACE_COLUMNS, back):
        assert np.array_equal(column, getattr(trace, name), equal_nan=True), name


def test_samples_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((7, 3))
    path = tmp_path / "samples.csv"
    samples_to_csv(samples, path)
    header = path.read_text().splitlines()[0]
    assert header == "chain_id,dim_0,dim_1,dim_2"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], np.arange(7))
    assert np.array_equal(back[:, 1:], samples)


def _csv_writer_bytes(path, header, rows):
    """The bytes csv.writer writes for a header and rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_samples_csv_matches_the_csv_writer_bytes(tmp_path):
    # Every CSV is written in csv.writer's dialect, each float as
    # repr(float). Samples: nan, the infinities, -0.0, subnormals and a
    # row count that crosses the block size; a (N, 0) and a (0, d) batch.
    reference, path = tmp_path / "reference.csv", tmp_path / "written.csv"
    rng = np.random.default_rng(13)
    edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308]
    wide = rng.standard_normal((2050, 5)) * 10.0 ** rng.integers(-300, 300, size=(2050, 5))
    wide.flat[: len(edge)] = edge
    for samples in (wide, np.array(edge), np.empty((3, 0)), np.empty((0, 4))):
        rows = np.atleast_2d(samples)
        expected = _csv_writer_bytes(
            reference,
            ["chain_id"] + [f"dim_{j}" for j in range(rows.shape[1])],
            ([i] + [repr(float(v)) for v in row] for i, row in enumerate(rows)),
        )
        samples_to_csv(samples, path)
        assert path.read_bytes() == expected, samples.shape

    # Traces: an uncond run (nan grad_norm) and a time-travel run (repeated
    # t rows), with multi-digit counts in the int newly_flagged column.
    T = 12
    model = GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [1.0]), linear_schedule(T)
    )
    for strategy, repeats in ((None, 0), (PosteriorPartStrategy.FICD, 2)):
        config = SamplerConfig(
            T=T, strategy=strategy, rho=0.1, time_travel_repeats=repeats, n_chains=4, seed=3
        )
        _, trace = sample(config, model, QuadraticEnergy(), Condition.target(np.zeros(2)))
        trace = dataclasses.replace(trace, newly_flagged=7 * np.arange(trace.t.size))
        assert np.isnan(trace.grad_norm).all() == (strategy is None)
        assert (np.unique(trace.t).size < trace.t.size) == (repeats > 0)
        expected = _csv_writer_bytes(
            reference,
            TRACE_COLUMNS,
            (
                [int(t), repr(float(g)), repr(float(w)), int(f)]
                for t, g, w, f in zip(
                    trace.t, trace.grad_norm, trace.step_wall_time_s, trace.newly_flagged
                )
            ),
        )
        trace_to_csv(trace, path)
        assert path.read_bytes() == expected, strategy

    # A string column, as timing.csv has.
    rows = [("ficd", 0.125), ("exact", math.nan), ("mpgd", 1e-07)]
    expected = _csv_writer_bytes(
        reference, ["strategy", "median_run_s"], [(name, repr(v)) for name, v in rows]
    )
    write_csv(path, ["strategy", "median_run_s"], rows)
    assert path.read_bytes() == expected
