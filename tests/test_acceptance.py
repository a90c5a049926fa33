"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a single pass/fail line with its measured numbers, then
asserts. Criterion 4 checks the sharp one-step ceiling on the gap
between the two scalar guidance strategies,
rho * kappa * (2 / sqrt(alpha_bar_t) - sqrt(alpha_bar_prev)); a unit-norm
energy gradient meets it exactly, so it is checked at or below the
ceiling with a 1e-12 relative rounding allowance (see the matching
sampler property test).
"""

import time

import numpy as np
import pytest

from call_counts import recorded_calls
from cli_runs import sample_under_blas_threads
from ficd.analytics import (
    benchmark_steps,
    bound_verification,
    deviation_bound_check,
    phase_profile,
    sliced_wasserstein,
    tilted_gmm_oracle,
)
from ficd.config import ExperimentConfig
from ficd.guidance import Condition, DistanceEnergy, QuadraticEnergy
from ficd.posterior import (
    PosteriorPartStrategy,
    fisher_information,
    strategy_name,
    tweedie_posterior_mean,
)
from ficd.presets import PRESETS
from ficd.sampler import SamplerConfig, sample
from ficd.schedule import alpha_bar, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    LearnedScoreModel,
    NetSpec,
    finite_diff_jacobian,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def unit_gaussian(schedule, variance=1.0):
    return GaussianMixtureScore(
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [variance]), schedule
    )


def preset_config(name, **extra_keys):
    layer = dict(PRESETS[name])
    layer.update({key: str(value) for key, value in extra_keys.items()})
    return ExperimentConfig.from_sources(preset=layer)


def run_preset(config):
    schedule = config.schedule()
    model = config.build_model(schedule)
    sampler_config = config.sampler_config(schedule)
    energy = condition = None
    if sampler_config.strategy is not None:
        energy, condition = config.build_energy()
    return sample(sampler_config, model, energy, condition)


def test_criterion_01_tweedie_exactness():
    start = time.perf_counter()
    schedule = linear_schedule(200)
    rng = np.random.default_rng(0)
    worst = 0.0
    for variance in (0.25, 0.5, 1.0, 2.0, 4.0):
        model = unit_gaussian(schedule, variance)
        for t in (1, 50, 100, 150, 200):
            abar = alpha_bar(schedule, t)
            x = rng.standard_normal((100, 2)) * 2.0
            got = tweedie_posterior_mean(model, schedule, x, t)
            oracle = variance * np.sqrt(abar) * x / (abar * variance + 1.0 - abar)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "tweedie-exactness", ok, f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_score_jacobian_vs_finite_differences():
    start = time.perf_counter()
    schedule = linear_schedule(200)
    rng = np.random.default_rng(1)
    mixtures = [
        GaussianMixture.isotropic([1.0], [[0.5, -0.5]], [0.7]),
        GaussianMixture.isotropic([0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [0.4, 0.4]),
        GaussianMixture.isotropic([0.2, 0.3, 0.5], [[-2, 1], [0, -1], [2, 1]], [0.3, 1.0, 0.6]),
    ]
    worst = 0.0
    for gmm in mixtures:
        model = GaussianMixtureScore(gmm, schedule)
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=2)
            t = int(rng.integers(1, 201))
            J = model.jacobian(x, t)
            J_fd = finite_diff_jacobian(model, x, t)
            worst = max(worst, float(np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(2, "score-jacobian-vs-fd", ok, f"max rel Frobenius err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_information_ceiling():
    start = time.perf_counter()
    schedule = linear_schedule(200)
    rng = np.random.default_rng(2)
    t_set = (1, 50, 100, 150, 200)
    x_grid = rng.standard_normal((40, 2)) * 2.0

    formula_err = 0.0
    for variance in (0.25, 1.0, 4.0):
        model = unit_gaussian(schedule, variance)
        for t in t_set:
            abar = alpha_bar(schedule, t)
            expected = 1.0 / (abar * variance + 1.0 - abar)
            for x in x_grid[:10]:
                info = fisher_information(model, x, t)
                formula_err = max(
                    formula_err, abs(info.spectral_radius - expected) / expected
                )
    single = bound_verification(unit_gaussian(schedule), schedule, x_grid, t_set)
    tight = bound_verification(unit_gaussian(schedule, 1e-8), schedule, x_grid, t_set)
    ratio_floor = float(tight.ratio.min())

    bimodal = GaussianMixtureScore(
        GaussianMixture.isotropic([0.5, 0.5], [[-5.0, 0.0], [5.0, 0.0]], [0.25, 0.25]),
        schedule,
    )
    measured = bound_verification(bimodal, schedule, rng.uniform(-6, 6, (40, 2)), t_set)

    elapsed = time.perf_counter() - start
    ok = formula_err < 1e-9 and single.all_pass and ratio_floor > 0.999 and elapsed < 5.0
    report(
        3,
        "information-ceiling",
        ok,
        f"formula rel err {formula_err:.2e}, ceiling pass rate {single.pass_rate:.3f}, "
        f"small-variance ratio floor {ratio_floor:.5f}, "
        f"multimodal measured-only pass rate {measured.pass_rate:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_scalar_strategy_deviation_bound():
    # The two steps differ only in the scalar pullback, so the gap is
    # rho (2/sqrt(abar_t) - sqrt(abar_prev)) |g|. DistanceEnergy has
    # |g| = 1 = kappa, so every step sits on the ceiling up to rounding.
    start = time.perf_counter()
    schedule = linear_schedule(100)
    model = unit_gaussian(schedule)
    rep = deviation_bound_check(
        model, DistanceEnergy(), Condition.target([3.0, 3.0]), rho=0.5, n_chains=64, seed=0
    )
    elapsed = time.perf_counter() - start
    excess = float(np.max(rep.max_gap - rep.bound))
    ok = rep.all_pass and elapsed < 10.0
    report(
        4,
        "deviation-bound",
        ok,
        f"{len(rep.offending_steps())}/{rep.t.size} steps exceed the ceiling, "
        f"max excess {excess:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_tilted_mixture_recovery():
    start = time.perf_counter()
    config = preset_config("gmm-tilt")
    target = np.array([0.5, 0.25])
    oracle = tilted_gmm_oracle(config.gmm(), target, config["sampler.lam"])
    rng = np.random.default_rng(1000)
    draw_a = oracle.sample(rng, 2000)
    draw_b = oracle.sample(rng, 2000)
    baseline = sliced_wasserstein(draw_a, draw_b, 64, seed=5)

    guided, _ = run_preset(config)
    guided_dist = sliced_wasserstein(guided, draw_a, 64, seed=5)
    uncond, _ = run_preset(preset_config("gmm-tilt", **{"sampler.strategy": "uncond"}))
    uncond_dist = sliced_wasserstein(uncond, draw_a, 64, seed=5)

    elapsed = time.perf_counter() - start
    ok = guided_dist <= 2.0 * baseline and guided_dist < uncond_dist and elapsed < 60.0
    report(
        5,
        "tilted-mixture-recovery",
        ok,
        f"guided SW {guided_dist:.4f} vs 2x baseline {2 * baseline:.4f} "
        f"and unconditional {uncond_dist:.4f}, {elapsed:.2f}s",
    )


def test_criterion_06_linear_inverse_posterior_mean():
    start = time.perf_counter()
    posterior_mean = np.array([0.5, 0.5])
    errs = {}
    for name in ("exact", "ficd"):
        samples, _ = run_preset(preset_config("linear-inverse", **{"sampler.strategy": name}))
        errs[name] = float(np.linalg.norm(samples.mean(axis=0) - posterior_mean))
    elapsed = time.perf_counter() - start
    ok = all(err < 0.1 for err in errs.values()) and elapsed < 60.0
    report(
        6,
        "linear-inverse-posterior-mean",
        ok,
        f"mean err exact {errs['exact']:.4f}, ficd {errs['ficd']:.4f} "
        f"(tolerance 0.1), {elapsed:.2f}s",
    )


def test_criterion_07_phase_profile():
    start = time.perf_counter()
    profiles = {}
    for name in ("exact", "ficd"):
        _, trace = run_preset(preset_config("gmm-style-analog", **{"sampler.strategy": name}))
        profiles[name] = phase_profile(trace)
    e_early, e_mid, e_late = profiles["exact"]
    f_early = profiles["ficd"][0]
    elapsed = time.perf_counter() - start
    ok = (
        e_mid > 1.1 * e_early
        and e_mid > 1.1 * e_late
        and f_early > 1.1 * e_early
        and elapsed < 120.0
    )
    report(
        7,
        "phase-profile",
        ok,
        f"exact early/mid/late {e_early:.3f}/{e_mid:.3f}/{e_late:.3f}, "
        f"ficd early {f_early:.3f}, margins >= 10%, {elapsed:.2f}s",
    )


def test_criterion_08_jacobian_free_speedup():
    start = time.perf_counter()
    schedule = linear_schedule(200)
    model = LearnedScoreModel.init(
        NetSpec(hidden_width=256, hidden_layers=3, time_embed_dim=32),
        schedule,
        2,
        rng=np.random.default_rng(0),
    )
    configs = [
        SamplerConfig(T=200, strategy=s, rho=0.05, n_chains=256, seed=0)
        for s in (PosteriorPartStrategy.EXACT, PosteriorPartStrategy.FICD)
    ]
    table = benchmark_steps(model, configs, repetitions=5)
    exact = table.row("exact")
    ficd = table.row("ficd")
    ratio = ficd.median_run_s / exact.median_run_s
    # What each timed config costs, counted on an untimed run: one score
    # call per step, plus one score_vjp call for exact alone.
    counts_ok, vjps = True, {}
    energy, condition = QuadraticEnergy(), Condition.target(np.zeros(2))
    for config in configs:
        calls, expected, _ = recorded_calls(config, model, energy, condition)
        counts_ok = counts_ok and calls == expected
        vjps[strategy_name(config.strategy)] = sum(call[0] == "score_vjp" for call in calls)
    elapsed = time.perf_counter() - start
    ok = ratio <= 0.75 and counts_ok and elapsed < 120.0
    report(
        8,
        "jacobian-free-speedup",
        ok,
        f"ficd/exact median run time {ratio:.3f} (ceiling 0.75), "
        f"score_vjp calls over 200 steps ficd {vjps['ficd']} exact {vjps['exact']}, "
        f"calls as expected {counts_ok}, {elapsed:.2f}s",
    )


def test_criterion_09_zero_rho_soundness():
    start = time.perf_counter()
    schedule = linear_schedule(200)
    model = unit_gaussian(schedule)
    samples, _ = sample(
        SamplerConfig(
            T=200, strategy=PosteriorPartStrategy.FICD, rho=0.0, n_chains=10_000, seed=0
        ),
        model,
        DistanceEnergy(),
        Condition.target([0.0, 0.0]),
    )
    mean = samples.mean(axis=0)
    var = samples.var(axis=0)
    se3 = 3.0 / np.sqrt(samples.shape[0])
    elapsed = time.perf_counter() - start
    ok = (
        bool(np.all(np.abs(mean) < se3))
        and bool(np.all(np.abs(var - 1.0) < 0.05))
        and elapsed < 60.0
    )
    report(
        9,
        "zero-rho-soundness",
        ok,
        f"|mean| {np.abs(mean).max():.4f} vs 3 SE {se3:.4f}, "
        f"var {var.min():.4f}..{var.max():.4f} vs 1 +- 5%, {elapsed:.2f}s",
    )


def test_criterion_10_thread_count_determinism(tmp_path):
    start = time.perf_counter()
    one, two = sample_under_blas_threads(tmp_path, "ficd")
    same = (one / "samples.csv").read_bytes() == (two / "samples.csv").read_bytes()
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 30.0
    report(
        10,
        "thread-count-determinism",
        ok,
        f"wide-ddim samples.csv byte-identical across OPENBLAS_NUM_THREADS 1 and 2: "
        f"{same}, {elapsed:.2f}s",
    )
