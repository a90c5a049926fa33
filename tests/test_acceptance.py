"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a single pass/fail line with its measured numbers, then
asserts. Criteria 1-4 run the ``ficd.verify`` suites that ``ficd verify``
reports and assert their own tolerances on the returned figures, so a
suite that loosened its own verdict would still fail here. Criterion 4
checks the sharp one-step ceiling on the gap between the two scalar
guidance strategies, rho * kappa * (2 / sqrt(alpha_bar_t) - sqrt(alpha_bar_prev));
a unit-norm energy gradient meets it exactly, so it is checked at or
below the ceiling with a 1e-12 relative rounding allowance (see the
matching sampler property test).
"""

import time

import numpy as np
import pytest

from call_counts import recorded_calls
from cli_runs import sample_under_blas_threads
from ficd.analytics import benchmark_steps, phase_profile, sliced_wasserstein, tilted_gmm_oracle
from ficd.config import ExperimentConfig
from ficd.guidance import Condition, DistanceEnergy, QuadraticEnergy
from ficd.posterior import PosteriorPartStrategy, strategy_name
from ficd.presets import PRESETS
from ficd.sampler import SamplerConfig, sample
from ficd.schedule import linear_schedule
from ficd.scoremodel import LearnedScoreModel, NetSpec
from ficd.verify import (
    suite_deviation_bound,
    suite_fisher_bound,
    suite_jacobian_fd,
    suite_tweedie,
    unit_gaussian_model,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


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
    worst = suite_tweedie(linear_schedule(200)).figures["max_abs_err"]
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, "tweedie-exactness", ok, f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_score_jacobian_vs_finite_differences():
    start = time.perf_counter()
    worst = suite_jacobian_fd(linear_schedule(200)).figures["max_rel_err"]
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    report(2, "score-jacobian-vs-fd", ok, f"max rel Frobenius err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_information_ceiling():
    start = time.perf_counter()
    fig = suite_fisher_bound(linear_schedule(200)).figures
    elapsed = time.perf_counter() - start
    ok = (
        fig["formula_rel_err"] < 1e-9
        and fig["max_ratio"] <= 1.0
        and fig["ratio_floor"] > 0.999
        and elapsed < 5.0
    )
    report(
        3,
        "information-ceiling",
        ok,
        f"formula rel err {fig['formula_rel_err']:.2e}, "
        f"ceiling pass rate {fig['ceiling_pass_rate']:.3f}, "
        f"small-variance ratio floor {fig['ratio_floor']:.5f}, "
        f"multimodal measured-only pass rate {fig['bimodal_pass_rate']:.3f}, {elapsed:.2f}s",
    )


def test_criterion_04_scalar_strategy_deviation_bound():
    # The two steps differ only in the scalar pullback, so the gap is
    # rho (2/sqrt(abar_t) - sqrt(abar_prev)) |g|. DistanceEnergy has
    # |g| = 1 = kappa, so every step sits on the ceiling up to rounding.
    start = time.perf_counter()
    fig = suite_deviation_bound(linear_schedule(100)).figures
    elapsed = time.perf_counter() - start
    ok = fig["max_rel_excess"] <= 1e-12 and elapsed < 10.0
    report(
        4,
        "deviation-bound",
        ok,
        f"{fig['steps_over']}/{fig['steps']} steps exceed the ceiling, "
        f"max excess {fig['max_excess']:.2e}, {elapsed:.2f}s",
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
    model = unit_gaussian_model(schedule)
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
