"""The checks of the paper's claims, one suite each, for ``ficd verify``
and acceptance criteria 1-4: the Tweedie denoised mean, the mixture score
Jacobian, the information ceiling 1 / (1 - alpha_bar_t), and the one-step
FICD/MPGD deviation ceiling. A suite takes only the schedule and draws its
own seeded data, so at a criterion's T it checks the criterion's data.
``import ficd`` does not load this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ficd.analytics import bound_verification, deviation_bound_check
from ficd.guidance import Condition, DistanceEnergy
from ficd.posterior import fisher_information, tweedie_posterior_mean
from ficd.schedule import NoiseSchedule, alpha_bar
from ficd.scoremodel import GaussianMixture, GaussianMixtureScore, finite_diff_jacobian

__all__ = [
    "SuiteResult",
    "unit_gaussian_model",
    "suite_tweedie",
    "suite_jacobian_fd",
    "suite_fisher_bound",
    "suite_deviation_bound",
    "SUITES",
]


@dataclass(frozen=True)
class SuiteResult:
    """A suite's measured figures by name, its verdict, and its report lines."""

    figures: dict[str, float]
    passed: bool
    lines: list[str]


def unit_gaussian_model(schedule: NoiseSchedule, variance: float = 1.0) -> GaussianMixtureScore:
    """The centred isotropic Gaussian prior in two dimensions, as a score model."""
    gmm = GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [variance])
    return GaussianMixtureScore(gmm, schedule)


def _t_grid(T: int, n: int) -> list[int]:
    return sorted({int(t) for t in np.linspace(1, T, num=min(n, T))})


def suite_tweedie(schedule: NoiseSchedule) -> SuiteResult:
    """Denoised mean against the conjugate-Gaussian posterior mean
    v sqrt(abar) x / (abar v + 1 - abar), for five prior variances v."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for variance in (0.25, 0.5, 1.0, 2.0, 4.0):
        model = unit_gaussian_model(schedule, variance)
        for t in _t_grid(schedule.T, 5):
            abar = alpha_bar(schedule, t)
            x = rng.standard_normal((100, 2)) * 2.0
            got = tweedie_posterior_mean(model, schedule, x, t)
            oracle = variance * np.sqrt(abar) * x / (abar * variance + 1.0 - abar)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    line = f"max |denoised mean - conjugate oracle| = {worst:.3e} (tolerance 1e-09)"
    return SuiteResult({"max_abs_err": worst}, worst < 1e-9, [line])


def suite_jacobian_fd(schedule: NoiseSchedule) -> SuiteResult:
    """Closed-form mixture score Jacobian against central differences, at
    100 random (x, t) on each of a one-, two- and three-component mixture."""
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
            t = int(rng.integers(1, schedule.T + 1))
            J = model.jacobian(x, t)
            J_fd = finite_diff_jacobian(model, x, t)
            worst = max(worst, float(np.linalg.norm(J - J_fd) / np.linalg.norm(J_fd)))
    line = f"max relative Frobenius gap vs central difference = {worst:.3e} (tolerance 1e-05)"
    return SuiteResult({"max_rel_err": worst}, worst < 1e-5, [line])


def suite_fisher_bound(schedule: NoiseSchedule) -> SuiteResult:
    """Spectral radius of the score Jacobian against the ceiling 1 / (1 - abar).

    For a Gaussian prior of variance v the radius is 1 / (abar v + 1 - abar):
    the suite checks that formula, the ceiling on the unit Gaussian, and
    that the ceiling is tight at a tiny v: 1e-8, or 2e-4 (1 - abar_1) if
    that is smaller, so the radius/bound ratio is at least 1 / (1 + 2e-4)
    on any schedule. A bimodal mixture may exceed the ceiling; its figures
    are measured only.
    """
    rng = np.random.default_rng(2)
    t_set = _t_grid(schedule.T, 5)
    x_grid = rng.standard_normal((40, 2)) * 2.0
    formula_err = 0.0
    for variance in (0.25, 1.0, 4.0):
        model = unit_gaussian_model(schedule, variance)
        for t in t_set:
            abar = alpha_bar(schedule, t)
            expected = 1.0 / (abar * variance + 1.0 - abar)
            radii = fisher_information(model, x_grid[:10], t).spectral_radius
            formula_err = max(formula_err, float(np.max(np.abs(radii - expected))) / expected)
    single = bound_verification(unit_gaussian_model(schedule), schedule, x_grid, t_set)
    tiny = min(1e-8, 2e-4 * (1.0 - alpha_bar(schedule, 1)))
    tight = bound_verification(unit_gaussian_model(schedule, tiny), schedule, x_grid, t_set)
    bimodal = GaussianMixtureScore(
        GaussianMixture.isotropic([0.5, 0.5], [[-5.0, 0.0], [5.0, 0.0]], [0.25, 0.25]),
        schedule,
    )
    measured = bound_verification(bimodal, schedule, rng.uniform(-6, 6, (40, 2)), t_set)
    figures = {
        "formula_rel_err": formula_err,
        "ceiling_pass_rate": single.pass_rate,
        "max_ratio": float(single.ratio.max()),
        "ratio_floor": float(tight.ratio.min()),
        "bimodal_pass_rate": measured.pass_rate,
    }
    lines = [
        f"Gaussian radius formula: max rel err {formula_err:.3e} (tolerance 1e-09)",
        f"unit Gaussian: max radius/bound ratio {figures['max_ratio']:.6f}, "
        f"pass rate {single.pass_rate:.3f}",
        f"variance {tiny:.0e}: min radius/bound ratio {figures['ratio_floor']:.5f} (floor 0.999)",
        "bimodal (measured only, never failing): "
        f"pass rate {measured.pass_rate:.3f}, max ratio {float(measured.ratio.max()):.3f}",
    ]
    passed = formula_err < 1e-9 and single.all_pass and figures["ratio_floor"] > 0.999
    return SuiteResult(figures, passed, lines)


def suite_deviation_bound(schedule: NoiseSchedule) -> SuiteResult:
    """Lock-step FICD/MPGD gap against the sharp ceiling
    rho (2 / sqrt(abar_t) - sqrt(abar_{t-1})), which the distance
    energy's unit-norm gradient meets at every step."""
    model, target = unit_gaussian_model(schedule), Condition.target([3.0, 3.0])
    report = deviation_bound_check(model, DistanceEnergy(), target, rho=0.5, n_chains=64, seed=0)
    over, n = report.offending_steps(), report.t.size
    figures = {
        "steps": n,
        "steps_over": len(over),
        "max_excess": float(np.max(report.max_gap - report.bound)),
        "max_rel_excess": float(np.max((report.max_gap - report.bound) / report.bound)),
    }
    lines = [f"{n - len(over)}/{n} steps within bound, max excess {figures['max_excess']:.3e}"]
    if over:
        lines.append(f"steps over the ceiling: t = {', '.join(map(str, over))}")
    return SuiteResult(figures, report.all_pass, lines)


SUITES = {
    "tweedie": suite_tweedie,
    "jacobian-fd": suite_jacobian_fd,
    "fisher-bound": suite_fisher_bound,
    "deviation-bound": suite_deviation_bound,
}
