"""Denoised-mean estimator, information bound, and posterior-part strategies."""

import numpy as np
import pytest

from ficd.posterior import (
    PosteriorPartStrategy,
    cramer_rao_bound,
    fisher_information,
    posterior_coefficient,
    posterior_pullback,
    strategy_name,
    tweedie_from_score,
    tweedie_posterior_mean,
)
from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import GaussianMixture, GaussianMixtureScore, LearnedScoreModel, NetSpec
from ficd.scoremodel.base import ScoreModel
from float64_twin import Float64Twin

EXACT, FICD, MPGD, UNIT = (
    PosteriorPartStrategy.EXACT,
    PosteriorPartStrategy.FICD,
    PosteriorPartStrategy.MPGD,
    PosteriorPartStrategy.UNIT,
)


class ZeroScore(ScoreModel):
    def __init__(self, d=2):
        self._d = d

    @property
    def dim(self):
        return self._d

    def score(self, x, t):
        return np.zeros_like(x)

    def jacobian(self, x, t):
        if x.ndim == 1:
            return np.zeros((self._d, self._d))
        return np.zeros((len(x), self._d, self._d))

    def score_vjp(self, x, t, v):
        return np.zeros_like(v)


def gaussian_model(var, sched, d=2):
    gmm = GaussianMixture.isotropic([1.0], [np.zeros(d)], [var])
    return GaussianMixtureScore(gmm, sched)


def exact_pullback_matrix(model, sched, x, t):
    """The derivative P = (I + (1 - alpha_bar_t) J) / sqrt(alpha_bar_t) of the
    denoised mean, built from pullbacks: row i is P^T e_i, which is row i of P."""
    eye = np.eye(model.dim)
    return posterior_pullback(EXACT, model, sched, np.tile(x, (model.dim, 1)), t, eye)


def conjugate_posterior_mean(x, mu0, var0, abar):
    """E[x_0 | x_t] for prior N(mu0, var0 I) under the noising kernel."""
    denom = abar * var0 + 1.0 - abar
    return (var0 * np.sqrt(abar) * x + (1.0 - abar) * mu0) / denom


def test_tweedie_with_zero_score_rescales():
    sched = NoiseSchedule([0.5, 0.5])  # alpha_bar_2 = 0.25
    out = tweedie_posterior_mean(ZeroScore(), sched, np.array([1.0, 0.0]), 2)
    np.testing.assert_allclose(out, [2.0, 0.0], rtol=1e-15)


def test_tweedie_unit_gaussian_shrinks_by_sqrt_abar():
    sched = NoiseSchedule([0.5, 0.5])
    model = gaussian_model(1.0, sched)
    out = tweedie_posterior_mean(model, sched, np.array([[2.0, 0.0]]), 2)
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_tweedie_identity_at_clean_data():
    x = np.array([0.3, -1.7])
    np.testing.assert_array_equal(tweedie_from_score(x, np.full(2, 99.0), 1.0), x)


def test_tweedie_matches_conjugate_oracle_grid():
    sched = linear_schedule(200)
    ts = [1, 50, 100, 150, 200]
    xs = np.stack(np.meshgrid(np.linspace(-4, 4, 9), np.linspace(-4, 4, 9)), axis=-1).reshape(-1, 2)
    for var0 in (0.25, 0.5, 1.0, 2.0, 4.0):
        model = gaussian_model(var0, sched)
        for t in ts:
            abar = float(sched.alpha_bars[t - 1])
            est = tweedie_posterior_mean(model, sched, xs, t)
            oracle = conjugate_posterior_mean(xs, 0.0, var0, abar)
            assert np.max(np.abs(est - oracle)) < 1e-9


def test_fisher_information_unit_gaussian():
    sched = linear_schedule(100)
    model = gaussian_model(1.0, sched)
    for t in (1, 50, 100):
        info = fisher_information(model, np.array([1.2, -0.3]), t)
        np.testing.assert_allclose(info.matrix, -np.eye(2), rtol=1e-12)
        assert info.spectral_radius == pytest.approx(1.0, rel=1e-12)
    # Rows give one matrix and one radius per row, each that of the point.
    x = np.array([[1.2, -0.3], [0.0, 2.5], [-4.0, 1.0]])
    rows = fisher_information(gaussian_model(0.7, sched), x, 30)
    assert rows.matrix.shape == (3, 2, 2) and rows.spectral_radius.shape == (3,)
    for k in range(3):
        point = fisher_information(gaussian_model(0.7, sched), x[k], 30)
        assert isinstance(point.spectral_radius, float)
        np.testing.assert_allclose(rows.matrix[k], point.matrix, rtol=1e-14)
        assert rows.spectral_radius[k] == pytest.approx(point.spectral_radius, rel=1e-14)


def test_fisher_information_half_variance_closed_form():
    sched = NoiseSchedule([0.5])  # alpha_bar_1 = 0.5
    info = fisher_information(gaussian_model(0.5, sched), np.zeros(2), 1)
    np.testing.assert_allclose(info.matrix, -(4.0 / 3.0) * np.eye(2), rtol=1e-12)
    assert info.spectral_radius == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_fisher_information_rejects_non_finite():
    class BadScore(ScoreModel):
        dim = 2

        def score(self, x, t):
            return np.full_like(x, np.nan)

        def jacobian(self, x, t):
            return np.full((2, 2), np.nan)

    with pytest.raises(ValueError, match="non-finite score derivative"):
        fisher_information(BadScore(), np.zeros(2), 1)


class VjpOnlyScore(ScoreModel):
    """score(x) = x A^T - x^3 / 3 with only its pullback written out, so
    the Jacobian A - diag(x^2) comes from the base class. Counts its
    score_vjp calls."""

    dim = 3
    A = np.array([[1.0, 2.0, 0.0], [-0.5, 0.3, 4.0], [0.0, -1.0, 0.7]])

    def __init__(self):
        self.vjp_calls = 0

    def score(self, x, t):
        return x @ self.A.T - x**3 / 3.0

    def score_vjp(self, x, t, v):
        self.vjp_calls += 1
        return v @ self.A - v * x**2


def test_jacobian_is_derived_from_score_vjp():
    model = VjpOnlyScore()
    x = np.random.default_rng(5).normal(size=(4, 3))
    by_hand = np.stack([model.A - np.diag(row**2) for row in x])
    np.testing.assert_array_equal(model.jacobian(x, 1), by_hand)
    assert model.vjp_calls == 1  # all 4 x 3 rows in one pullback
    np.testing.assert_array_equal(model.jacobian(x[2], 1), by_hand[2])
    assert model.vjp_calls == 2

    class ScoreOnly(ScoreModel):
        dim = 2

        def score(self, x, t):
            return -x

    with pytest.raises(NotImplementedError, match="ScoreOnly has no score_vjp"):
        ScoreOnly().jacobian(np.zeros(2), 1)


def test_cramer_rao_bound_values():
    assert cramer_rao_bound(NoiseSchedule([0.5]), 1) == pytest.approx(2.0)
    assert cramer_rao_bound(NoiseSchedule([0.25]), 1) == pytest.approx(4.0)
    late = cramer_rao_bound(linear_schedule(1000), 1000)
    assert 1.0 < late < 1.0005


def test_gaussian_radius_stays_under_bound_and_saturates():
    sched = linear_schedule(200)
    x = np.array([0.4, -1.1])
    for t in (10, 100, 190):
        bound = cramer_rao_bound(sched, t)
        abar = float(sched.alpha_bars[t - 1])
        previous_ratio = 0.0
        for var0 in (4.0, 1.0, 0.25, 0.01, 1e-4, 1e-6):
            radius = fisher_information(gaussian_model(var0, sched), x, t).spectral_radius
            assert radius == pytest.approx(1.0 / (abar * var0 + 1.0 - abar), rel=1e-10)
            assert radius <= bound
            ratio = radius / bound
            assert ratio > previous_ratio  # tightens monotonically as var0 shrinks
            previous_ratio = ratio
        assert previous_ratio > 0.999


def test_exact_pullback_values():
    sched = NoiseSchedule([0.5, 0.5])  # alpha_bar_2 = 0.25
    np.testing.assert_allclose(
        exact_pullback_matrix(ZeroScore(), sched, np.zeros(2), 2), 2.0 * np.eye(2), rtol=1e-15
    )
    model = gaussian_model(1.0, sched)
    np.testing.assert_allclose(
        exact_pullback_matrix(model, sched, np.array([3.0, -1.0]), 2),
        0.5 * np.eye(2),
        rtol=1e-12,
    )


def test_ficd_substitution_identity_is_exact():
    # Replacing the score derivative by the information ceiling times the
    # identity must reproduce the scalar coefficient bit for bit when
    # 1 - alpha_bar is a power of two, and to an ulp otherwise.
    class CeilingScore(ZeroScore):
        def __init__(self, abar):
            super().__init__(2)
            self.abar = abar

        def jacobian(self, x, t):
            return np.eye(2) / (1.0 - self.abar)

        def score_vjp(self, x, t, v):
            return v @ self.jacobian(x, t)  # J is symmetric and shared by every row

    for abar, exact in ((0.75, True), (0.5, True), (0.9375, True), (0.63, False), (0.123, False)):
        sched = NoiseSchedule([1.0 - abar])
        got = exact_pullback_matrix(CeilingScore(abar), sched, np.zeros(2), 1)
        want = posterior_coefficient(FICD, sched, 1) * np.eye(2)
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15)


def test_posterior_coefficients():
    sched = NoiseSchedule([0.75])  # alpha_bar_1 = 0.25
    assert posterior_coefficient(FICD, sched, 1) == 4.0
    # At t = 1 the MPGD value reads alpha_bar_0 = 1.
    assert posterior_coefficient(MPGD, sched, 1) == 1.0
    assert posterior_coefficient(UNIT, sched, 1) == 1.0
    with pytest.raises(ValueError):
        posterior_coefficient(EXACT, sched, 1)
    with pytest.raises(IndexError):
        posterior_coefficient(FICD, sched, 2)
    two_step = NoiseSchedule([0.19, 1.0 - 0.5 / 0.81])  # 0.81, then 0.5
    assert posterior_coefficient(FICD, two_step, 2) == pytest.approx(2.0 / np.sqrt(0.5))
    assert posterior_coefficient(MPGD, two_step, 2) == pytest.approx(0.9)
    assert posterior_coefficient(UNIT, two_step, 2) == 1.0


def test_posterior_vjp_matches_materialized_transpose():
    sched = linear_schedule(100)
    gmm = GaussianMixture.isotropic([0.5, 0.5], [[1.5, 0.0], [-1.5, 0.0]], [0.6, 0.6])
    model = GaussianMixtureScore(gmm, sched)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 2)) * 2.0
    v = rng.normal(size=(6, 2))
    abar = float(sched.alpha_bars[32])
    P = (np.eye(2) + (1.0 - abar) * model.jacobian(x, 33)) / np.sqrt(abar)
    expected = np.einsum("nij,ni->nj", P, v)
    np.testing.assert_allclose(
        posterior_pullback(EXACT, model, sched, x, 33, v), expected, rtol=1e-10
    )


def test_exact_pullback_matches_materialized_transpose_on_the_mlp():
    # The MLP's score Jacobian is not symmetric, so this checks the transpose;
    # the float64 twin runs the net's own bodies at the float64 tolerance.
    sched = linear_schedule(100)
    spec = NetSpec(hidden_width=32, hidden_layers=2, time_embed_dim=16)
    model = Float64Twin(LearnedScoreModel.init(spec, sched, 3, np.random.default_rng(7)))
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 3))
    for t in (1, 33, 100):
        abar = float(sched.alpha_bars[t - 1])
        J = model.jacobian(x, t)
        assert np.abs(J - J.transpose(0, 2, 1)).max() > 1e-6
        P = (np.eye(3) + (1.0 - abar) * J) / np.sqrt(abar)
        expected = np.einsum("nij,ni->nj", P, v)
        np.testing.assert_allclose(
            posterior_pullback(EXACT, model, sched, x, t, v), expected, rtol=1e-12, atol=1e-14
        )


def test_scalar_pullbacks_scale_by_the_coefficient():
    sched = linear_schedule(50)
    model = gaussian_model(1.0, sched)
    g = np.random.default_rng(9).normal(size=(4, 2))
    for strategy in (FICD, MPGD, UNIT):
        for t in (1, 25, 50):
            np.testing.assert_array_equal(
                posterior_pullback(strategy, model, sched, g, t, g),
                posterior_coefficient(strategy, sched, t) * g,
            )
    for strategy in (EXACT, FICD):
        with pytest.raises(IndexError):
            posterior_pullback(strategy, model, sched, g, 51, g)


def test_each_strategy_round_trips_through_its_name():
    for strategy in PosteriorPartStrategy:
        assert PosteriorPartStrategy(strategy_name(strategy)) is strategy
    assert strategy_name(None) == "uncond"
