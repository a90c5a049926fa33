"""Energies, their gradients, and the conditional term they pull back."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ficd.guidance import (
    Condition,
    DistanceEnergy,
    EnergyFunction,
    LinearMeasurementEnergy,
    QuadraticEnergy,
    guidance_gradient_norm,
)
from ficd.posterior import PosteriorPartStrategy, posterior_pullback, tweedie_posterior_mean
from ficd.sampler import ChainFailureError, SamplerConfig, sample
from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import GaussianMixture, GaussianMixtureScore
from ficd.scoremodel.base import ScoreModel

EXACT, FICD, MPGD, UNIT = (
    PosteriorPartStrategy.EXACT,
    PosteriorPartStrategy.FICD,
    PosteriorPartStrategy.MPGD,
    PosteriorPartStrategy.UNIT,
)


def quadratic_term(strategy, model, sched, x, t, c, lam=1.0):
    """Conditional term of the quadratic energy at the model's own denoised mean."""
    x0_hat = tweedie_posterior_mean(model, sched, x, t)
    return posterior_pullback(strategy, model, sched, x, t, lam * QuadraticEnergy().grad(x0_hat, c))


class ZeroScore(ScoreModel):
    dim = 2

    def score(self, x, t):
        return np.zeros_like(x)

    def jacobian(self, x, t):
        shape = (2, 2) if x.ndim == 1 else (len(x), 2, 2)
        return np.zeros(shape)

    def score_vjp(self, x, t, v):
        return np.zeros_like(v)


class CeilingScore(ZeroScore):
    """Zero score whose derivative is the information ceiling I / (1 - abar)."""

    def __init__(self, abar, dim=2):
        self.abar = abar
        self.dim = dim

    def jacobian(self, x, t):
        return np.eye(self.dim) / (1.0 - self.abar)

    def score_vjp(self, x, t, v):
        return v @ self.jacobian(x, t)  # J is symmetric and shared by every row


SCHED_50 = linear_schedule(50)


def fd_grad(energy, x, c, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (energy.value(x + e, c) - energy.value(x - e, c)) / (2.0 * h)
    return g


def test_quadratic_energy_values():
    e = QuadraticEnergy()
    c = Condition.target([0.0, 0.0])
    assert e.value(np.array([0.0, 0.0]), c) == 0.0
    np.testing.assert_array_equal(e.grad(np.array([0.0, 0.0]), c), [0.0, 0.0])
    assert e.value(np.array([1.0, 0.0]), c) == 1.0
    np.testing.assert_array_equal(e.grad(np.array([1.0, 0.0]), c), [2.0, 0.0])


def test_distance_energy_unit_gradient():
    e = DistanceEnergy()
    c = Condition.target([1.0, -2.0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=2) * 3.0
        if np.allclose(x, c.y):
            continue
        assert guidance_gradient_norm(e.grad(x, c)) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(e.grad(np.array([1.0, -2.0]), c), [0.0, 0.0])


def test_linear_measurement_energy_values():
    e = LinearMeasurementEnergy()
    c_eye = Condition.measurement(np.eye(2), [2.0, 3.0])
    assert e.value(np.array([2.0, 3.0]), c_eye) == 0.0
    c_row = Condition.measurement(np.array([[1.0, 0.0]]), [0.0])
    assert e.value(np.array([2.0, 3.0]), c_row) == 4.0
    np.testing.assert_array_equal(e.grad(np.array([2.0, 3.0]), c_row), [4.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=6),
    rows=st.sampled_from([None, 1, 5, 600]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_linear_measurement_gradient_has_the_bits_of_the_plain_product(m, d, rows, seed):
    """grad forms the residual and 2 r in place before the product with A:
    the bits of 2 (x0 A^T - y) A, on a non-square A, and x0 is never written."""
    if m == d:
        m += 1
    rng = np.random.default_rng(seed)
    A, y = rng.normal(size=(m, d)), rng.normal(size=m)
    c = Condition.measurement(A, y)
    x0 = rng.normal(size=(d,) if rows is None else (rows, d)) * 3.0
    before = x0.copy()
    got = LinearMeasurementEnergy().grad(x0, c)
    assert got.tobytes() == (2.0 * (x0 @ A.T - y) @ A).tobytes()
    assert got.shape == x0.shape
    assert x0.tobytes() == before.tobytes()
    assert not np.shares_memory(got, x0)


def test_linear_measurement_gradient_matches_differences():
    rng = np.random.default_rng(1)
    e = LinearMeasurementEnergy()
    c = Condition.measurement(rng.normal(size=(3, 2)), rng.normal(size=3))
    for _ in range(10):
        x = rng.normal(size=2)
        np.testing.assert_allclose(e.grad(x, c), fd_grad(e, x, c), atol=1e-8)


def test_all_energy_gradients_match_differences_on_random_points():
    rng = np.random.default_rng(3)
    cases = [
        (QuadraticEnergy(), Condition.target(rng.normal(size=2)), 2),
        (DistanceEnergy(), Condition.target(rng.normal(size=2)), 2),
        (LinearMeasurementEnergy(), Condition.measurement(rng.normal(size=(3, 2)), rng.normal(size=3)), 2),
    ]
    for energy, c, d in cases:
        for _ in range(25):
            x = rng.normal(size=d) * 2.0
            grad = np.asarray(energy.grad(x, c), dtype=np.float64)
            fd = fd_grad(energy, x, c)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(grad - fd) / denom < 1e-6


def test_energies_support_batches():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 2))
    c = Condition.target([0.5, -0.5])
    e = QuadraticEnergy()
    values = e.value(x, c)
    grads = e.grad(x, c)
    assert values.shape == (5,) and grads.shape == (5, 2)
    for k in range(5):
        assert values[k] == e.value(x[k], c)
        np.testing.assert_array_equal(grads[k], e.grad(x[k], c))


def test_conditional_gradient_zero_when_energy_flat():
    sched = NoiseSchedule([0.5, 0.5])  # alpha_bar_2 = 0.25
    x = np.array([0.1, 0.2])
    c = Condition.target(x / 0.5)  # equals the denoised point under a zero score
    for strategy in (EXACT, FICD, MPGD, UNIT):
        out = quadratic_term(strategy, ZeroScore(), sched, x, 2, c)
        np.testing.assert_array_equal(out, [0.0, 0.0])


def test_conditional_gradient_ficd_coefficient():
    sched = NoiseSchedule([0.5, 0.5])
    x = np.array([0.1, 0.2])
    c = Condition.target(x / 0.5 - np.array([0.5, 0.0]))  # energy grad (1, 0)
    out = quadratic_term(FICD, ZeroScore(), sched, x, 2, c)
    np.testing.assert_allclose(out, [4.0, 0.0], rtol=1e-12)


def test_conditional_gradient_exact_gaussian():
    sched = NoiseSchedule([0.5, 0.5])
    gmm = GaussianMixture.isotropic([1.0], [np.zeros(2)], [1.0])
    model = GaussianMixtureScore(gmm, sched)
    x = np.array([[2.0, -1.0]])
    c = Condition.target([0.0, 0.0])
    x0_hat = 0.5 * x  # posterior mean shrinks by sqrt(alpha_bar)
    g = 2.0 * (x0_hat - c.y)
    out = quadratic_term(EXACT, model, sched, x, 2, c)
    np.testing.assert_allclose(out, 0.5 * g, rtol=1e-10)


def test_exact_equals_ficd_at_information_ceiling():
    abar = 0.75
    sched = NoiseSchedule([1.0 - abar])
    x = np.array([0.3, 0.9])
    c = Condition.target([-1.0, 2.0])
    exact = quadratic_term(EXACT, CeilingScore(abar), sched, x, 1, c)
    ficd = quadratic_term(FICD, CeilingScore(abar), sched, x, 1, c)
    np.testing.assert_array_equal(exact, ficd)


@settings(max_examples=40, deadline=None)
@given(
    var=st.floats(min_value=0.1, max_value=10.0),
    d=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=1, max_value=50),
    lam=st.floats(min_value=1e-2, max_value=1e2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_is_ficd_with_the_gaussian_information_for_the_ceiling(var, d, t, lam, seed):
    # FICD is the exact pullback (v + (1 - abar) J v) / sqrt(abar) with J set
    # to the information ceiling I / (1 - abar). One Gaussian N(mu, var I)
    # has J = j I, j = -1 / (abar var + 1 - abar), so its exact term is FICD's
    # times (1 + (1 - abar) j) / 2; a derivative at the ceiling gives FICD.
    rng = np.random.default_rng(seed)
    abar = float(SCHED_50.alpha_bars[t - 1])
    gaussian = GaussianMixture.isotropic([1.0], [rng.normal(size=d)], [var])
    model = GaussianMixtureScore(gaussian, SCHED_50)
    x = rng.normal(size=(4, d)) * 2.0
    c = Condition.target(rng.normal(size=d))
    exact = quadratic_term(EXACT, model, SCHED_50, x, t, c, lam)
    ficd = quadratic_term(FICD, model, SCHED_50, x, t, c, lam)
    j = -1.0 / (abar * var + 1.0 - abar)
    np.testing.assert_allclose(
        exact, ficd * (1.0 + (1.0 - abar) * j) / 2.0, rtol=1e-10, atol=1e-10 * np.abs(ficd).max()
    )
    ceiling = CeilingScore(abar, d)
    np.testing.assert_allclose(
        quadratic_term(EXACT, ceiling, SCHED_50, x[0], t, c, lam),
        quadratic_term(FICD, ceiling, SCHED_50, x[0], t, c, lam),
        rtol=1e-14,
    )


def test_conditional_gradient_linear_in_lambda():
    sched = linear_schedule(50)
    gmm = GaussianMixture.isotropic([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    model = GaussianMixtureScore(gmm, sched)
    x = np.array([[0.7, -0.4]])
    c = Condition.target([2.0, 2.0])
    for strategy in (EXACT, FICD, MPGD, UNIT):
        one = quadratic_term(strategy, model, sched, x, 20, c, lam=0.5)
        two = quadratic_term(strategy, model, sched, x, 20, c, lam=1.0)
        np.testing.assert_array_equal(2.0 * one, two)


@settings(max_examples=40, deadline=None)
@given(
    strategy=st.sampled_from([EXACT, FICD, MPGD, UNIT]),
    K=st.integers(min_value=1, max_value=2),
    t=st.integers(min_value=1, max_value=50),
    lam=st.floats(min_value=1e-3, max_value=1e3),
    k=st.integers(min_value=-4, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_conditional_term_is_linear_in_lambda(strategy, K, t, lam, k, seed):
    # A power-of-two factor on lam commutes with every rounding on the way,
    # so the term scales by it bit for bit; lam = 0 switches guidance off.
    rng = np.random.default_rng(seed)
    gmm = GaussianMixture.isotropic(
        rng.dirichlet(np.ones(K)), rng.normal(size=(K, 3)), rng.uniform(0.2, 2.0, size=K)
    )
    model = GaussianMixtureScore(gmm, SCHED_50)
    x = rng.normal(size=(4, 3)) * 2.0
    c = Condition.target(rng.normal(size=3))
    term = quadratic_term(strategy, model, SCHED_50, x, t, c, lam)
    scaled = quadratic_term(strategy, model, SCHED_50, x, t, c, 2.0**k * lam)
    np.testing.assert_array_equal(scaled, 2.0**k * term)
    np.testing.assert_array_equal(quadratic_term(strategy, model, SCHED_50, x, t, c, 0.0), 0.0)


def test_mpgd_to_ficd_norm_ratio():
    sched = linear_schedule(100)
    gmm = GaussianMixture.isotropic([1.0], [np.zeros(2)], [1.0])
    model = GaussianMixtureScore(gmm, sched)
    x = np.array([[1.0, 1.0]])
    c = Condition.target([0.0, 0.0])
    for t in (2, 40, 90):
        ficd = quadratic_term(FICD, model, sched, x, t, c)
        mpgd = quadratic_term(MPGD, model, sched, x, t, c)
        abar_t = float(sched.alpha_bars[t - 1])
        abar_prev = float(sched.alpha_bars[t - 2]) if t > 1 else 1.0
        expected = 2.0 / (np.sqrt(abar_t) * np.sqrt(abar_prev))
        ratio = guidance_gradient_norm(ficd) / guidance_gradient_norm(mpgd)
        assert ratio == pytest.approx([expected], rel=1e-12)


def test_ficd_norm_dominates_exact_on_gaussian():
    # The exact posterior factor on a Gaussian is (alpha_bar var)/(marginal var)
    # times 1/sqrt(alpha_bar), always under the surrogate factor 2/sqrt(alpha_bar).
    sched = linear_schedule(100)
    gmm = GaussianMixture.isotropic([1.0], [np.zeros(2)], [1.0])
    model = GaussianMixtureScore(gmm, sched)
    x = np.array([[1.5, -0.5]])
    c = Condition.target([0.0, 0.0])
    for t in (2, 10, 50, 99):
        ficd = guidance_gradient_norm(quadratic_term(FICD, model, sched, x, t, c))
        exact = guidance_gradient_norm(quadratic_term(EXACT, model, sched, x, t, c))
        assert ficd > exact


def test_non_finite_guidance_aborts():
    class ExplodingEnergy(EnergyFunction):
        def value(self, x0_hat, c):
            return np.inf

        def grad(self, x0_hat, c):
            return np.full_like(x0_hat, np.inf)

    sched = linear_schedule(10)
    model = GaussianMixtureScore(GaussianMixture.isotropic([1.0], [np.zeros(2)], [1.0]), sched)
    c = Condition.target([0.0, 0.0])
    x = np.array([[0.1, 0.1], [0.2, -0.3]])
    # The term itself hands the non-finite rows back to its caller ...
    g = ExplodingEnergy().grad(tweedie_posterior_mean(model, sched, x, 5), c)
    for strategy in (EXACT, FICD, MPGD, UNIT):
        term = posterior_pullback(strategy, model, sched, x, 5, g)
        assert not np.isfinite(term).any(), strategy
    # ... and the guided run flags every chain and aborts.
    config = SamplerConfig(T=10, strategy=FICD, rho=0.5, n_chains=4, seed=0)
    with pytest.raises(ChainFailureError) as err:
        sample(config, model, ExplodingEnergy(), c)
    assert err.value.flagged.tolist() == [0, 1, 2, 3]


def test_guidance_gradient_norm_values():
    assert guidance_gradient_norm(np.array([3.0, 4.0])) == 5.0
    assert guidance_gradient_norm(np.zeros(3)) == 0.0
    np.testing.assert_array_equal(
        guidance_gradient_norm(np.array([[3.0, 4.0], [0.0, 2.0]])), [5.0, 2.0]
    )


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=33),
    rows=st.integers(min_value=1, max_value=8),
    scale=st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_guidance_gradient_norm_is_the_row_norm(d, rows, scale, seed):
    """The one-pass norm has the bits of np.linalg.norm for d <= 2. For
    d >= 3 its sum of squares runs in another order; each sum of d
    rounded squares lies within d u of the exact one (u = eps / 2), so
    the two norms lie within (d + 2) u of each other. The worst seen over
    20,000 normal draws each was 2.4e-16 at d = 3 and 4.4e-16 at d = 33."""
    g = np.random.default_rng(seed).standard_normal((rows, d)) * scale
    got = guidance_gradient_norm(g)
    want = np.linalg.norm(g, axis=-1)
    assert isinstance(got, np.ndarray) and got.shape == (rows,)
    if d <= 2:
        assert got.tobytes() == want.tobytes()
    else:
        u = np.finfo(np.float64).eps / 2
        assert np.all(np.abs(got - want) <= (d + 2) * u * want)
    point = guidance_gradient_norm(g[0])
    assert isinstance(point, float) and point == got[0]


def test_guidance_gradient_norm_edge_rows():
    g = np.array([[np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0], [np.inf, np.nan], [1e200, 1.0]])
    # A finite row whose sum of squares overflows gives inf, silently,
    # where np.linalg.norm warns "overflow encountered in multiply".
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.linalg.norm(g[-1:], axis=-1)
    norms = guidance_gradient_norm(g)
    assert norms[[0, 1, 4]].tolist() == [np.inf] * 3
    assert np.all(np.isnan(norms[[2, 3]]))
    assert guidance_gradient_norm(np.array([-1e200, 0.0, 0.0])) == np.inf


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition(kind="target")
    with pytest.raises(ValueError):
        Condition(kind="measurement", A=np.eye(2), y=np.zeros(3))
    with pytest.raises(ValueError):
        Condition(kind="mystery", y=np.zeros(2))
    # A non-finite target would switch guidance off silently (the distance
    # energy's gradient zeroes every nan row), so it is named instead.
    with pytest.raises(ValueError, match="condition y must be finite"):
        Condition.target([np.nan, 0.0])
    with pytest.raises(ValueError, match="condition A must be finite"):
        Condition.measurement([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="condition y must be finite"):
        Condition.measurement(np.eye(2), [0.0, -np.inf])
    with pytest.raises(ValueError):
        QuadraticEnergy().grad(np.zeros(3), Condition.target([0.0, 0.0]))
    with pytest.raises(ValueError):
        LinearMeasurementEnergy().value(np.zeros(3), Condition.measurement(np.eye(2), np.zeros(2)))
