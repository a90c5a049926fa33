"""Closed-form mixture scores, their derivatives, and the difference oracle."""

import warnings

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    finite_diff_jacobian,
    mixture_logpdf,
)
from ficd.scoremodel import gmm as gmm_module


def marginal_mixture(gmm, abar):
    """Step by step, the mixture x_t follows when x_0 follows gmm and
    alpha_bar_t = abar: the reference for the stacked build."""
    covs = abar * gmm.covariances + (1.0 - abar) * np.eye(gmm.d)
    return GaussianMixture(gmm.weights, np.sqrt(abar) * gmm.means, covs)


def single_gaussian(var=1.0, d=2):
    return GaussianMixture.isotropic([1.0], [np.zeros(d)], [var])


def bimodal(d=2, sep=2.0, var=1.0):
    mu = np.zeros(d)
    mu[0] = sep
    return GaussianMixture.isotropic([0.5, 0.5], [mu, -mu], [var, var])


def test_marginal_score_at_half_alpha_bar():
    # alpha_bar = 0.5 makes the unit-Gaussian marginal exactly standard normal.
    sched = NoiseSchedule([0.5])
    s = GaussianMixtureScore(single_gaussian(), sched).score(np.array([[2.0, 0.0]]), 1)
    np.testing.assert_allclose(s, [[-2.0, 0.0]], atol=1e-12)


def test_marginal_score_near_clean_data():
    sched = NoiseSchedule([1e-12])
    x = np.array([[0.7, -1.3]])
    s = GaussianMixtureScore(single_gaussian(), sched).score(x, 1)
    np.testing.assert_allclose(s, -x, atol=1e-9)


def test_marginal_score_vanishes_at_symmetry_point():
    sched = linear_schedule(100)
    s = GaussianMixtureScore(bimodal(), sched).score(np.zeros((1, 2)), 37)
    np.testing.assert_allclose(s, 0.0, atol=1e-14)


def test_odd_symmetry_for_origin_symmetric_mixture():
    sched = linear_schedule(100)
    rng = np.random.default_rng(11)
    for t in (5, 50, 95):
        x = rng.normal(size=(8, 2)) * 2.0
        model = GaussianMixtureScore(bimodal(), sched)
        np.testing.assert_allclose(model.score(x, t), -model.score(-x, t), atol=1e-12)


def test_single_gaussian_jacobian_closed_form():
    sched = linear_schedule(100)
    rng = np.random.default_rng(3)
    for var in (0.25, 1.0, 4.0):
        for t in (1, 40, 100):
            abar = float(sched.alpha_bars[t - 1])
            expected = -np.eye(2) / (abar * var + 1.0 - abar)
            x = rng.normal(size=2) * 3.0
            J = GaussianMixtureScore(single_gaussian(var), sched).jacobian(x, t)
            np.testing.assert_allclose(J, expected, rtol=1e-12)


def test_unit_gaussian_jacobian_is_minus_identity_at_every_t():
    sched = linear_schedule(50)
    for t in range(1, 51):
        J = GaussianMixtureScore(single_gaussian(1.0), sched).jacobian(np.array([1.5, -0.5]), t)
        np.testing.assert_allclose(J, -np.eye(2), rtol=1e-12)


def test_jacobian_symmetric_and_matches_central_differences():
    rng = np.random.default_rng(7)
    sched = linear_schedule(100)
    gmm = GaussianMixture(
        weights=np.array([0.3, 0.5, 0.2]),
        means=np.array([[1.5, 0.0], [-1.0, 1.0], [0.0, -2.0]]),
        covariances=np.stack(
            [np.array([[1.0, 0.3], [0.3, 0.8]]), 0.5 * np.eye(2), np.array([[2.0, -0.4], [-0.4, 1.0]])]
        ),
    )
    model = GaussianMixtureScore(gmm, sched)
    for _ in range(20):
        t = int(rng.integers(1, 101))
        x = rng.normal(size=2) * 3.0
        J = model.jacobian(x, t)
        np.testing.assert_allclose(J, J.T, atol=1e-10)
        fd = finite_diff_jacobian(model, x, t)
        rel = np.linalg.norm(J - fd) / np.linalg.norm(J)
        assert rel < 1e-5


def random_mixture(rng, K, d):
    """K components with random weights, means and full SPD covariances."""
    A = rng.normal(size=(K, d, d))
    covs = A @ np.swapaxes(A, 1, 2) + 0.3 * np.eye(d)
    return GaussianMixture(
        weights=rng.dirichlet(np.ones(K)),
        means=rng.normal(size=(K, d)) * 1.5,
        covariances=0.5 * (covs + np.swapaxes(covs, 1, 2)),
    )


SCHED_100 = linear_schedule(100)


def marginal_at(model, t):
    return marginal_mixture(model.gmm, float(model.schedule.alpha_bars[t - 1]))


def reference_jacobian(model, x, t):
    """The step-t mixture's second derivative in closed form: sum_i r_i
    (-Sigma_i^{-1}) plus the responsibility-weighted covariance of the g_i,
    sum_i r_i g_i g_i^T - s s^T; (d, d) for a point, (N, d, d) for a batch.
    Responsibilities come from reference_responsibilities below and the
    inverses from np.linalg.inv of the marginal covariances."""
    mix = marginal_at(model, t)
    r, g, _ = reference_responsibilities(mix, np.atleast_2d(x))
    s = np.einsum("kn,knd->nd", r, g)
    J = -np.einsum("kn,kde->nde", r, np.linalg.inv(mix.covariances))
    J += np.einsum("kn,knd,kne->nde", r, g, g)
    J -= np.einsum("nd,ne->nde", s, s)
    return J.reshape(np.shape(x)[:-1] + J.shape[1:])


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=1, max_value=100),
    n=st.sampled_from([1, 5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vjp_agrees_with_materialized_jacobian(K, d, t, n, seed):
    rng = np.random.default_rng(seed)
    model = GaussianMixtureScore(random_mixture(rng, K, d), SCHED_100)
    x = rng.normal(size=(n, d)) * 2.0
    v = rng.normal(size=(n, d))
    J = reference_jacobian(model, x, t)
    np.testing.assert_allclose(model.jacobian(x, t), J, rtol=1e-10, atol=1e-10)
    direct = np.einsum("...ij,...i->...j", J, v)
    got = model.score_vjp(x, t, v)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-10)


def counted(calls, name, inner):
    """inner, counting each call in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    return wrapper


def test_evaluation_factors_nothing(monkeypatch):
    # Construction factors all T K marginals in one stacked Cholesky and
    # builds no mixture, whatever T is; evaluating the score, its Jacobian
    # or its pullback must not factor or build one either.
    calls = {"cholesky": 0, "GaussianMixture": 0}
    gmm = random_mixture(np.random.default_rng(29), 3, 2)
    x = np.random.default_rng(30).normal(size=(5, 2))
    mix = marginal_mixture(gmm, 0.5)
    monkeypatch.setattr(np.linalg, "cholesky", counted(calls, "cholesky", np.linalg.cholesky))
    monkeypatch.setattr(
        gmm_module, "GaussianMixture", counted(calls, "GaussianMixture", gmm_module.GaussianMixture)
    )
    for T in (1, 100, 1000):
        model = GaussianMixtureScore(gmm, linear_schedule(T))
        assert calls == {"cholesky": 1, "GaussianMixture": 0}, T
        calls.update(cholesky=0)
    # mixture_logpdf takes one Cholesky of the stacked 3 covariances.
    mixture_logpdf(mix, x)
    assert calls == {"cholesky": 1, "GaussianMixture": 0}
    calls.update(cholesky=0)
    for t in (1, 500, 1000):
        model.score(x, t)
        model.score(x[:1], t)
        model.jacobian(x, t)
        model.score_vjp(x, t, x)
    assert calls == {"cholesky": 0, "GaussianMixture": 0}


def test_one_component_skips_logsumexp(monkeypatch):
    # One component needs no normalizer call, and no evaluation solves:
    # every component is multiplied by its stored inverse covariance.
    calls = {"logsumexp": 0, "solve": 0}
    monkeypatch.setattr(
        gmm_module, "_logsumexp", counted(calls, "logsumexp", gmm_module._logsumexp)
    )
    monkeypatch.setattr(np.linalg, "solve", counted(calls, "solve", np.linalg.solve))
    x = np.random.default_rng(31).normal(size=(5, 2))
    for K, per_evaluation in ((1, 0), (2, 1)):
        model = GaussianMixtureScore(random_mixture(np.random.default_rng(32), K, 2), SCHED_100)
        calls.update(logsumexp=0, solve=0)
        for t in (1, 50, 100):
            model.score(x, t)
            model.jacobian(x, t)
            model.score_vjp(x, t, x)
        assert calls == {"logsumexp": 9 * per_evaluation, "solve": 0}, K


# A small pool makes ties likely, and nan and the infinities reach the
# fallback; dead columns are all -inf, as for a row whose every component
# density underflows.
LSE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -745.0, 709.0, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-800.0, max_value=800.0),
)


# The copy repeats scipy 1.17's operations; older releases compute
# logsumexp with other operations, so their bits may differ.
SCIPY_MINOR = tuple(int(p) for p in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(
    SCIPY_MINOR < (1, 17), reason="bit equality holds against scipy >= 1.17's logsumexp"
)
@settings(max_examples=300, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=4),
    cells=st.lists(LSE_VALUES, min_size=16, max_size=16),
    n=st.integers(min_value=1, max_value=4),
    dead=st.lists(st.integers(min_value=0, max_value=3), max_size=2),
)
# a_max - a overflows to -inf, whose exp is 0; scipy warns on it too.
@example(
    K=2, n=4, dead=[], cells=[1.7976931348623157e308, 0.0, 0.0, 0.0, -9.9792015476736e291] + [0.0] * 11
)
def test_logsumexp_has_the_bits_of_scipy(K, cells, n, dead):
    a = np.array(cells[: K * n]).reshape(K, n)
    a[:, [j for j in dead if j < n]] = -np.inf
    got = gmm_module._logsumexp(a)
    with np.errstate(over="ignore"):
        want = logsumexp(a, axis=0)
    assert np.array_equal(got, want, equal_nan=True), (a, got, want)


def reference_responsibilities(mix, x):
    """Responsibilities, score terms and log density from a Cholesky solve
    per component and logsumexp for every K: the reference the
    stored-inverse evaluation is checked against."""
    K, d = mix.K, mix.d
    N = x.shape[0]
    g = np.empty((K, N, d))
    log_joint = np.empty((K, N))
    for i in range(K):
        factor = cho_factor(mix.covariances[i], lower=True)
        diff = x - mix.means[i]
        solved = cho_solve(factor, diff.T).T
        g[i] = -solved
        quad = np.einsum("nj,nj->n", diff, solved)
        log_det = 2.0 * np.sum(np.log(np.diag(factor[0])))
        log_joint[i] = np.log(mix.weights[i]) - 0.5 * (quad + log_det + d * np.log(2.0 * np.pi))
    log_norm = logsumexp(log_joint, axis=0)
    r = np.exp(log_joint - log_norm)
    return r, g, log_norm


EDGE_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "1e200": 1e200, "-1e200": -1e200}


@settings(max_examples=60, deadline=None)
@example(K=3, d=4, t=3, rows=[("finite", False)], v_edge="nan", seed=4_294_967_294)
@given(
    K=st.integers(min_value=1, max_value=3),
    d=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=1, max_value=100),
    rows=st.lists(
        st.tuples(st.sampled_from(["finite", *EDGE_VALUES]), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    v_edge=st.sampled_from(["nan", "+inf", "-inf"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stored_inverse_matches_the_solve_and_flags_every_bad_row(K, d, t, rows, v_edge, seed):
    rng = np.random.default_rng(seed)
    model = GaussianMixtureScore(random_mixture(rng, K, d), SCHED_100)
    mix = marginal_at(model, t)
    x = rng.normal(size=(len(rows), d)) * 2.0
    for n, (kind, whole_row) in enumerate(rows):
        if kind != "finite":
            x[n, slice(None) if whole_row else int(rng.integers(d))] = EDGE_VALUES[kind]
    bad = np.array([kind != "finite" for kind, _ in rows])
    v = rng.normal(size=x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [model.score(x, t), model.jacobian(x, t), model.score_vjp(x, t, v)]
    # Finite rows agree with the Cholesky solve and logsumexp. Score entry j
    # sums the K d terms -r_k (x - mu_k)_i (Sigma_k^{-1})_ij, and both sides
    # carry an error of some ulps of the terms' magnitude, not of their sum
    # (33 at most over 4,000 draws). So the bound is rtol 1e-12 where the
    # sum keeps at least 1/16 of that magnitude, and 1e-12 of the
    # magnitude where the terms cancel further ...
    r, g, _ = reference_responsibilities(mix, x[~bad])
    want = np.einsum("kn,knd->nd", r, g)
    size = sum(
        r[i][:, None] * (np.abs(x[~bad] - mix.means[i]) @ np.abs(np.linalg.inv(cov)))
        for i, cov in enumerate(mix.covariances)
    )
    cancel = size > 16.0 * np.abs(want)
    score = got[0][~bad]
    np.testing.assert_allclose(score[~cancel], want[~cancel], rtol=1e-12)
    assert np.all(np.abs(score - want)[cancel] <= 1e-12 * size[cancel])
    # ... and every nan, inf or 1e200 row comes out as a nan row, silently.
    for out in got:
        assert np.all(np.isnan(out[bad]))
        assert np.all(np.isfinite(out[~bad]))
    # The stacked build has the bits of factoring this step alone, in all
    # four fields.
    factored = model._factored[t - 1]
    alone = gmm_module._factor(mix.weights, mix.means, mix.covariances)
    for field, got_field, want_field in zip(factored._fields, factored, alone):
        assert got_field.shape == want_field.shape, field
        assert got_field.tobytes() == want_field.tobytes(), field
    # The stored inverse is Li^T Li with Li = L^{-1} from numpy's
    # Cholesky, bit for bit, and lies within 1e-14 of its largest entry of
    # the Cholesky solve (the worst seen over 3,000 draws was 9.3e-16).
    for i in range(K):
        Li = np.linalg.solve(np.linalg.cholesky(mix.covariances[i]), np.eye(d))
        assert factored.inv_covs[i].tobytes() == (Li.T @ Li).tobytes()
        inv = cho_solve(cho_factor(mix.covariances[i], lower=True), np.eye(d))
        np.testing.assert_allclose(
            factored.inv_covs[i], inv, rtol=0, atol=1e-14 * np.abs(inv).max()
        )
    # A nan or inf row of v comes out of score_vjp as a nan row, silently,
    # and leaves the other rows' bits alone.
    x = rng.normal(size=x.shape) * 2.0
    bad_v = v.copy()
    bad_v[-1] = EDGE_VALUES[v_edge]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = model.score_vjp(x, t, bad_v)
    assert np.all(np.isnan(out[-1]))
    np.testing.assert_array_equal(out[:-1], model.score_vjp(x, t, v)[:-1])


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(min_value=1, max_value=2),
    d=st.sampled_from([1, 2, 3, 16]),
    rows=st.lists(st.sampled_from(["finite", *EDGE_VALUES]), min_size=1, max_size=6),
    extra=st.sampled_from([0, 1000]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# numpy's einsum returns +nan or -nan for one nan row depending on its
# operand's alignment, and g[1] of the (K, N, d) buffer starts 8 N d bytes
# in: here the reference's quad[1][0] is -nan and _components' +nan.
@example(K=2, d=1, rows=["nan"], extra=1000, seed=0)
def test_components_have_the_bits_of_the_plain_products(K, d, rows, extra, seed):
    """_components writes each product and its negation straight into g
    and quad: every entry that is not nan is byte for byte the plain
    -(diff @ inv) or -einsum(diff, g_i), for inf and 1e200 rows too, nan
    lies exactly where the plain product is nan, and nothing warns. A nan's
    sign bit is not kept; no output reads it."""
    rng = np.random.default_rng(seed)
    factored = GaussianMixtureScore(random_mixture(rng, K, d), SCHED_100)._factored[
        int(rng.integers(100))
    ]
    x = rng.normal(size=(len(rows) + extra, d)) * 2.0
    for n, kind in enumerate(rows):
        if kind != "finite":
            x[n, int(rng.integers(d))] = EDGE_VALUES[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, quad = gmm_module._components(factored, x)
    with np.errstate(all="ignore"):
        for i in range(K):
            diff = x - factored.means[i]
            want_g = -(diff @ factored.inv_covs[i])
            want_quad = -np.einsum("nj,nj->n", diff, want_g)
            for got, want in ((g[i], want_g), (quad[i], want_quad)):
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()


def test_batched_and_single_point_paths_agree():
    sched = linear_schedule(100)
    gmm = bimodal()
    x = np.array([[0.4, -1.0], [2.2, 0.3]])
    model = GaussianMixtureScore(gmm, sched)
    batch = model.score(x, 17)
    for k in range(2):
        np.testing.assert_array_equal(batch[k], model.score(x[k : k + 1], 17)[0])


def test_logpdf_matches_scipy_reference():
    gmm = bimodal(sep=1.0, var=0.5)
    mix = marginal_mixture(gmm, 0.37)
    rng = np.random.default_rng(23)
    x = rng.normal(size=(10, 2)) * 2.5
    reference = np.log(
        0.5 * multivariate_normal.pdf(x, mean=mix.means[0], cov=mix.covariances[0])
        + 0.5 * multivariate_normal.pdf(x, mean=mix.means[1], cov=mix.covariances[1])
    )
    np.testing.assert_allclose(mixture_logpdf(mix, x), reference, rtol=1e-10)


def test_score_is_gradient_of_logpdf():
    gmm = bimodal(sep=1.3, var=0.6)
    sched = NoiseSchedule([0.4])
    mix = marginal_mixture(gmm, float(sched.alpha_bars[0]))
    x = np.array([[0.9, -0.4]])
    h = 1e-6
    e = h * np.eye(2)  # row j bumps coordinate j
    grad = (mixture_logpdf(mix, x + e) - mixture_logpdf(mix, x - e)) / (2 * h)
    np.testing.assert_allclose(GaussianMixtureScore(gmm, sched).score(x, 1), [grad], atol=1e-8)


def test_far_tail_responsibilities_stay_finite():
    sched = linear_schedule(1000)
    gmm = bimodal(sep=3.0, var=0.2)
    x = np.array([[80.0, -75.0]])
    model = GaussianMixtureScore(gmm, sched)
    assert np.all(np.isfinite(model.score(x, 1)))
    assert np.all(np.isfinite(model.jacobian(x, 1)))


def test_sampling_moments():
    gmm = bimodal(sep=2.0, var=0.5)
    rng = np.random.default_rng(101)
    draws = gmm.sample(rng, 40000)
    np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.05)
    # Var along the separation axis: within-component 0.5 plus between-component 4.
    np.testing.assert_allclose(draws[:, 0].var(), 4.5, rtol=0.05)
    np.testing.assert_allclose(draws[:, 1].var(), 0.5, rtol=0.05)


def test_mixture_validation_errors():
    with pytest.raises(ValueError):
        GaussianMixture.isotropic([0.6, 0.6], [[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            covariances=np.array([[[1.0, 0.5], [0.0, 1.0]]]),
        )
    with pytest.raises(ValueError):
        GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[0.0, 0.0]]),
            covariances=np.array([[[1.0, 0.0], [0.0, -2.0]]]),
        )
    # A nan weight or mean is named, not accepted: abs(nan - 1) > 1e-12 is False.
    with pytest.raises(ValueError, match="mixture weights must be finite"):
        GaussianMixture.isotropic([np.nan, np.nan], [[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="mixture means must be finite"):
        GaussianMixture.isotropic([1.0], [[np.nan, 0.0]], [1.0])
    with pytest.raises(ValueError, match="mixture covariances must be finite"):
        GaussianMixture.isotropic([1.0], [[0.0, 0.0]], [np.inf])


def test_finite_diff_oracle_on_linear_and_constant_maps():
    class Linear:
        dim = 2

        def score(self, x, t):
            return -x

    class Constant:
        dim = 2

        def score(self, x, t):
            return np.tile([0.3, -0.7], (len(x), 1))

    J = finite_diff_jacobian(Linear(), np.array([1.0, 2.0]), 1)
    np.testing.assert_allclose(J, -np.eye(2), atol=1e-10)
    Z = finite_diff_jacobian(Constant(), np.array([1.0, 2.0]), 1)
    np.testing.assert_allclose(Z, np.zeros((2, 2)), atol=1e-12)
