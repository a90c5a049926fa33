"""Closed-form mixture scores, their derivatives, and the difference oracle."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    finite_diff_jacobian,
    marginal_mixture,
    mixture_logpdf,
)
from ficd.scoremodel import gmm as gmm_module


def single_gaussian(var=1.0, d=2):
    return GaussianMixture.isotropic([1.0], [np.zeros(d)], [var])


def bimodal(d=2, sep=2.0, var=1.0):
    mu = np.zeros(d)
    mu[0] = sep
    return GaussianMixture.isotropic([0.5, 0.5], [mu, -mu], [var, var])


def test_marginal_score_at_half_alpha_bar():
    # alpha_bar = 0.5 makes the unit-Gaussian marginal exactly standard normal.
    sched = NoiseSchedule([0.5])
    s = GaussianMixtureScore(single_gaussian(), sched).score(np.array([2.0, 0.0]), 1)
    np.testing.assert_allclose(s, [-2.0, 0.0], atol=1e-12)


def test_marginal_score_near_clean_data():
    sched = NoiseSchedule([1e-12])
    x = np.array([0.7, -1.3])
    s = GaussianMixtureScore(single_gaussian(), sched).score(x, 1)
    np.testing.assert_allclose(s, -x, atol=1e-9)


def test_marginal_score_vanishes_at_symmetry_point():
    sched = linear_schedule(100)
    s = GaussianMixtureScore(bimodal(), sched).score(np.zeros(2), 37)
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


def reference_jacobian(model, x, t):
    """The step-t mixture's second derivative in closed form: sum_i r_i
    (-Sigma_i^{-1}) plus the responsibility-weighted covariance of the g_i,
    sum_i r_i g_i g_i^T - s s^T; (d, d) for a point, (N, d, d) for a batch.
    Responsibilities come from reference_responsibilities below and the
    inverses from np.linalg.inv of the marginal covariances."""
    mix = marginal_mixture(model.gmm, float(model.schedule.alpha_bars[t - 1]))
    r, g, _ = reference_responsibilities(model._factored[t - 1], np.atleast_2d(x))
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
    shape=st.sampled_from(["point", "batch", "broadcast v"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vjp_agrees_with_materialized_jacobian(K, d, t, shape, seed):
    rng = np.random.default_rng(seed)
    model = GaussianMixtureScore(random_mixture(rng, K, d), SCHED_100)
    x = rng.normal(size=d if shape == "point" else (5, d)) * 2.0
    v = rng.normal(size=(5, d) if shape == "batch" else d)
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
    # Every step's marginal is factored at construction; evaluating the
    # score, its Jacobian or its pullback must not factor or rebuild one.
    calls = {"cho_factor": 0, "GaussianMixture": 0}
    gmm = random_mixture(np.random.default_rng(29), 3, 2)
    model = GaussianMixtureScore(gmm, SCHED_100)
    monkeypatch.setattr(gmm_module, "cho_factor", counted(calls, "cho_factor", gmm_module.cho_factor))
    monkeypatch.setattr(
        gmm_module, "GaussianMixture", counted(calls, "GaussianMixture", gmm_module.GaussianMixture)
    )
    x = np.random.default_rng(30).normal(size=(5, 2))
    mixture_logpdf(marginal_mixture(gmm, 0.5), x)
    assert calls == {"cho_factor": 3, "GaussianMixture": 1}  # the counters see work
    calls.update(cho_factor=0, GaussianMixture=0)
    for t in (1, 50, 100):
        model.score(x, t)
        model.score(x[0], t)
        model.jacobian(x, t)
        model.score_vjp(x, t, x)
    assert calls == {"cho_factor": 0, "GaussianMixture": 0}


def test_one_component_skips_logsumexp(monkeypatch):
    # One component needs no normalizer call, and no evaluation goes through
    # the cho_solve wrapper: the solves call LAPACK directly.
    calls = {"logsumexp": 0, "cho_solve": 0}
    monkeypatch.setattr(gmm_module, "logsumexp", counted(calls, "logsumexp", logsumexp))
    monkeypatch.setattr(
        gmm_module, "cho_solve", counted(calls, "cho_solve", cho_solve), raising=False
    )
    x = np.random.default_rng(31).normal(size=(5, 2))
    for K, per_evaluation in ((1, 0), (2, 1)):
        model = GaussianMixtureScore(random_mixture(np.random.default_rng(32), K, 2), SCHED_100)
        calls.update(logsumexp=0, cho_solve=0)
        for t in (1, 50, 100):
            model.score(x, t)
            model.jacobian(x, t)
            model.score_vjp(x, t, x)
        assert calls == {"logsumexp": 9 * per_evaluation, "cho_solve": 0}, K


def test_solve_reports_lapack_errors(monkeypatch):
    L = np.linalg.cholesky(2.0 * np.eye(3))
    b = np.arange(12.0).reshape(3, 4)
    np.testing.assert_allclose(gmm_module._solve(L, b), 0.5 * b, rtol=1e-15)
    # A factor that is not square is refused before LAPACK runs ...
    with pytest.raises(Exception, match=r"shape\(c,0\)==shape\(c,1\)"):
        gmm_module._solve(np.ones((3, 2)), b)
    # ... so potrs's own report of an illegal argument comes from a stand-in.
    monkeypatch.setattr(gmm_module, "dpotrs", lambda c, b, lower: (b, -5))
    with pytest.raises(ValueError, match="illegal value in 5th argument of internal potrs"):
        gmm_module._solve(L, b)


def reference_responsibilities(factored, x):
    """The evaluation as it was before the direct solve and the one-component
    closed form: cho_solve and logsumexp for every K."""
    K, d = factored.means.shape
    N = x.shape[0]
    g = np.empty((K, N, d))
    log_joint = np.empty((K, N))
    for i in range(K):
        diff = x - factored.means[i]
        solved = cho_solve((factored.cholesky[i], True), diff.T, check_finite=False).T
        g[i] = -solved
        quad = np.einsum("nj,nj->n", diff, solved)
        log_joint[i] = factored.log_weights[i] - 0.5 * (
            quad + factored.log_dets[i] + d * np.log(2.0 * np.pi)
        )
    log_norm = logsumexp(log_joint, axis=0)
    r = np.exp(log_joint - log_norm)
    return r, g, log_norm


EDGE_VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "1e200": 1e200, "-1e200": -1e200}


def evaluate_all(model, x, t, v):
    """score, jacobian and score_vjp at (x, t), with the warnings they raise."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = [model.score(x, t), model.jacobian(x, t), model.score_vjp(x, t, v)]
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=60, deadline=None)
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
def test_direct_solve_and_closed_form_keep_every_bit(K, d, t, rows, v_edge, seed):
    rng = np.random.default_rng(seed)
    model = GaussianMixtureScore(random_mixture(rng, K, d), SCHED_100)
    x = rng.normal(size=(len(rows), d)) * 2.0
    for n, (kind, whole_row) in enumerate(rows):
        if kind != "finite":
            x[n, slice(None) if whole_row else int(rng.integers(d))] = EDGE_VALUES[kind]
    v = rng.normal(size=x.shape)
    got, got_warnings = evaluate_all(model, x, t, v)
    with mock.patch.object(gmm_module, "_responsibilities", reference_responsibilities):
        want, want_warnings = evaluate_all(model, x, t, v)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # nan payloads count
    assert got_warnings == want_warnings
    factored = model._factored[t - 1]
    for i in range(K):
        inv = cho_solve((factored.cholesky[i], True), np.eye(d))
        assert factored.inv_covs[i].tobytes() == inv.tobytes()
    # A nan or inf row of v comes out of score_vjp as a nan row, silently,
    # and leaves the other rows' bits alone.
    x = rng.normal(size=x.shape) * 2.0
    bad = v.copy()
    bad[-1] = EDGE_VALUES[v_edge]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = model.score_vjp(x, t, bad)
    assert np.all(np.isnan(out[-1]))
    np.testing.assert_array_equal(out[:-1], model.score_vjp(x, t, v)[:-1])


def test_batched_and_single_point_paths_agree():
    sched = linear_schedule(100)
    gmm = bimodal()
    x = np.array([[0.4, -1.0], [2.2, 0.3]])
    model = GaussianMixtureScore(gmm, sched)
    batch = model.score(x, 17)
    for k in range(2):
        np.testing.assert_array_equal(batch[k], model.score(x[k], 17))


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
    x = np.array([0.9, -0.4])
    h = 1e-6
    grad = np.empty(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        grad[j] = (mixture_logpdf(mix, x + e) - mixture_logpdf(mix, x - e)) / (2 * h)
    np.testing.assert_allclose(GaussianMixtureScore(gmm, sched).score(x, 1), grad, atol=1e-8)


def test_far_tail_responsibilities_stay_finite():
    sched = linear_schedule(1000)
    gmm = bimodal(sep=3.0, var=0.2)
    x = np.array([80.0, -75.0])
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


def test_finite_diff_oracle_on_linear_and_constant_maps():
    class Linear:
        dim = 2

        def score(self, x, t):
            return -x

    class Constant:
        dim = 2

        def score(self, x, t):
            return np.array([0.3, -0.7]) if x.ndim == 1 else np.tile([0.3, -0.7], (len(x), 1))

    J = finite_diff_jacobian(Linear(), np.array([1.0, 2.0]), 1)
    np.testing.assert_allclose(J, -np.eye(2), atol=1e-10)
    Z = finite_diff_jacobian(Constant(), np.array([1.0, 2.0]), 1)
    np.testing.assert_allclose(Z, np.zeros((2, 2)), atol=1e-12)
