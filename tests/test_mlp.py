"""Learned noise-prediction net: derivatives, training, and persistence."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ficd.guidance import Condition, DistanceEnergy
from ficd.posterior import PosteriorPartStrategy
from ficd.sampler import SamplerConfig, sample
from ficd.schedule import linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    LearnedScoreModel,
    NetSpec,
    TrainingDivergedError,
    eps_to_score,
    finite_diff_jacobian,
    load_model,
    mixture_logpdf,
    save_model,
    sinusoidal_time_embedding,
    train_dsm,
)
from ficd.scoremodel.mlp import _forward
from float64_twin import Float64Twin

SCHED = linear_schedule(100)
SMALL = NetSpec(hidden_width=32, hidden_layers=2, time_embed_dim=16)
EPS32 = np.finfo(np.float32).eps


def fresh_model(seed=0, d=2, spec=SMALL):
    return LearnedScoreModel.init(spec, SCHED, d, np.random.default_rng(seed))


def test_time_embedding_shape_and_range():
    emb = sinusoidal_time_embedding(np.array([0.0, 0.5, 1.0]), 16)
    assert emb.shape == (3, 16)
    assert np.all(np.abs(emb) <= 1.0)
    # t = 0 gives sin 0 / cos 0 exactly.
    np.testing.assert_array_equal(emb[0, :8], 0.0)
    np.testing.assert_array_equal(emb[0, 8:], 1.0)


def test_eps_score_conversions_round_trip():
    eps = np.array([1.0, 0.0])
    sched = linear_schedule(10, 0.25, 0.25)  # alpha_bar_1 = 0.75
    np.testing.assert_array_equal(eps_to_score(eps, sched, 1), [-2.0, 0.0])
    abar_3 = float(sched.alpha_bars[2])
    np.testing.assert_allclose(eps_to_score(eps, sched, 3), -eps / np.sqrt(1.0 - abar_3), rtol=1e-15)


def test_untrained_model_is_flagged():
    model = train_dsm(np.zeros((4, 2)), SMALL, SCHED, steps=0, seed=5)
    assert model.trained is False
    assert model.final_loss is None


def test_forward_batch_matches_single():
    # Identical up to the last-bit reassociation BLAS applies to different
    # matmul shapes; bitwise equality is only promised for identical shapes.
    twin = Float64Twin(fresh_model())
    x = np.random.default_rng(1).normal(size=(5, 2))
    batch = twin.score(x, 40)
    for k in range(5):
        one_row = twin.score(x[k : k + 1], 40)
        np.testing.assert_allclose(batch[k], one_row[0], rtol=1e-12, atol=1e-14)


def test_jacobian_matches_central_differences():
    model = fresh_model(seed=3)
    twin = Float64Twin(model)
    rng = np.random.default_rng(4)
    for t in (5, 50, 95):
        x = rng.normal(size=2)
        J = twin.jacobian(x, t)
        fd = finite_diff_jacobian(twin, x, t)
        assert np.linalg.norm(J - fd) / np.linalg.norm(fd) < 1e-5
    # Steps outside 1..T have no alpha_bar; -1 must not wrap to alpha_bar_T.
    for t in (0, -1, SCHED.T + 1):
        for call in (model.score, model.jacobian, lambda x, t: model.score_vjp(x, t, x)):
            with pytest.raises(IndexError):
                call(x[None], t)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    t=st.integers(min_value=1, max_value=SCHED.T),
    n=st.sampled_from([1, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vjp_is_transpose_jacobian_action(d, t, n, seed):
    model = Float64Twin(fresh_model(seed=seed, d=d))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    v = rng.normal(size=(n, d))
    J = model.jacobian(x, t)
    expected = np.einsum("...ij,...i->...j", J, v)
    got = model.score_vjp(x, t, v)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
    # jacobian is built from score_vjp, so central differences are the
    # independent reference for the pullback itself.
    for xi, vi, gi in zip(x, v, got):
        fd = finite_diff_jacobian(model, xi, t).T @ vi
        assert np.linalg.norm(gi - fd) / np.linalg.norm(fd) < 1e-5


# Largest |float32 model - float64 twin| over the largest entry of the
# twin's output, in units of eps32. Over 20,000 draws of this test's kind
# (SMALL nets, d 1..4, t 1..100, 16 rows) the worst was 125.5 eps32 (score,
# batch and single rows alike), 63.4 (score_vjp) and 37.3 (jacobian); the
# 99.9th percentiles were 16-27, and the test's own draws reach 11.5. The
# tail comes from d = 1, where the largest of 16 entries can be small
# beside the terms that sum to it; with d > 1 the worst was 11.4.
TWIN_BOUND_EPS32 = 160


def test_float32_model_stays_within_bound_of_its_twin(tmp_path):
    def rel(got, want):
        assert got.dtype == np.float64
        return np.abs(got - want).max() / np.abs(want).max() / EPS32

    meta = np.random.default_rng(30)
    for _ in range(100):
        d, t = int(meta.integers(1, 5)), int(meta.integers(1, SCHED.T + 1))
        seed = int(meta.integers(0, 2**32))
        model = fresh_model(seed=seed, d=d)
        twin = Float64Twin(model)
        rng = np.random.default_rng(seed)
        x, v = rng.normal(size=(16, d)), rng.normal(size=(16, d))
        want = twin.score(x, t)
        assert rel(model.score(x, t), want) < TWIN_BOUND_EPS32
        one_rows = np.concatenate([model.score(row[None], t) for row in x])
        assert rel(one_rows, want) < TWIN_BOUND_EPS32
        assert rel(model.score_vjp(x, t, v), twin.score_vjp(x, t, v)) < TWIN_BOUND_EPS32
        assert rel(model.jacobian(x, t), twin.jacobian(x, t)) < TWIN_BOUND_EPS32

    # float32 inside the model, float64 at its boundary. A float64 dump, as
    # an older save_model wrote, loads by rounding.
    trained = train_dsm(np.random.default_rng(31).standard_normal((64, 2)), SMALL, SCHED, steps=3)
    path = tmp_path / "float64.npz"
    save_model(trained, path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    for key in arrays:
        if key.startswith(("W_", "b_")):
            arrays[key] = arrays[key].astype(np.float64) + 1e-9
    np.savez(path, **arrays)
    loaded = load_model(path)
    for model in (fresh_model(), trained, loaded):
        assert all(p.dtype == np.float32 for p in model.weights + model.biases)
    for l, (W, b) in enumerate(zip(loaded.weights, loaded.biases)):
        np.testing.assert_array_equal(W, arrays[f"W_{l}"].astype(np.float32))
        np.testing.assert_array_equal(b, arrays[f"b_{l}"].astype(np.float32))
    samples, _ = sample(
        SamplerConfig(T=SCHED.T, strategy=PosteriorPartStrategy.EXACT, rho=0.05, n_chains=8),
        trained,
        DistanceEnergy(),
        Condition.target([1.0, 1.0]),
    )
    x = np.random.default_rng(32).normal(size=(3, 2))
    for out in (
        trained.score(x, 50),
        trained.score_vjp(x, 50, x),
        trained.jacobian(x, 50),
        trained.jacobian(x[0], 50),
        samples,
    ):
        assert out.dtype == np.float64


def test_training_is_deterministic_given_seed():
    data = np.random.default_rng(8).standard_normal((256, 2))
    a = train_dsm(data, SMALL, SCHED, steps=50, seed=42)
    b = train_dsm(data, SMALL, SCHED, steps=50, seed=42)
    assert a.final_loss == b.final_loss
    for Wa, Wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(Wa, Wb)


def sha256_of(arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return digest.hexdigest()


# Recorded on x86-64 with OpenBLAS (numpy 2.4, scipy 1.17), with the net
# in float32, its first layer as x @ W0[:d] plus a cached time row, and its
# SiLU as a / (1 + exp(-a)) with the derivative s + h (1 - s): the pullback
# cache and the in-place optimizer must reproduce the recomputing forward
# and the allocating update bit for bit. The SiLU runs through numpy's
# float32 exp, which dispatches on CPU features (AVX-512 where these were
# recorded), so like the OpenBLAS GEMM bits these pins hold on such a host.
def test_trained_weights_are_pinned():
    data = np.random.default_rng(8).standard_normal((256, 2))
    model = train_dsm(data, SMALL, SCHED, steps=50, seed=42)
    assert sha256_of(model.weights + model.biases) == (
        "c1593720747fe3649f5ba97ccc5105aab09de0349ac36ba00b173f502d19f9f9"
    )


def test_score_outputs_are_pinned():
    model = fresh_model()
    rng = np.random.default_rng(21)
    x, v = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    assert sha256_of([model.score(x, 37)]) == (
        "4c56710a165bf2476220605b60cf45b306a908c2406e6cd7b59bf2aaceeb7ed0"
    )
    assert sha256_of([model.score_vjp(x, 37, v)]) == (
        "5f1aa7f863b10fcc66d9a0d584c2cfde1ec07c93bf8d5dff240a15d7519d86ff"
    )
    assert sha256_of([model.jacobian(x, 37)]) == (
        "530177c4188704772954eacb515a319ac16205d7d0bc3dbf8c33fbe71a9d1522"
    )


def test_score_forward_keeps_no_pullback_cache():
    model = fresh_model()
    x = np.random.default_rng(22).normal(size=(3, 2)).astype(np.float32)
    eps, cache = _forward(*model._net(37), x)
    assert cache is None
    eps_pb, (inputs, derivs) = _forward(*model._net(37), x, pullback=True)
    np.testing.assert_array_equal(eps, eps_pb)
    assert len(inputs) == SMALL.hidden_layers + 1 and len(derivs) == SMALL.hidden_layers
    assert inputs[0] is x


@pytest.mark.parametrize("T", [100, 1000])
def test_embedding_table_has_the_bits_of_the_embedding(T):
    sched = linear_schedule(T)
    model = LearnedScoreModel.init(SMALL, sched, 2, np.random.default_rng(0))
    assert model._embedding.shape == (T, SMALL.time_embed_dim)
    for t in range(1, T + 1):
        row = sinusoidal_time_embedding(t / T, SMALL.time_embed_dim).astype(np.float32)
        np.testing.assert_array_equal(model._embedding[t - 1], row)


def test_time_rows_are_read_only_and_rebuilt_on_load(tmp_path):
    model = train_dsm(np.random.default_rng(15).standard_normal((64, 2)), SMALL, SCHED, steps=5)
    assert model._time_rows.shape == (SCHED.T, SMALL.hidden_width)
    assert model._time_rows.dtype == np.float32
    for table in (model._embedding, model._time_rows):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded._embedding, model._embedding)
    np.testing.assert_array_equal(loaded._time_rows, model._time_rows)
    assert not loaded._time_rows.flags.writeable


def test_both_models_reject_bad_shapes_by_name():
    bad_x = [np.zeros(3), np.zeros((4, 3)), np.zeros((4, 2, 1))]
    bad_v = [
        (np.zeros((4, 2)), np.zeros((4, 3))),
        (np.zeros((4, 2)), np.zeros(3)),
        (np.zeros((4, 2)), np.zeros((3, 2))),
        (np.zeros(2), np.zeros((3, 2))),
        # score_vjp takes v in x's shape only: no one-row or point v for all rows.
        (np.zeros((4, 2)), np.zeros((1, 2))),
        (np.zeros((4, 2)), np.zeros(2)),
    ]
    mixture = GaussianMixtureScore(GaussianMixture.isotropic([1.0], [np.zeros(2)], [1.0]), SCHED)
    for model in (fresh_model(), mixture):
        for x in bad_x:
            for call in (model.score, model.jacobian, lambda x, t: model.score_vjp(x, t, x)):
                with pytest.raises(ValueError, match=r"expected \("):
                    call(x, 37)
        # score and score_vjp take rows only; the point-wise jacobian takes a point too.
        for call in (model.score, lambda x, t: model.score_vjp(x, t, x)):
            with pytest.raises(ValueError, match=r"expected \(N, 2\)"):
                call(np.zeros(2), 37)
        for x, v in bad_v:
            with pytest.raises(ValueError, match=r"expected \("):
                model.score_vjp(x, 37, v)
    with pytest.raises(ValueError, match=r"expected \(N, 2\)"):
        mixture_logpdf(mixture.gmm, np.zeros(2))


def test_sigmoid_edges_match_expit():
    # One hidden unit with unit weights and zero biases: the net's output is
    # the SiLU a * s(a) of its input a, and the cache holds s (1 + a (1 - s)).
    # The grid runs well past exp's overflow near |a| = 709; an overflow
    # warning would fail the test, since RuntimeWarning is an error here.
    a = np.concatenate([np.linspace(-1e3, 1e3, 400_001), [-745.5, -709.8, -5e-324, 0.0]])
    weights, biases = [np.ones((1, 1))] * 2, [np.zeros(1)] * 2
    eps, (_, (deriv,)) = _forward(weights, biases, a[:, None], pullback=True)
    silu, deriv = eps[:, 0], deriv[:, 0]
    nonzero = a != 0.0
    s = silu[nonzero] / a[nonzero]
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert np.all(np.isfinite(deriv))
    # numpy's exp may differ from the C library's exp that expit calls in
    # the last bit; that moves each output by well under 1e-15 relative.
    ref = expit(a) * a
    np.testing.assert_allclose(silu, ref, rtol=1e-15, atol=0.0)

    # The same in float32, the net's precision, against float64 expit. Here
    # exp(-a) overflows below a = -88.72, and expit(a) itself rounds to 0
    # below a = -103.97.
    a32 = np.concatenate(
        [np.linspace(-200.0, 200.0, 400_001), [-103.98, -103.9, -88.7229, -88.7228, -88.7]]
    ).astype(np.float32)
    a32 = np.concatenate([a32, np.float32([-1.4e-45, 0.0, 1.4e-45, 3.4e38, -3.4e38])])
    weights32, biases32 = [np.ones((1, 1), np.float32)] * 2, [np.zeros(1, np.float32)] * 2
    out32, (_, (deriv32,)) = _forward(weights32, biases32, a32[:, None], pullback=True)
    silu32, deriv32 = out32[:, 0].astype(np.float64), deriv32[:, 0]
    assert out32.dtype == np.float32 and deriv32.dtype == np.float32
    a64 = a32.astype(np.float64)
    nonzero = a64 != 0.0
    s32 = silu32[nonzero] / a64[nonzero]
    assert np.all((s32 >= 0.0) & (s32 <= 1.0))
    assert np.all(np.isfinite(deriv32))
    # Over this grid the SiLU was at most 2.52 eps32 from the reference in
    # relative terms. Where exp(-a) overflows, s is 0 and the SiLU flushes to
    # -0, at most |a| exp(a) <= 22.2 float32 tiny from the reference.
    tiny32 = float(np.finfo(np.float32).tiny)
    np.testing.assert_allclose(silu32, expit(a64) * a64, rtol=4 * EPS32, atol=32 * tiny32)


def test_nan_rows_stay_nan_rows():
    # A flagged chain is stepped as a nan row; it must not spread to the
    # other rows of its block, or raise a warning. A row beyond float32
    # range, in x or in v, comes out as a nan row too.
    model = fresh_model()
    rng = np.random.default_rng(23)
    x, v = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    x[1] = np.nan
    for out in (model.score(x, 37), model.score_vjp(x, 37, v)):
        assert np.all(np.isnan(out[1]))
        assert np.all(np.isfinite(out[[0, 2, 3]]))
    for big in (1e39, -1e39, 1e200):
        x, v = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        far = x.copy()
        far[2, 0] = big
        for out in (model.score(far, 37), model.score_vjp(far, 37, v)):
            assert np.all(np.isnan(out[2]))
            assert np.all(np.isfinite(out[[0, 1, 3]]))
        assert np.all(np.isnan(model.score(far[2:3], 37)))
        v[2, 1] = big
        out = model.score_vjp(x, 37, v)
        assert np.all(np.isnan(out[2]))
        assert np.all(np.isfinite(out[[0, 1, 3]]))


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"batch_size": 0}, "batch_size"),
        ({"learning_rate": -0.01}, "learning_rate"),
        ({"learning_rate": 0.0}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"momentum": -0.1}, "momentum"),
        ({"momentum": 1.0}, "momentum"),
        ({"momentum": float("nan")}, "momentum"),
        ({"steps": -1}, "steps"),
    ],
)
def test_bad_hyperparameters_name_the_argument(kwargs, name):
    with pytest.raises(ValueError, match=name):
        train_dsm(np.zeros((4, 2)), SMALL, SCHED, **{"steps": 3, **kwargs})


def test_training_reduces_loss_and_diverges_loudly():
    data = np.random.default_rng(9).standard_normal((512, 2))
    start = train_dsm(data, SMALL, SCHED, steps=1, seed=0)
    done = train_dsm(data, SMALL, SCHED, steps=400, seed=0)
    assert done.trained and done.final_loss < start.final_loss
    with pytest.raises(TrainingDivergedError):
        train_dsm(data, SMALL, SCHED, steps=400, learning_rate=1e3, seed=0)


def test_point_mass_dataset_recovers_noise_only_score():
    # All data at the origin: the step-t marginal is N(0, (1 - abar_t) I),
    # whose score is -x / (1 - abar_t).
    model = train_dsm(
        np.zeros((64, 2)), SMALL, SCHED, steps=4000, learning_rate=3e-3, seed=10, batch_size=128
    )
    rng = np.random.default_rng(11)
    for t in (40, 60):
        abar = float(SCHED.alpha_bars[t - 1])
        x = rng.normal(size=(400, 2)) * np.sqrt(1.0 - abar)
        err = np.mean((model.score(x, t) - (-x / (1.0 - abar))) ** 2)
        scale = np.mean((x / (1.0 - abar)) ** 2)
        assert err / scale < 0.05


def test_standard_normal_dataset_recovers_linear_score():
    data = np.random.default_rng(0).standard_normal((4096, 2))
    model = train_dsm(
        data, NetSpec(hidden_width=64, hidden_layers=2, time_embed_dim=16), SCHED,
        steps=6000, learning_rate=3e-3, seed=1, batch_size=256,
    )
    xs = np.random.default_rng(2).standard_normal((800, 2))
    for t in (40, 50, 60):
        mse = float(np.mean((model.score(xs, t) - (-xs)) ** 2))
        assert mse < 0.05, f"t={t}: mse={mse}"


def test_save_load_round_trip(tmp_path):
    data = np.random.default_rng(12).standard_normal((128, 3))
    model = train_dsm(data, SMALL, SCHED, steps=30, seed=13)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.trained and loaded.final_loss == model.final_loss
    assert loaded.dim == 3 and loaded.spec == model.spec
    np.testing.assert_array_equal(loaded.schedule.betas, SCHED.betas)
    np.testing.assert_array_equal(loaded.schedule.alpha_bars, SCHED.alpha_bars)
    for Wa, Wb in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(Wa, Wb)
    x = np.random.default_rng(14).normal(size=(4, 3))
    np.testing.assert_array_equal(loaded.score(x, 20), model.score(x, 20))


def test_weights_must_match_the_spec_and_dimension(tmp_path):
    # A spec that misstates the width, or a d that misstates the input,
    # names the layer at construction; a dump that records them wrong is
    # refused on load instead of returning the wrong spec or failing in a
    # matmul later.
    model = fresh_model()  # SMALL: width 32, 2 hidden layers, embedding 16, d = 2
    args = (model.weights, model.biases)
    wide = NetSpec(hidden_width=64, hidden_layers=2, time_embed_dim=16)
    with pytest.raises(ValueError, match=r"layer 0 has weights \(18, 32\)"):
        LearnedScoreModel(wide, SCHED, 2, *args)
    with pytest.raises(ValueError, match=r"layer 0 .* at d = 3 needs \(19, 32\)"):
        LearnedScoreModel(SMALL, SCHED, 3, *args)
    with pytest.raises(ValueError, match=r"layer 2 has weights \(32, 2\) and bias \(3,\)"):
        LearnedScoreModel(SMALL, SCHED, 2, model.weights, [*model.biases[:2], np.zeros(3)])
    path = tmp_path / "model.npz"
    save_model(model, path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(path, **{**arrays, "hidden_width": np.array(64)})
    with pytest.raises(ValueError, match="layer 0 has weights"):
        load_model(path)
