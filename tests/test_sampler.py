"""Sampling loop tests: step formulas, determinism, costs, and failure policy."""

import dataclasses
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from call_counts import recorded_calls
from ficd.guidance import (
    Condition,
    DistanceEnergy,
    EnergyFunction,
    LinearMeasurementEnergy,
    QuadraticEnergy,
)
from ficd import sampler
from ficd.posterior import PosteriorPartStrategy, strategy_name, tweedie_from_score
from ficd.sampler import (
    ChainFailureError,
    Discretization,
    SamplerConfig,
    ddim_sigma,
    sample,
    slot_rng,
    step,
)
from ficd.schedule import NoiseSchedule, alpha_bar, linear_schedule, middle_third
from ficd.scoremodel import GaussianMixture, GaussianMixtureScore, ScoreModel


ALL_STRATEGIES = [
    PosteriorPartStrategy.EXACT,
    PosteriorPartStrategy.FICD,
    PosteriorPartStrategy.MPGD,
    PosteriorPartStrategy.UNIT,
]


def unit_gaussian_model(T, d=2):
    gmm = GaussianMixture.isotropic([1.0], [[0.0] * d], [1.0])
    return GaussianMixtureScore(gmm, linear_schedule(T))


def bimodal_model(T):
    gmm = GaussianMixture.isotropic([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]], [0.4, 0.4])
    return GaussianMixtureScore(gmm, linear_schedule(T))


class ZeroEnergy(EnergyFunction):
    def value(self, x, c):
        x = np.asarray(x)
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[0])

    def grad(self, x, c):
        return np.zeros_like(np.asarray(x, dtype=np.float64))


class InfEnergy(EnergyFunction):
    def value(self, x, c):
        return np.inf

    def grad(self, x, c):
        return np.full_like(np.asarray(x, dtype=np.float64), np.inf)


class RowPoisonModel:
    """Delegates to a real model but corrupts score rows at one step."""

    def __init__(self, inner, poison_t, rows, value=np.nan):
        self.inner = inner
        self.poison_t = poison_t
        self.rows = rows
        self.value = value

    @property
    def schedule(self):
        return self.inner.schedule

    @property
    def dim(self):
        return self.inner.dim

    def score(self, x, t):
        s = np.array(self.inner.score(x, t))
        if t == self.poison_t and s.ndim == 2:
            s[self.rows] = self.value
        return s

    def score_vjp(self, x, t, v):
        return self.inner.score_vjp(x, t, v)


class HalfSlopeModel:
    """Score -x/2 on an explicit schedule: the Euler drift cancels to x."""

    dim = 3

    def __init__(self, betas):
        self.schedule = NoiseSchedule(betas)

    def score(self, x, t):
        return -0.5 * x


class ScoreKeepingModel:
    """Delegates to a real model, keeping each score it hands out beside a
    copy, and counting the score calls."""

    def __init__(self, inner):
        self.inner = inner
        self.given = []

    @property
    def schedule(self):
        return self.inner.schedule

    @property
    def dim(self):
        return self.inner.dim

    def score(self, x, t):
        s = self.inner.score(x, t)
        self.given.append((s, s.copy()))
        return s

    def score_vjp(self, x, t, v):
        return self.inner.score_vjp(x, t, v)


# --- single steps ------------------------------------------------------


def test_euler_parts_degenerate_and_simple():
    model = HalfSlopeModel([0.1, 0.25])
    x = np.array([1.0, -2.0, 0.5])
    # (1 + beta/2) x + beta (-x/2) = x for any beta.
    out, _ = step(None, model, None, x, 1, None, 0.0, 1.0, np.zeros(3))
    assert np.array_equal(out, x)
    noise = np.array([1.0, 0.0, -1.0])
    out, _ = step(None, model, None, np.zeros(3), 2, None, 0.0, 1.0, noise)
    assert np.allclose(out, 0.5 * noise, rtol=1e-15)


def test_unconditional_step_matches_formula():
    T = 10
    model = unit_gaussian_model(T)
    sched = model.schedule
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2))
    noise = rng.standard_normal((1, 2))
    t = 7
    beta = sched.betas[t - 1]
    expected = (1.0 + 0.5 * beta) * x + beta * (-x) + math.sqrt(beta) * noise
    out, norms = step(None, model, None, x, t, None, 0.0, 1.0, noise)
    assert np.allclose(out, expected, rtol=1e-14)
    assert norms is None


def test_unconditional_step_rejects_bad_t():
    model = unit_gaussian_model(5)
    with pytest.raises(IndexError):
        step(None, model, None, np.zeros(2), 0, None, 0.0, 1.0, np.zeros(2))
    with pytest.raises(IndexError):
        step(None, model, None, np.zeros(2), 6, None, 0.0, 1.0, np.zeros(2))


def test_guided_step_requires_energy_and_rejects_nonfinite():
    model = unit_gaussian_model(10)
    c = Condition.target(np.zeros(2))
    # The missing energy or condition is caught before the score is paid for.
    counting = ScoreKeepingModel(model)
    for energy, cond in ((None, None), (None, c), (QuadraticEnergy(), None)):
        with pytest.raises(ValueError, match="needs an energy and a condition"):
            step(
                PosteriorPartStrategy.FICD, counting, energy, np.zeros(2), 5, cond,
                1.0, 1.0, np.zeros(2),
            )
    assert counting.given == []
    # A non-finite conditional term is not raised by the step; the run
    # flags every chain it reaches and aborts.
    for strategy in ALL_STRATEGIES:
        config = SamplerConfig(T=10, strategy=strategy, rho=0.5, n_chains=8, seed=1)
        with pytest.raises(ChainFailureError) as err:
            sample(config, model, InfEnergy(), c)
        assert err.value.flagged.tolist() == list(range(8)), strategy
        # Every chain is flagged by the first step, t = T.
        assert err.value.first_t == 10, strategy
        assert err.value.first_chains.tolist() == list(range(8)), strategy
        assert "the first at t = 10" in str(err.value), strategy


def test_exact_step_needs_a_score_vjp():
    class ScoreOnlyModel(ScoreModel):
        """Scores as a unit Gaussian does, with neither jacobian nor score_vjp."""

        dim = 2
        schedule = linear_schedule(10)

        def score(self, x, t):
            return -np.asarray(x)

    x = np.array([[0.3, -0.2], [1.0, 0.5]])
    c = Condition.target([1.0, 1.0])
    args = (ScoreOnlyModel(), QuadraticEnergy(), x, 5, c, 1.0, 1.0, np.zeros_like(x))
    y, _ = step(PosteriorPartStrategy.FICD, *args)
    assert np.all(np.isfinite(y))
    with pytest.raises(NotImplementedError, match="ScoreOnlyModel has no score_vjp"):
        step(PosteriorPartStrategy.EXACT, *args)


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from([None, *ALL_STRATEGIES]),
    discretization=st.sampled_from(list(Discretization)),
    t=st.sampled_from([1, 2, 7, 10]),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_step_writes_only_its_own_arrays(strategy, discretization, t, n, seed):
    """step builds its result in arrays of its own: x, noise and the score
    it was given keep their bits, and the result shares memory with none
    of them; tweedie_from_score leaves x and the score as they were."""
    model = ScoreKeepingModel(bimodal_model(10))
    rng = np.random.default_rng(seed)
    x, noise = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    x_was, noise_was = x.copy(), noise.copy()
    ddim = discretization is Discretization.DDIM
    sigma_t = ddim_sigma(model.schedule, t, 1.0) if ddim else 0.0
    y, norms = step(
        strategy, model, QuadraticEnergy(), x, t, Condition.target([0.5, -0.5]),
        0.3, 0.7, noise, discretization, sigma_t,
    )
    assert np.array_equal(x, x_was) and np.array_equal(noise, noise_was)
    assert len(model.given) == 1
    score, score_was = model.given[0]
    assert np.array_equal(score, score_was)
    for arr in (x, noise, score):
        assert not np.shares_memory(y, arr)
        if norms is not None:
            assert not np.shares_memory(norms, arr)

    abar = alpha_bar(model.schedule, t)
    x0_hat = tweedie_from_score(x, score, abar)
    assert np.array_equal(x, x_was) and np.array_equal(score, score_was)
    assert not np.shares_memory(x0_hat, x) and not np.shares_memory(x0_hat, score)
    assert np.array_equal(x0_hat, (x + (1.0 - abar) * score) / math.sqrt(abar))


def test_ddim_step_matches_hand_formula():
    T = 10
    model = unit_gaussian_model(T)
    sched = model.schedule
    t = 6
    abar = sched.alpha_bars[t - 1]
    abar_prev = sched.alpha_bars[t - 2]
    x = np.array([[1.0, -2.0]])
    noise = np.array([[0.5, 0.5]])
    sigma = 0.01
    s = -x
    eps = -math.sqrt(1.0 - abar) * s
    x0 = (x + (1.0 - abar) * s) / math.sqrt(abar)
    expected = (
        math.sqrt(abar_prev) * x0
        + math.sqrt(1.0 - abar_prev - sigma**2) * eps
        + sigma * noise
    )
    out, _ = step(None, model, None, x, t, None, 0.0, 1.0, noise, Discretization.DDIM, sigma)
    assert np.allclose(out, expected, rtol=1e-14)


def test_ddim_step_rejects_oversized_sigma():
    model = unit_gaussian_model(10)
    abar_prev = model.schedule.alpha_bars[4]
    too_big = math.sqrt(1.0 - abar_prev) * 1.01
    with pytest.raises(ValueError):
        step(None, model, None, np.zeros(2), 6, None, 0.0, 1.0, np.zeros(2), Discretization.DDIM, too_big)


def test_ddim_step_final_step_returns_denoised_mean():
    model = unit_gaussian_model(8)
    sched = model.schedule
    x = np.array([[2.0, -1.0]])
    abar = sched.alpha_bars[0]
    x0 = (x + (1.0 - abar) * (-x)) / math.sqrt(abar)
    out, _ = step(None, model, None, x, 1, None, 0.0, 1.0, np.zeros((1, 2)), Discretization.DDIM)
    assert np.allclose(out, x0, rtol=1e-14)


def test_ddim_sigma_rule():
    sched = linear_schedule(5)
    assert ddim_sigma(sched, 3, 0.0) == 0.0
    assert ddim_sigma(sched, 1, 1.0) == 0.0
    abar = sched.alpha_bars[2]
    abar_prev = sched.alpha_bars[1]
    expected = math.sqrt((1 - abar_prev) / (1 - abar)) * math.sqrt(1 - abar / abar_prev)
    assert np.isclose(ddim_sigma(sched, 3, 1.0), expected, rtol=1e-15)
    assert np.isclose(ddim_sigma(sched, 3, 0.3), 0.3 * expected, rtol=1e-15)


# --- time travel -------------------------------------------------------


def test_time_travel_renoise_matches_hand_formula():
    """Tape slots run init, step, step, re-noise, step, step.

    One repeat at t = 2, the middle third of a T = 3 run: the repeat re-noises with the
    one-step forward kernel sqrt(1 - beta_t) x + sqrt(beta_t) eps and
    steps again, each with its own tape slot. The t = 1 step's slot 5 adds no noise.
    """
    T = 3
    model = unit_gaussian_model(T, d=1)
    sched = model.schedule
    seed = 31
    tape = np.concatenate([slot_rng(seed, k).standard_normal((1, 1)) for k in range(5)])
    config = SamplerConfig(
        T=T, strategy=None, n_chains=1, seed=seed,
        time_travel_repeats=1,
    )
    samples, trace = sample(config, model)
    assert trace.t.tolist() == [3, 2, 2, 1]

    def euler(x, t, noise):
        beta = float(sched.betas[t - 1])
        return (1.0 + 0.5 * beta) * x + beta * model.score(x, t) + math.sqrt(beta) * noise

    beta_2 = float(sched.betas[1])
    x = tape[0:1]
    x = euler(x, 3, tape[1:2])
    x = euler(x, 2, tape[2:3])
    x = math.sqrt(1.0 - beta_2) * x + math.sqrt(beta_2) * tape[3:4]
    x = euler(x, 2, tape[4:5])
    x = euler(x, 1, np.zeros((1, 1)))
    assert np.array_equal(samples, x)


def test_time_travel_adds_trace_rows():
    T = 12
    model = bimodal_model(T)
    config = SamplerConfig(
        T=T, strategy=None, n_chains=8, seed=5, time_travel_repeats=1
    )
    _, trace = sample(config, model)
    # The window is the middle third: t in [5, 8] for T = 12.
    expected_t = [12, 11, 10, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 3, 2, 1]
    assert trace.t.tolist() == expected_t


# --- equivalences ------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(
    strategy=st.sampled_from(ALL_STRATEGIES),
    discretization=st.sampled_from(list(Discretization)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vector_rho=st.booleans(),
)
def test_rho_zero_matches_unconditional_bitwise(strategy, discretization, seed, vector_rho):
    T = 20
    model = bimodal_model(T)
    c = Condition.target(np.array([1.0, 1.0]))
    common = dict(
        T=T, n_chains=64, seed=seed, discretization=discretization,
        ddim_eta=0.5 if discretization is Discretization.DDIM else 0.0,
    )
    base, _ = sample(SamplerConfig(strategy=None, **common), model)
    rho = np.zeros(T) if vector_rho else 0.0
    got, _ = sample(
        SamplerConfig(strategy=strategy, rho=rho, **common), model, QuadraticEnergy(), c
    )
    assert np.array_equal(got, base)


def test_zero_energy_gradient_matches_unconditional_bitwise():
    T = 15
    model = bimodal_model(T)
    c = Condition.target(np.zeros(2))
    base, _ = sample(SamplerConfig(T=T, strategy=None, n_chains=32, seed=2), model)
    for strategy in ALL_STRATEGIES:
        got, _ = sample(
            SamplerConfig(T=T, strategy=strategy, rho=1.0, n_chains=32, seed=2),
            model, ZeroEnergy(), c,
        )
        assert np.array_equal(got, base), strategy


# --- distributional checks ---------------------------------------------


def test_vp_marginal_preserves_unit_gaussian():
    T = 200
    model = unit_gaussian_model(T)
    config = SamplerConfig(T=T, strategy=None, n_chains=10_000, seed=17)
    samples, trace = sample(config, model)
    assert samples.shape == (10_000, 2)
    var = samples.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05), var
    assert np.all(np.abs(samples.mean(axis=0)) < 0.05)
    assert trace.flagged_chains.size == 0


def test_ddim_marginal_preserves_unit_gaussian():
    T = 100
    model = unit_gaussian_model(T)
    config = SamplerConfig(
        T=T, strategy=None, n_chains=8192, seed=23,
        discretization=Discretization.DDIM, ddim_eta=0.0,
    )
    samples, _ = sample(config, model)
    var = samples.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05), var


def test_guided_run_moves_mean_toward_target():
    T = 50
    model = unit_gaussian_model(T)
    energy = QuadraticEnergy()
    c = Condition.target(np.array([2.0, 2.0]))
    uncond, _ = sample(SamplerConfig(T=T, strategy=None, n_chains=256, seed=9), model)
    for disc in (Discretization.SDE_EULER, Discretization.DDIM):
        guided, _ = sample(
            SamplerConfig(
                T=T, strategy=PosteriorPartStrategy.FICD, rho=0.05,
                n_chains=256, seed=9, discretization=disc,
            ),
            model, energy, c,
        )
        d_guided = np.linalg.norm(guided.mean(axis=0) - np.array([2.0, 2.0]))
        d_uncond = np.linalg.norm(uncond.mean(axis=0) - np.array([2.0, 2.0]))
        assert d_guided < d_uncond, disc


# --- determinism -------------------------------------------------------


def test_thread_count_does_not_change_output():
    T = 30
    model = bimodal_model(T)
    energy = QuadraticEnergy()
    c = Condition.target(np.array([1.0, 0.0]))
    config = SamplerConfig(
        T=T, strategy=PosteriorPartStrategy.FICD, rho=0.1, n_chains=1300, seed=41
    )
    s1, t1 = sample(config, model, energy, c, threads=1)
    s4, t4 = sample(config, model, energy, c, threads=4)
    assert np.array_equal(s1, s4)
    assert np.array_equal(t1.grad_norm, t4.grad_norm)
    assert np.array_equal(t1.flagged_chains, t4.flagged_chains)


def test_sample_starts_no_thread():
    """Every score call of a three-block run happens on the calling thread."""
    T = 5
    model = bimodal_model(T)
    callers = []

    class Recording:
        def __getattr__(self, name):
            return getattr(model, name)

        def score(self, x, t):
            callers.append(threading.get_ident())
            return model.score(x, t)

    config = SamplerConfig(
        T=T, strategy=PosteriorPartStrategy.FICD, rho=0.1,
        n_chains=2 * sampler.BLOCK_SIZE + 1, seed=2,
    )
    sample(config, Recording(), QuadraticEnergy(), Condition.target(np.zeros(2)), threads=4)
    assert len(callers) == 3 * T
    assert set(callers) == {threading.get_ident()}


def test_repeat_run_is_identical():
    T = 25
    model = bimodal_model(T)
    config = SamplerConfig(T=T, strategy=None, n_chains=600, seed=8)
    s1, _ = sample(config, model)
    s2, _ = sample(config, model)
    assert np.array_equal(s1, s2)


def test_initial_state_matches_sampled_trajectory():
    T = 1
    model = unit_gaussian_model(T, d=1)
    sched = model.schedule
    beta = float(sched.betas[0])
    seed = 99
    tape = slot_rng(seed, 0).standard_normal((1, 1))

    samples, _ = sample(SamplerConfig(T=T, strategy=None, n_chains=1, seed=seed), model)
    expected = (1.0 + 0.5 * beta) * tape[0] + beta * -tape[0]
    assert np.array_equal(samples[0], expected)


# --- noise tape --------------------------------------------------------


@pytest.mark.parametrize("block_size", [1, 2, 3, 7, None])
def test_each_chain_draws_exactly_its_tape(monkeypatch, block_size):
    """T = 6 with one repeat over t = 3..4 reads an 11-slot tape: init, t = 6, 5, 4,
    re-noise + step at t = 4, t = 3, re-noise + step at t = 3, t = 2, 1. Slots 0..9
    are each drawn once, as one (N, d) array, whatever the block partition
    (None: BLOCK_SIZE); slot 10 belongs to the noiseless t = 1 step and is never drawn."""
    T, N, d = 6, 3, 2
    if block_size is not None:
        monkeypatch.setattr(sampler, "BLOCK_SIZE", block_size)
    drawn = []

    def recording_rng(seed, slot):
        drawn.append((slot, slot_rng(seed, slot)))
        return drawn[-1][1]

    monkeypatch.setattr(sampler, "slot_rng", recording_rng)
    config = SamplerConfig(T=T, strategy=None, n_chains=N, seed=6, time_travel_repeats=1)
    sample(config, unit_gaussian_model(T, d=d))
    assert [k for k, _ in drawn] == list(range(10))
    for k, rng in drawn:
        fresh = slot_rng(6, k)
        fresh.standard_normal((N, d))
        assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3)), k


def test_step_time_leaves_out_noise_draws(monkeypatch):
    """Every draw sleeps 0.2 s, and one comes before each step and each
    re-noise; no step_wall_time_s reaches 0.1 s."""

    class SlowRng:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, **kwargs):
            time.sleep(0.2)
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(sampler, "slot_rng", lambda seed, k: SlowRng(slot_rng(seed, k)))
    T = 4
    config = SamplerConfig(
        T=T, strategy=None, n_chains=1, seed=0, time_travel_repeats=1
    )
    _, trace = sample(config, unit_gaussian_model(T))
    assert trace.t.tolist() == [4, 3, 2, 2, 1]
    assert np.all(trace.step_wall_time_s < 0.1), trace.step_wall_time_s


@pytest.mark.parametrize("discretization", list(Discretization))
def test_chain_does_not_depend_on_the_chains_after_it(discretization):
    """A chain reads row i of every slot, so the first block's samples keep
    every bit whether one block of chains runs or two and a partial third."""
    T = 12
    model = bimodal_model(T)
    config = SamplerConfig(
        T=T, strategy=PosteriorPartStrategy.FICD, rho=0.1, seed=17,
        discretization=discretization,
        ddim_eta=0.5 if discretization is Discretization.DDIM else 0.0,
        time_travel_repeats=1,
    )
    c = Condition.target(np.array([1.0, 0.0]))
    B = sampler.BLOCK_SIZE
    small, _ = sample(dataclasses.replace(config, n_chains=B), model, QuadraticEnergy(), c)
    large, _ = sample(dataclasses.replace(config, n_chains=2 * B + 76), model, QuadraticEnergy(), c)
    assert np.array_equal(small, large[:B])


def test_noise_memory_does_not_grow_with_T():
    """Noise is drawn one (N, d) slot at a time, so the peak traced memory
    stays a few N d arrays (the state, a slot, block temporaries), however
    long the O(N T d) tape: 41 slots at T = 40, 321 at T = 320."""
    N, d = 1024, 8
    peaks = {}
    for T in (40, 320):
        model = unit_gaussian_model(T, d=d)
        config = SamplerConfig(T=T, strategy=None, n_chains=N, seed=1)
        tracemalloc.start()
        try:
            sample(config, model)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[320] < 1.5 * peaks[40], peaks
    assert peaks[320] < 8 * N * d * 8, peaks


# --- costs -------------------------------------------------------------


def test_per_step_cost_counts():
    """Counted on untimed two-block runs: uncond and every scalar strategy
    call score once and score_vjp never per block per executed step, and
    exact calls each once. Time-travel repeats are executed steps."""
    T = 12
    model = bimodal_model(T)
    energy, c = QuadraticEnergy(), Condition.target(np.array([0.5, 0.0]))
    configs = [
        SamplerConfig(T=T, strategy=strategy, rho=0.1, n_chains=sampler.BLOCK_SIZE + 3, seed=1)
        for strategy in (None, *ALL_STRATEGIES)
    ]
    repeats = 2
    configs += [
        dataclasses.replace(config, time_travel_repeats=repeats)
        for config in configs
        if config.strategy in (PosteriorPartStrategy.EXACT, PosteriorPartStrategy.FICD)
    ]
    t_lo, t_hi = middle_third(T)
    for config in configs:
        calls, expected, trace = recorded_calls(config, model, energy, c)
        assert trace.t.size == T + config.time_travel_repeats * (t_hi - t_lo + 1)
        assert calls == expected, (strategy_name(config.strategy), config.time_travel_repeats)


# --- trace contents ----------------------------------------------------


def test_trace_fields():
    T = 20
    model = bimodal_model(T)
    energy = QuadraticEnergy()
    c = Condition.target(np.array([0.5, 0.5]))
    config = SamplerConfig(
        T=T, strategy=PosteriorPartStrategy.FICD, rho=0.2, n_chains=64, seed=3
    )
    _, trace = sample(config, model, energy, c)
    assert trace.t.tolist() == list(range(T, 0, -1))
    assert np.all(np.isfinite(trace.grad_norm))
    assert np.all(trace.grad_norm >= 0.0)
    assert np.all(trace.step_wall_time_s >= 0.0)
    assert trace.newly_flagged.dtype == np.int64
    assert trace.newly_flagged.tolist() == [0] * T

    _, uncond_trace = sample(SamplerConfig(T=T, strategy=None, n_chains=8, seed=3), model)
    assert np.all(np.isnan(uncond_trace.grad_norm))


# --- failure policy ----------------------------------------------------


def _per_row_reference(config, model, energy, c):
    """sample()'s loop with every block scanned row by row and its norms
    summed over the ok rows, block by block: the samples, grad_norm,
    per-step newly flagged counts and flagged chains sample() must
    reproduce bit for bit. Covers runs without time travel."""
    N, d = config.n_chains, model.dim
    ddim = config.discretization is Discretization.DDIM
    x = sampler.slot_rng(config.seed, 0).standard_normal((N, d))
    flagged = np.zeros(N, dtype=bool)
    grad_norm = np.full(config.T, np.nan)
    newly_flagged = np.zeros(config.T, dtype=np.int64)
    for si, t in enumerate(range(config.T, 0, -1)):
        noise = np.zeros((N, d))
        if t > 1:
            noise = sampler.slot_rng(config.seed, si + 1).standard_normal((N, d))
        sigma_t = ddim_sigma(model.schedule, t, config.ddim_eta) if ddim else 0.0
        grad_sum, n_ok = 0.0, 0
        for lo in range(0, N, sampler.BLOCK_SIZE):
            hi = min(lo + sampler.BLOCK_SIZE, N)
            y, norms = step(
                config.strategy, model, energy, x[lo:hi], t, c, float(config.rho),
                config.lam, noise[lo:hi], config.discretization, sigma_t,
            )
            ok_now = np.all(np.isfinite(y), axis=1)
            ok_rows = ~flagged[lo:hi] & ok_now
            newly_flagged[si] += int(np.sum(~flagged[lo:hi] & ~ok_now))
            y[~ok_now] = np.nan
            x[lo:hi] = y
            flagged[lo:hi] |= ~ok_now
            n_ok += int(np.sum(ok_rows))
            if norms is not None:
                grad_sum += float(np.sum(norms[ok_rows]))
        if config.strategy is not None and n_ok > 0:
            grad_norm[si] = grad_sum / n_ok
    return x, grad_norm, newly_flagged, np.flatnonzero(flagged)


def test_single_bad_chain_is_flagged_not_fatal(monkeypatch):
    T = 10
    inner = bimodal_model(T)
    model = RowPoisonModel(inner, poison_t=T, rows=[0])
    c = Condition.target(np.array([0.5, 0.5]))
    for strategy in [None, *ALL_STRATEGIES]:
        config = SamplerConfig(T=T, strategy=strategy, rho=0.2, n_chains=100, seed=4)
        samples, trace = sample(config, model, QuadraticEnergy(), c)
        assert trace.flagged_chains.tolist() == [0], strategy
        assert trace.newly_flagged.tolist() == [1] + [0] * (T - 1), strategy
        assert trace.newly_flagged.sum() == trace.flagged_chains.size, strategy
        assert np.all(np.isnan(samples[0])), strategy
        assert np.all(np.isfinite(samples[1:])), strategy
    # An infinite score at the last step leaves an infinite state, which
    # sample() reports as a nan row all the same.
    last_step = RowPoisonModel(inner, poison_t=1, rows=[0], value=np.inf)
    samples, trace = sample(SamplerConfig(T=T, strategy=None, n_chains=100, seed=4), last_step)
    assert trace.flagged_chains.tolist() == [0]
    assert trace.newly_flagged.tolist() == [0] * (T - 1) + [1]
    assert trace.newly_flagged.sum() == trace.flagged_chains.size
    assert np.all(np.isnan(samples[0])) and np.all(np.isfinite(samples[1:]))

    # Three blocks, the last one partial: one chain of the middle block and
    # the last chain of the third draw infinite noise at t = 6, so only
    # those blocks take the per-row scan, then and at every later step.
    N = 2 * sampler.BLOCK_SIZE + 76
    poison_t, bad = 6, [sampler.BLOCK_SIZE + 1, N - 1]
    assert N > 2 * sampler.BLOCK_SIZE and N % sampler.BLOCK_SIZE

    class PoisonedSlot:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            noise = self.rng.standard_normal(shape)
            noise[bad] = np.inf
            return noise

    poison_slot = T - poison_t + 1
    for strategy in [None, *ALL_STRATEGIES]:
        for discretization, eta in ((Discretization.SDE_EULER, 0.0), (Discretization.DDIM, 1.0)):
            config = SamplerConfig(
                T=T, strategy=strategy, rho=0.2, n_chains=N, seed=4,
                discretization=discretization, ddim_eta=eta,
            )
            label = (strategy, discretization)
            samples, trace = sample(config, inner, QuadraticEnergy(), c)
            ref, ref_grad, ref_new, ref_flagged = _per_row_reference(
                config, inner, QuadraticEnergy(), c
            )
            assert trace.flagged_chains.size == ref_flagged.size == 0, label
            assert np.array_equal(samples, ref), label
            assert trace.grad_norm.tobytes() == ref_grad.tobytes(), label
            assert trace.newly_flagged.tolist() == ref_new.tolist() == [0] * T, label

            with monkeypatch.context() as patch:
                patch.setattr(
                    sampler, "slot_rng",
                    lambda seed, k: PoisonedSlot(slot_rng(seed, k)) if k == poison_slot
                    else slot_rng(seed, k),
                )
                samples, trace = sample(config, inner, QuadraticEnergy(), c)
                ref, ref_grad, ref_new, ref_flagged = _per_row_reference(
                    config, inner, QuadraticEnergy(), c
                )
                patch.setattr(sampler, "MAX_FLAGGED_SHARE", 0.0)
                with pytest.raises(ChainFailureError) as err:
                    sample(config, inner, QuadraticEnergy(), c)
            assert trace.flagged_chains.tolist() == ref_flagged.tolist() == bad, label
            assert err.value.flagged.tolist() == bad and err.value.first_t == poison_t, label
            assert err.value.first_chains.tolist() == bad, label
            assert np.all(np.isnan(samples[bad])), label
            assert np.all(np.isfinite(np.delete(samples, bad, axis=0))), label
            assert np.array_equal(samples, ref, equal_nan=True), label
            assert trace.grad_norm.tobytes() == ref_grad.tobytes(), label
            assert trace.newly_flagged.tolist() == ref_new.tolist(), label
            assert ref_new[T - poison_t] == len(bad) == ref_new.sum(), label


def test_far_tail_chain_is_flagged_silently(monkeypatch):
    """The wide-ddim shape: a d = 16 unit Gaussian prior, an identity
    measurement, DDIM with eta = 1 and FICD guidance. A chain at 1e200
    has a mixture quadratic form that overflows, so its score is a nan
    row and its next state is not finite; -x as its score would keep it
    finite and unflagged. sample() flags it, and nothing warns."""
    T, N, d = 20, 200, 16
    model = unit_gaussian_model(T, d=d)
    energy = LinearMeasurementEnergy()
    c = Condition.measurement(np.eye(d), np.ones(d))
    x = slot_rng(3, 0).standard_normal((N, d))
    x[0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, _ = step(
            PosteriorPartStrategy.FICD, model, energy, x, T, c, 0.5, 0.5,
            slot_rng(3, 1).standard_normal((N, d)), Discretization.DDIM,
            ddim_sigma(model.schedule, T, 1.0),
        )
    assert not np.any(np.isfinite(y[0]))
    assert np.all(np.isfinite(y[1:]))

    class FarTailStart:
        def standard_normal(self, shape):
            x = slot_rng(3, 0).standard_normal(shape)
            x[0] = 1e200
            return x

    monkeypatch.setattr(
        sampler, "slot_rng", lambda seed, k: FarTailStart() if k == 0 else slot_rng(seed, k)
    )
    config = SamplerConfig(
        T=T, strategy=PosteriorPartStrategy.FICD, rho=0.5, lam=0.5, n_chains=N, seed=3,
        discretization=Discretization.DDIM, ddim_eta=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, trace = sample(config, model, energy, c)
    assert trace.flagged_chains.tolist() == [0]
    assert np.all(np.isnan(samples[0]))
    assert np.all(np.isfinite(samples[1:]))


def test_widespread_failure_aborts_run():
    T = 10
    inner = bimodal_model(T)
    model = RowPoisonModel(inner, poison_t=4, rows=slice(None))
    config = SamplerConfig(T=T, strategy=None, n_chains=100, seed=4)
    with pytest.raises(ChainFailureError) as err:
        sample(config, model)
    assert err.value.flagged.size == 100
    assert err.value.first_t == 4
    assert err.value.first_chains.tolist() == list(range(100))
    # One chain fails at t = 6, then every chain at t = 4: the error names
    # t = 6 and that one chain among the 100 flagged.
    early = RowPoisonModel(model, poison_t=6, rows=[37])
    with pytest.raises(ChainFailureError) as err:
        sample(config, early)
    assert err.value.flagged.size == 100
    assert err.value.first_t == 6
    assert err.value.first_chains.tolist() == [37]


# --- configuration validation ------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SamplerConfig(T=0)
    with pytest.raises(ValueError):
        SamplerConfig(T=10, rho=-0.5)
    with pytest.raises(ValueError):
        SamplerConfig(T=10, rho=np.ones(7))
    with pytest.raises(ValueError):
        SamplerConfig(T=10, rho=np.array([1.0, np.inf] + [1.0] * 8))
    with pytest.raises(ValueError):
        SamplerConfig(T=10, seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(T=10, n_chains=0)
    with pytest.raises(ValueError, match="time_travel_repeats"):
        SamplerConfig(T=10, time_travel_repeats=-1)
    with pytest.raises(ValueError, match="middle third"):
        SamplerConfig(T=1, time_travel_repeats=1)
    with pytest.raises(ValueError):
        SamplerConfig(T=10, ddim_eta=-0.1)
    with pytest.raises(ValueError):
        SamplerConfig(T=10, ddim_eta=1.5)


def test_euler_rejects_ddim_eta():
    """eta is a DDIM setting: an Euler config that sets it would ignore it."""
    with pytest.raises(ValueError, match="ddim_eta.*sde_euler"):
        SamplerConfig(T=10, ddim_eta=0.7)
    SamplerConfig(T=10, discretization=Discretization.DDIM, ddim_eta=0.7)


def test_sample_rejects_nonpositive_threads():
    model = bimodal_model(10)
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            sample(SamplerConfig(T=10, strategy=None), model, threads=threads)


def test_sample_rejects_mismatched_schedule():
    model = bimodal_model(20)
    with pytest.raises(ValueError):
        sample(SamplerConfig(T=10, strategy=None), model)


def test_guided_sample_requires_energy():
    model = bimodal_model(10)
    with pytest.raises(ValueError):
        sample(SamplerConfig(T=10, strategy=PosteriorPartStrategy.FICD), model)


# --- strategy-gap property ---------------------------------------------


def test_one_step_strategy_gap_within_claimed_bound():
    """One scalar-strategy step pair stays within the sharp gap ceiling.

    The FICD and MPGD steps share state, noise, score and gradient and
    differ only in the pullback scalar (2 / sqrt(abar_t) against
    sqrt(abar_{t-1})), so under a unit-Lipschitz energy the gap is at
    most rho * (2 / sqrt(abar_t) - sqrt(abar_{t-1})). The distance
    energy's unit-norm gradient meets it exactly, so the check allows
    a 1e-12 relative rounding excess and no more.
    """
    T = 100
    model = unit_gaussian_model(T)
    sched = model.schedule
    energy = DistanceEnergy()
    c = Condition.target(np.array([3.0, 3.0]))
    rho = 0.5
    rng = np.random.default_rng(12)
    x = rng.standard_normal((16, 2))
    noise = np.zeros((16, 2))
    for t in (2, 50, 100):
        abar = alpha_bar(sched, t)
        abar_prev = alpha_bar(sched, t - 1)
        x_f, _ = step(PosteriorPartStrategy.FICD, model, energy, x, t, c, rho, 1.0, noise)
        x_m, _ = step(PosteriorPartStrategy.MPGD, model, energy, x, t, c, rho, 1.0, noise)
        gap = np.linalg.norm(x_f - x_m, axis=1)
        bound = rho * (2.0 / math.sqrt(abar) - math.sqrt(abar_prev))
        assert np.all(gap <= bound * (1.0 + 1e-12)), (
            f"t={t}: max gap {gap.max():.6f} exceeds the ceiling {bound:.6f}"
        )
