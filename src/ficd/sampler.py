"""Reverse-process sampling: plain, guided, DDIM, and time-travel loops.

Time travel re-noises and re-steps each t of the middle third of the
steps, where guidance is known to matter most; the step at t = 1 adds
no noise, so a run ends on a clean sample.

Noise comes from a tape of slots, one for the initial state, one per
step and one per re-noise: slot k is one random stream keyed by (seed,
k), drawn for all chains at once just before it is read, and chain i
reads row i of it. Sequential draws concatenate, so a chain's noise
depends on neither the chain count nor the block partition, and a run
holds one slot of O(N d) noise at a time, not the O(N T d) tape. The
chain population is cut into fixed-size blocks that run as batches, one
after another on the calling thread. The block partition and every
reduction order are fixed by the configuration, so a run is a pure
function of it. ``step`` is the one body of a reverse step, built in
arrays of its own without writing to its inputs; ``sample`` runs it
over blocks and steps, and scans a block row by row for non-finite
chains only when the block's one finiteness test fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ficd.guidance import Condition, EnergyFunction, guidance_gradient_norm
from ficd.posterior import PosteriorPartStrategy, posterior_pullback, tweedie_from_score
from ficd.schedule import NoiseSchedule, alpha_bar, check_step, middle_third

__all__ = [
    "Discretization",
    "SamplerConfig",
    "RunTrace",
    "ChainFailureError",
    "ddim_sigma",
    "slot_rng",
    "step",
    "sample",
]

# Chains per batch block. Fixed, so the batch shapes, and with them the
# bits of every chain, depend on the configuration alone; the per-step
# trace sums run block by block, so their bits depend on it too. Each
# step call has a fixed cost of about 30 us, so larger blocks pay it less
# often, up to where the arrays outgrow the caches. On the wide-ddim shape
# (N = 8192, d = 16, DDIM eta = 1, FICD; 2-vCPU AVX-512 Xeon, OpenBLAS
# 0.3.31 at its default threads; commit f66f123 with the in-place mixture
# and energy products and the one-pass row norm; in-process, 3
# interleaved rounds of 3 runs) the median step took 2.43 / 2.10 / 2.00 /
# 3.45 ms at 512 / 1024 / 2048 / 4096 chains, and a fresh process peaked
# at 43.0 / 43.2 / 44.1 / 46.6 MB. At 2048 rows OpenBLAS runs the d = 16
# products on both cores, with the same bits; on one BLAS thread 2048
# still beat 1024 (3.05 against 3.28 ms, in a slower spell of the host).
# One batch of all N chains is slower and larger still (1.07-1.23 s per
# run against 0.85-0.88 s at 512, commit f049677).
BLOCK_SIZE = 2048

# Largest share of chains that may be flagged before sample() aborts.
MAX_FLAGGED_SHARE = 0.01


class Discretization(Enum):
    SDE_EULER = "sde_euler"
    DDIM = "ddim"


class ChainFailureError(RuntimeError):
    """More than the tolerated share of chains left the finite domain.

    ``flagged`` holds the flagged chain indices, ``first_t`` the step t
    of the first step that flagged any chain, and ``first_chains`` the
    indices of the chains that step flagged.
    """

    def __init__(
        self, message: str, flagged: np.ndarray, first_t: int, first_chains: np.ndarray
    ):
        super().__init__(message)
        self.flagged = flagged
        self.first_t = first_t
        self.first_chains = first_chains


@dataclass(frozen=True)
class SamplerConfig:
    """Everything a sampling run depends on besides the model and energy.

    ``strategy = None`` runs unconditionally (no energy consulted).
    ``rho`` is a constant or a length-T vector of per-step guidance
    weights. ``ddim_eta`` lies in [0, 1], which keeps sigma_t**2 within
    1 - alpha_bar_{t-1}, and is a DDIM setting: an Euler run needs it at
    0. ``time_travel_repeats`` re-steps each t of the middle third that
    many times; 0 disables time travel.
    """

    T: int
    strategy: PosteriorPartStrategy | None = PosteriorPartStrategy.FICD
    rho: float | np.ndarray = 1.0
    lam: float = 1.0
    discretization: Discretization = Discretization.SDE_EULER
    ddim_eta: float = 0.0
    time_travel_repeats: int = 0
    n_chains: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("T must be positive")
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        rho = np.atleast_1d(np.asarray(self.rho, dtype=np.float64))
        if rho.size not in (1, self.T):
            raise ValueError(f"rho must be a scalar or a vector of {self.T} values")
        if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
            raise ValueError("every rho value must be finite and >= 0")
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if not 0.0 <= self.ddim_eta <= 1.0:
            raise ValueError("ddim_eta must lie in [0, 1]")
        if self.discretization is Discretization.SDE_EULER and self.ddim_eta != 0.0:
            raise ValueError("ddim_eta is a DDIM setting; sde_euler needs it at 0")
        if self.time_travel_repeats < 0:
            raise ValueError("time_travel_repeats must be >= 0")
        if self.time_travel_repeats > 0 and self.T < 2:
            raise ValueError("time travel needs T >= 2: T = 1 has no middle third")


def slot_rng(seed: int, k: int) -> np.random.Generator:
    """Tape slot k's stream, shared by every chain; pure function of (seed, k)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([int(seed), int(k)])))


def ddim_sigma(schedule: NoiseSchedule, t: int, eta: float) -> float:
    """The usual eta rule: eta * sqrt((1-abar_prev)/(1-abar)) * sqrt(1 - abar/abar_prev)."""
    abar = alpha_bar(schedule, t)
    abar_prev = alpha_bar(schedule, t - 1)
    inner = max(1.0 - abar / abar_prev, 0.0)
    return eta * math.sqrt((1.0 - abar_prev) / (1.0 - abar)) * math.sqrt(inner)


def step(
    strategy: PosteriorPartStrategy | None,
    model,
    energy: EnergyFunction | None,
    x: np.ndarray,
    t: int,
    c: Condition | None,
    rho_t: float,
    lam: float,
    noise: np.ndarray,
    discretization: Discretization = Discretization.SDE_EULER,
    sigma_t: float = 0.0,
):
    """One reverse step t -> t-1 of every row of x; the only step body.

    The Euler step is (1 + beta/2) x + beta s + sqrt(beta) noise; the
    DDIM step is sqrt(abar_prev) x0_hat + sqrt(1 - abar_prev - sigma_t**2)
    eps_hat + sigma_t noise. A guided step then subtracts rho_t times
    the conditional term: lam times the energy gradient at the same
    denoised mean x0_hat, computed once from the one score evaluation,
    pulled back onto x by posterior_pullback. Returns (new state, per-row
    conditional-gradient norms, or None when unguided). Non-finite rows
    are returned as they are; sample() flags them. The new state is built
    in place in arrays of the step's own, in the order of the formulas
    above, so it has their bits; x, noise and the score are never written.
    A guided step without an energy or a condition raises before the score
    is evaluated.
    """
    schedule: NoiseSchedule = model.schedule
    check_step(schedule, t)
    if strategy is not None and (energy is None or c is None):
        raise ValueError("guided sampling needs an energy and a condition")
    beta = float(schedule.betas[t - 1])
    abar = alpha_bar(schedule, t)
    abar_prev = alpha_bar(schedule, t - 1)
    ddim = discretization is Discretization.DDIM
    if ddim:
        # Non-negative for ddim_eta <= 1, up to rounding.
        det = 1.0 - abar_prev - sigma_t**2
        if det < -1e-12:
            raise ValueError("sigma_t**2 exceeds 1 - alpha_bar_{t-1}")
    s = model.score(x, t)
    x0_hat = tweedie_from_score(x, s, abar) if ddim or strategy is not None else None
    # y and buf are this step's own; each sum accrues left to right.
    if not ddim:
        y = (1.0 + 0.5 * beta) * x
        buf = beta * s
        noise_scale = math.sqrt(beta)
    else:
        y = math.sqrt(abar_prev) * x0_hat
        buf = -math.sqrt(1.0 - abar) * s  # eps_hat
        buf *= math.sqrt(max(det, 0.0))
        noise_scale = sigma_t
    y += buf
    np.multiply(noise_scale, noise, out=buf)
    y += buf
    if strategy is None:
        return y, None
    cond = posterior_pullback(strategy, model, schedule, x, t, lam * energy.grad(x0_hat, c))
    np.multiply(rho_t, cond, out=buf)
    y -= buf
    return y, guidance_gradient_norm(cond)


# --- the full loop -----------------------------------------------------


@dataclass
class RunTrace:
    """What one sampling run measured, one row per executed step.

    Arrays share one length: the number of executed steps (T plus any
    time-travel repeats, which appear as extra rows at the same t).
    ``grad_norm`` is the mean conditional-gradient norm
    (``guidance_gradient_norm``, one pass per row) over the chains still
    finite at that step (nan for unconditional runs), summed block by
    block in block order, so on runs of more than BLOCK_SIZE chains its
    last bits follow the block size; a block whose chains are all finite
    sums its norms without the per-row mask, with the same bits.
    ``step_wall_time_s`` times the step's block loop; the noise draws and
    a time-travel re-noise before it are left out. ``newly_flagged``
    counts the chains that step flagged. ``flagged_chains`` holds the
    indices of every chain flagged over the run.
    """

    t: np.ndarray
    grad_norm: np.ndarray
    step_wall_time_s: np.ndarray
    newly_flagged: np.ndarray
    flagged_chains: np.ndarray


def _plan_entries(T: int, repeats: int) -> list[tuple[int, bool]]:
    """Execution order as (t, renoise) pairs; a re-noise entry re-steps t after re-noising.

    Each t of the middle third is re-stepped ``repeats`` times.

    The noise tape holds one slot for the initial draw, one per entry, and
    one more per re-noise.
    """
    t_lo, t_hi = middle_third(T)
    entries = []
    for t in range(T, 0, -1):
        entries.append((t, False))
        if t_lo <= t <= t_hi:
            entries += [(t, True)] * repeats
    return entries


def sample(
    config: SamplerConfig,
    model,
    energy: EnergyFunction | None = None,
    condition: Condition | None = None,
    threads: int = 1,
):
    """Run every chain from x_T ~ N(0, I) down to x_0.

    Returns (samples, trace) with samples of shape (n_chains, d). The
    output is a pure function of the configuration, model, energy, and
    condition. Blocks of BLOCK_SIZE chains run in order on the
    calling thread; BLAS may spread a block's products over its own
    threads, which changes no bit. The initial state, each step and each
    re-noise read the next tape slot, slot_rng(seed, k) drawn as one
    (N, d) array before the step timer starts; the t = 1 step adds no
    noise, so its slot is skipped without a draw. A chain whose state
    stops being finite is flagged and its row reported as nan: each
    block's new state is tested once as a whole, and only a block with a
    non-finite value, or with a chain flagged before, is scanned row by
    row, and only such a scan counts the step's newly flagged chains.
    The run aborts with ChainFailureError when more than
    MAX_FLAGGED_SHARE (1%) of chains are flagged; the error names the
    first step that flagged a chain and the chains it flagged.
    ``threads`` is an upper bound on worker threads and must be at least
    1; the sampler uses one.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    schedule: NoiseSchedule = model.schedule
    if config.T != schedule.T:
        raise ValueError(f"config.T = {config.T} does not match the model schedule T = {schedule.T}")
    if config.strategy is not None and (energy is None or condition is None):
        raise ValueError("guided sampling needs an energy and a condition")
    d = model.dim
    N = config.n_chains
    rho = np.broadcast_to(np.asarray(config.rho, dtype=np.float64), (config.T,))
    entries = _plan_entries(config.T, config.time_travel_repeats)
    slot = 0

    def next_slot(draw: bool = True) -> np.ndarray:
        nonlocal slot
        slot += 1
        if not draw:  # the slot of a noiseless step is skipped, not drawn
            return np.broadcast_to(0.0, (N, d))
        return slot_rng(config.seed, slot - 1).standard_normal((N, d))

    x = next_slot()
    flagged = np.zeros(N, dtype=bool)
    first_t = None  # t of the first step that flagged a chain
    first_chains = None  # the chains that step flagged

    ddim = config.discretization is Discretization.DDIM
    n_steps = len(entries)
    trace = RunTrace(
        t=np.empty(n_steps, dtype=np.int64),
        grad_norm=np.full(n_steps, np.nan),
        step_wall_time_s=np.empty(n_steps),
        newly_flagged=np.zeros(n_steps, dtype=np.int64),
        flagged_chains=np.empty(0, dtype=np.int64),
    )

    for si, (t, renoise) in enumerate(entries):
        beta = float(schedule.betas[t - 1])
        sigma_t = ddim_sigma(schedule, t, config.ddim_eta) if ddim else 0.0
        if renoise:  # elementwise, so all rows at once keep every bit; nan rows stay nan
            x *= math.sqrt(1.0 - beta)
            x += math.sqrt(beta) * next_slot()
        noise = next_slot(draw=t > 1)
        started = time.perf_counter()
        # Per-step sums accrue block by block, in block order.
        grad_sum = 0.0
        n_ok = 0
        n_new = 0
        for lo in range(0, N, BLOCK_SIZE):
            hi = min(lo + BLOCK_SIZE, N)
            y, cond_norms = step(
                config.strategy, model, energy, x[lo:hi], t, condition,
                float(rho[t - 1]), config.lam, noise[lo:hi],
                config.discretization, sigma_t,
            )
            if np.isfinite(y).all() and not flagged[lo:hi].any():
                # Every row is ok: no scan, and the sum below has the bits
                # of the masked one.
                ok_rows, n_rows_ok = slice(None), hi - lo
            else:
                ok_before = ~flagged[lo:hi]
                ok_now = np.all(np.isfinite(y), axis=1)
                y[~ok_now] = np.nan
                flagged[lo:hi] |= ~ok_now
                ok_rows = ok_before & ok_now
                n_rows_ok = int(np.sum(ok_rows))
                n_new += int(np.sum(ok_before)) - n_rows_ok
            x[lo:hi] = y
            n_ok += n_rows_ok
            if cond_norms is not None:
                grad_sum += float(np.sum(cond_norms[ok_rows]))
        trace.step_wall_time_s[si] = time.perf_counter() - started
        if first_t is None and n_new > 0:
            first_t = t
            first_chains = np.flatnonzero(flagged)

        trace.t[si] = t
        trace.newly_flagged[si] = n_new
        if config.strategy is not None and n_ok > 0:
            trace.grad_norm[si] = grad_sum / n_ok

    trace.flagged_chains = np.flatnonzero(flagged)
    if trace.flagged_chains.size > MAX_FLAGGED_SHARE * N:
        raise ChainFailureError(
            f"{trace.flagged_chains.size} of {N} chains left the finite domain"
            f" (more than {MAX_FLAGGED_SHARE:.0%} tolerated), the first at t = {first_t}",
            trace.flagged_chains,
            first_t,
            first_chains,
        )
    return x, trace
