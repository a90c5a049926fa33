"""The benchmark workloads: plain data, importable without numpy or ficd.

Every workload is closed-loop: one process runs one sampling operation
at a time. The ``--seed`` argument becomes the configuration's ``seed``,
which keys every chain's noise stream and, for the learned model, the
training data and initialization. ``tiny`` overrides shrink N and T (and
training) for the self-check; they are never used by a measured run.

The ``gmm-tilt`` preset (analytic two-mode mixture, ficd then exact) was
measured as a third workload and dropped as unsteady: over seeds 0-9 at
20 s per run its ficd.run_s and step_ms.p50 spread 0.25 and 0.31 of the
median, against the 0.25 cap on a bound. Its mixture score layer is
still measured on wide-ddim.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "WIDE_DIM"]

WIDE_DIM = 16


def _identity(d: int) -> str:
    return ";".join(",".join("1.0" if i == j else "0.0" for j in range(d)) for i in range(d))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    overrides: tuple[tuple[str, str], ...]
    strategies: tuple[str, ...]
    # Which closed-form answer the outputs are checked against:
    # "normal-score" (the -x score of N(0, I) training data) or
    # "conjugate-gaussian" (the linear-inverse posterior).
    oracle: str
    tiny: tuple[tuple[str, str], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp-guided",
            why=(
                "Learned MLP (256x3) trained in setup: BLAS matmuls dominate, exact re-runs "
                "the forward pass, and training cost lands in setup_s; no mixture, small tape."
            ),
            preset="bench-mlp",
            overrides=(("threads", "1"),),
            strategies=("ficd", "exact"),
            oracle="normal-score",
            tiny=(
                ("sampler.n_chains", "32"),
                ("schedule.T", "12"),
                ("train.steps", "5"),
                ("train.net.width", "16"),
            ),
        ),
        Workload(
            name="wide-ddim",
            why=(
                "d=16 linear inverse, N=8192 DDIM eta=1 on 2 threads: noise tape, block pool "
                "and CSV writes dominate. Finding: mean sits ~0.04/coord toward the prior."
            ),
            preset="linear-inverse",
            overrides=(
                ("model.gmm.means", ",".join(["0.0"] * WIDE_DIM)),
                ("energy.A", _identity(WIDE_DIM)),
                ("energy.y", ",".join(["1.0"] * WIDE_DIM)),
                ("energy.noise_var", "1.0"),
                ("sampler.discretization", "ddim"),
                ("sampler.ddim_eta", "1.0"),
                ("sampler.n_chains", "8192"),
                ("threads", "2"),
            ),
            strategies=("ficd",),
            oracle="conjugate-gaussian",
            # Two blocks, so the thread pool still runs.
            tiny=(("sampler.n_chains", "1024"), ("schedule.T", "12")),
        ),
    )
}
