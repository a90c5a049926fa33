"""Named experiment presets.

Each preset is a configuration layer (dotted key -> raw value) merged
between the defaults and any config file, so every value here can still
be overridden from a file or the command line. The numbers are the
tuned settings the acceptance checks run against.
"""

from __future__ import annotations

__all__ = ["PRESETS"]


PRESETS: dict[str, dict[str, str]] = {
    # Single standard normal pulled toward a point target. The small
    # smoke-test task: fast, unimodal, obvious success criterion.
    "gaussian-point": {
        "schedule.T": "100",
        "model.kind": "gmm",
        "model.gmm.weights": "1.0",
        "model.gmm.means": "0.0,0.0",
        "model.gmm.variances": "1.0",
        "energy.kind": "distance",
        "energy.target": "1.5,0.5",
        "sampler.strategy": "ficd",
        "sampler.rho": "0.5",
        "sampler.lam": "1.0",
        "sampler.n_chains": "256",
    },
    # Bimodal mixture tilted by a quadratic energy. The tilted density
    # has a closed form, so sampled output is compared against exact
    # draws by sliced Wasserstein distance. Matched rho plus two
    # time-travel repeats lets the guided chain move mass between the
    # modes the way the tilt demands.
    "gmm-tilt": {
        "schedule.T": "200",
        "model.kind": "gmm",
        "model.gmm.weights": "0.5,0.5",
        "model.gmm.means": "-1.0,0.0;1.0,0.0",
        "model.gmm.variances": "0.6,0.6",
        "energy.kind": "quadratic",
        "energy.target": "0.5,0.25",
        "sampler.strategy": "ficd",
        "sampler.rho": "matched",
        "sampler.lam": "0.3",
        "sampler.time_travel.repeats": "2",
        "sampler.n_chains": "2000",
    },
    # Identity measurement of a standard normal with unit noise: the
    # posterior is the conjugate Gaussian centered at y / 2. Matched rho
    # makes every strategy track that posterior, so the run checks the
    # guidance scalings against the exact answer.
    "linear-inverse": {
        "schedule.T": "200",
        "model.kind": "gmm",
        "model.gmm.weights": "1.0",
        "model.gmm.means": "0.0,0.0",
        "model.gmm.variances": "1.0",
        "energy.kind": "linear",
        "energy.A": "1.0,0.0;0.0,1.0",
        "energy.y": "1.0,1.0",
        "energy.noise_var": "1.0",
        "sampler.strategy": "ficd",
        "sampler.rho": "matched",
        "sampler.lam": "0.5",
        "sampler.n_chains": "2000",
    },
    # Phase-profile study task: two well-separated anisotropic modes
    # with the target at the saddle between them. Early in the reverse
    # process the denoised mean sits near the saddle (small gradient),
    # mode commitment mid-run pushes it away (the gradient peaks), and
    # late convergence brings it back, so the exact-Jacobian strategy
    # shows a mid-run bump while the approximate one front-loads.
    "gmm-style-analog": {
        "seed": "7",
        "schedule.T": "200",
        "model.kind": "gmm",
        "model.gmm.weights": "0.5,0.5",
        "model.gmm.means": "-1.5,0.0;1.5,0.0",
        "model.gmm.diags": "0.25,1.0;0.25,1.0",
        "energy.kind": "quadratic",
        "energy.target": "0.0,0.0",
        "sampler.strategy": "ficd",
        "sampler.rho": "0.2",
        "sampler.lam": "1.0",
        "sampler.n_chains": "512",
    },
    # Timing comparison on a learned score net large enough that the
    # extra Jacobian pass dominates the exact strategy's cost. Run
    # train-score with this preset first; bench then loads the dump.
    "bench-mlp": {
        "schedule.T": "200",
        "model.kind": "learned",
        "model.path": "bench-model.npz",
        "energy.kind": "quadratic",
        "energy.target": "0.0,0.0",
        "sampler.strategy": "ficd",
        "sampler.rho": "0.05",
        "sampler.n_chains": "256",
        "train.data.kind": "normal",
        "train.data.count": "4096",
        "train.data.dim": "2",
        "train.steps": "500",
        "train.net.width": "256",
        "train.net.layers": "3",
        "train.net.embed": "32",
        "bench.repetitions": "5",
    },
}

