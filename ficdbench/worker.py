"""One benchmark process: set up a workload, then run it closed-loop.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
It prints ``ready`` the moment set-up is done (just before the first
sampling call), so the parent can time set-up from process start. A
set-up-only process then reports its set-up phases and exits; the
measuring process runs operations until ``--seconds`` have passed and
prints one JSON object as its last line.

An operation is what ``ficd sample`` does after loading its config:
``sample()`` and the two CSV writes. Each one is checked: every chain
finite, the ``samples.csv`` sha256 equal to the first repetition's,
and the workload's oracle bound met. A miss counts as a failed
operation. One checked ficd operation warms up first and enters no
figure. An untraced run then runs each other strategy once, checked,
and ficd for the rest of the run; a traced run, where exact's figures
are reported, runs ficd for the first three quarters of the run and
exact for the rest. In a traced run the operations alternate untraced and
traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from spans import Tracer, union_length
from workloads import WORKLOADS

# Oracle draws for the sliced-Wasserstein figure, fixed like the
# acceptance gate's so the figure depends on the sampler's seed alone.
ORACLE_SEED = 1000
SW_PROJECTIONS = 64
SW_PROJECTION_SEED = 5
# Criterion 6 tolerance, applied per coordinate to mean and covariance.
LINEAR_TOL = 0.1
# An untrained net scores a relative error near 1 against -x; a trained
# one must remove at least half of it.
SCORE_TOL = 0.5


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: str, workload, seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    blas_env = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                check=False,
            )
            commit = out.stdout.strip() or None
        except OSError:
            pass  # no git on this machine; src_sha256 still identifies the code
    src = hashlib.sha256()
    src_root = os.path.join(root, "src", "ficd")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, src_root).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        # No variable set means the library default: one thread per core.
        "blas_threads": blas_env or f"default ({os.cpu_count()} cores)",
        "workload": workload.name,
        "seed": seed,
        "threads": threads,
    }


class Setup:
    """Everything built before the first sampling call."""

    def __init__(self, workload, seed: int, tiny: bool, tracer: Tracer | None):
        self.workload = workload
        self.phases: dict[str, float] = {}
        start = time.perf_counter()
        import ficd

        self.ficd = ficd
        self._phase("ficd.import", start, tracer)

        start = time.perf_counter()
        layers = [*workload.overrides, ("seed", str(seed))]
        if tiny:
            layers += list(workload.tiny)
        configs = {
            s: ficd.ExperimentConfig.from_sources(
                ficd.PRESETS[workload.preset], overrides=[*layers, ("sampler.strategy", s)]
            )
            for s in workload.strategies
        }
        base = configs[workload.strategies[0]]
        self.config = base
        self.threads = base["threads"]
        schedule = base.schedule()
        self.energy, self.condition = base.build_energy()
        if workload.oracle == "normal-score":
            data_rng = _philox(seed, 1)
            dataset = base.training_dataset(data_rng)
        else:
            self.model = base.build_model(schedule)
        self.sampler_configs = {s: c.sampler_config(schedule) for s, c in configs.items()}
        self._phase("config.resolve", start, tracer)

        self.train_steps = 0
        if workload.oracle == "normal-score":
            start = time.perf_counter()
            self.model = ficd.train_dsm(
                dataset,
                base.net_spec(),
                schedule,
                steps=base["train.steps"],
                learning_rate=base["train.learning_rate"],
                seed=seed,
                batch_size=base["train.batch_size"],
            )
            self.train_steps = base["train.steps"]
            self._phase("scoremodel.mlp.train", start, tracer)

    def _phase(self, name: str, start: float, tracer: Tracer | None) -> None:
        end = time.perf_counter()
        self.phases[name] = end - start
        if tracer is not None:
            tracer.add(name, start, end)

    def summary(self) -> dict:
        train_s = self.phases.get("scoremodel.mlp.train", 0.0)
        return {
            "ficd.import_s": self.phases["ficd.import"],
            "config.resolve_s": self.phases["config.resolve"],
            "scoremodel.mlp.train.busy_s": train_s,
            "scoremodel.mlp.train.steps_per_s": self.train_steps / train_s if train_s else 0.0,
        }


def _philox(seed: int, stream: int):
    import numpy as np

    return np.random.Generator(np.random.Philox(key=[seed, stream]))


class Oracle:
    """The workload's closed-form answer and the bound each output must meet."""

    def __init__(self, setup: Setup, gated: bool):
        import numpy as np

        self.kind = setup.workload.oracle
        self.gated = gated
        ficd = setup.ficd
        config = setup.config
        self.score_rel_err = 0.0
        if self.kind == "conjugate-gaussian":
            d = setup.model.dim
            post = ficd.linear_gaussian_posterior(
                np.zeros(d), np.eye(d), setup.condition.A, setup.condition.y,
                config["energy.noise_var"],
            )
            self.mean, self.cov = post.mean, post.covariance
            n = setup.sampler_configs[setup.workload.strategies[0]].n_chains
            rng = np.random.default_rng(ORACLE_SEED)
            self.draw = rng.multivariate_normal(self.mean, self.cov, size=n)
        else:
            # Standard-normal training data keep every noised marginal
            # standard normal, so the true score is -x at every t. The
            # check matches ``ficd train-score``: away from t = 1.
            model, T = setup.model, config["schedule.T"]
            x = _philox(config["seed"], 2).standard_normal((256, model.dim))
            ts = sorted({max(T // 4, 1), max(T // 2, 1), T})
            self.score_rel_err = max(
                float(np.linalg.norm(model.score(x, t) + x) / np.linalg.norm(x)) for t in ts
            )

    def check(self, samples) -> tuple[bool, dict]:
        """Quality figures of one output and whether they meet the bound."""
        import numpy as np
        from ficd import sliced_wasserstein

        if self.kind == "normal-score":
            return (not self.gated or self.score_rel_err <= SCORE_TOL), {}
        quality = {
            "sw_oracle": sliced_wasserstein(
                samples, self.draw, SW_PROJECTIONS, seed=SW_PROJECTION_SEED
            ),
            "mean_err": float(np.max(np.abs(samples.mean(axis=0) - self.mean))),
            "cov_err": float(np.max(np.abs(np.cov(samples.T) - self.cov))),
        }
        ok = quality["mean_err"] <= LINEAR_TOL and quality["cov_err"] <= LINEAR_TOL
        return not self.gated or ok, quality


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _layer(model) -> str:
    from ficd import GaussianMixtureScore

    return "scoremodel.gmm" if isinstance(model, GaussianMixtureScore) else "scoremodel.mlp"


class Runner:
    def __init__(self, setup: Setup, oracle: Oracle, out_dir: str, tracer: Tracer | None):
        self.setup = setup
        self.oracle = oracle
        self.tracer = tracer
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.rss_growth_mb = None
        self.digests: dict[str, str] = {}
        self.quality: dict[str, dict] = {}
        self.records: dict[tuple[str, bool], list[dict]] = {}
        layer = _layer(setup.model)
        self.targets = [
            (setup.model, "score", f"{layer}.score"),
            (setup.model, "score_vjp", f"{layer}.score_vjp"),
            (setup.energy, "grad", "guidance.energy_grad"),
        ]

    def op(self, strategy: str, traced: bool, keep: bool = True) -> None:
        ficd = self.setup.ficd
        config = self.setup.sampler_configs[strategy]
        samples_path = os.path.join(self.out_dir, f"{strategy}-samples.csv")
        trace_path = os.path.join(self.out_dir, f"{strategy}-trace.csv")
        self.attempted += 1
        run_id = f"{strategy}-{self.attempted}"
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.set_run(run_id)
        first_call = self.rss_growth_mb is None
        rss_before = _maxrss_mb()

        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        wrapped = tracer.wrapped if tracer is not None else (lambda targets: nullcontext())
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        with span("op"):
            try:
                with span("sampler.sample"), wrapped(self.targets):
                    samples, trace = ficd.sample(
                        config, self.setup.model, self.setup.energy, self.setup.condition,
                        threads=self.setup.threads,
                    )
            except ficd.ChainFailureError as err:
                print(f"operation {run_id} failed: {err}", file=sys.stderr)
                self.failed += 1
                return
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            with span("analytics.csv_write"):
                ficd.samples_to_csv(samples, samples_path)
                ficd.trace_to_csv(trace, trace_path)
        t2 = time.perf_counter()
        if first_call:
            self.rss_growth_mb = _maxrss_mb() - rss_before

        import numpy as np

        digest = _sha256(samples_path)
        reference = self.digests.setdefault(strategy, digest)
        finite = bool(np.all(np.isfinite(samples)))
        good, quality = self.oracle.check(samples)
        self.quality.setdefault(strategy, quality)
        ok = finite and trace.flagged_chains.size == 0 and digest == reference and good
        if not ok:
            print(
                f"operation {run_id} failed its check: finite={finite} "
                f"flagged={trace.flagged_chains.size} digest_same={digest == reference} "
                f"oracle={good} {quality}",
                file=sys.stderr,
            )
            self.failed += 1

        steps = trace.step_wall_time_s
        record = {
            "run_s": t2 - t0,
            "steps_s": steps,
            "sampler.pre_loop_s": (t1 - t0) - float(steps.sum()),
            "sampler.cpu_util": (cpu1 - cpu0) / (t1 - t0),
            "sampler.steps": int(steps.size),
            "sampler.chain_steps": int(steps.size) * config.n_chains,
            "sampler.flagged_chains": int(trace.flagged_chains.size),
            "analytics.csv_write_s": t2 - t1,
        }
        if tracer is not None:
            record.update(self._layer_figures(tracer.of_run(run_id)))
        if keep:
            self.records.setdefault((strategy, traced), []).append(record)

    def _layer_figures(self, spans) -> dict:
        figures = {}
        (sampler,) = [s for s in spans if s[1] == "sampler.sample"]
        children = [(s[2], s[3]) for s in spans if s[4] == sampler[0]]
        figures["sampler.self_s"] = (sampler[3] - sampler[2]) - union_length(children)
        for _, _, layer in self.targets:
            durations = [s[3] - s[2] for s in spans if s[1] == layer]
            busy = math.fsum(durations)
            figures[f"{layer}.calls"] = len(durations)
            figures[f"{layer}.busy_s"] = busy
            figures[f"{layer}.ms_per_call"] = 1e3 * busy / len(durations) if durations else 0.0
        return figures


# In a traced run ficd runs first for this share of the run, then exact
# for the rest. Only ficd feeds the gated metrics, so an untraced run
# checks each other strategy once and gives ficd the rest of the run.
FICD_SHARE = 0.75


def _loop(runner: Runner, strategy: str, deadline: float, traced_run: bool) -> None:
    rounds = 0
    while True:
        if traced_run:
            # Alternate which side goes first so neither gets a warmer cache.
            for traced in (False, True) if rounds % 2 == 0 else (True, False):
                runner.op(strategy, traced)
        else:
            runner.op(strategy, False)
        rounds += 1
        if time.perf_counter() >= deadline:
            break


def measure(runner: Runner, seconds: float, traced_run: bool) -> None:
    """Run operations for ``seconds``, warm-up and checks included."""
    strategies = runner.setup.workload.strategies
    start = time.perf_counter()
    # Warm-up: checked like any operation, but left out of every figure.
    runner.op(strategies[0], False, keep=False)
    if not traced_run:
        for strategy in strategies[1:]:
            runner.op(strategy, False)
        _loop(runner, strategies[0], start + seconds, traced_run)
        return
    for i, strategy in enumerate(strategies):
        share = FICD_SHARE if i < len(strategies) - 1 else 1.0
        _loop(runner, strategy, start + share * seconds, traced_run)


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records) if records else 0.0


def results(runner: Runner, traced_run: bool) -> dict:
    import numpy as np

    untraced = {s: runner.records.get((s, False), []) for s in ("ficd", "exact")}
    if not untraced["ficd"]:
        raise SystemExit("every untraced ficd operation failed; nothing to report")
    run_s = {s: _median(untraced[s], "run_s") for s in ("ficd", "exact")}
    steps = np.concatenate([r["steps_s"] for r in untraced["ficd"]]) * 1e3
    out = {
        "end_to_end": {
            "ficd.run_s": run_s["ficd"],
            "step_ms.p50": float(np.percentile(steps, 50)),
            "step_ms.p95": float(np.percentile(steps, 95)),
            "peak_rss_mb": _maxrss_mb(),
        },
        "counts": {
            "ficd.ops": len(untraced["ficd"]),
            "exact.ops": len(untraced["exact"]),
            "step_samples": int(steps.size),
        },
        "run_s_samples": {s: [r["run_s"] for r in untraced[s]] for s in ("ficd", "exact")},
        "reported": {
            "exact.run_s": run_s["exact"],
            "ratio.ficd_exact": run_s["ficd"] / run_s["exact"] if run_s["exact"] else 0.0,
            "quality.score_rel_err": runner.oracle.score_rel_err,
            "sampler.rss_growth_mb": runner.rss_growth_mb or 0.0,
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "digests": runner.digests,
    }
    for key in ("sw_oracle", "mean_err", "cov_err"):
        out["reported"][f"ficd.quality.{key}"] = runner.quality.get("ficd", {}).get(key, 0.0)
    if traced_run:
        layers = {}
        for s in ("ficd", "exact"):
            traced = runner.records.get((s, True), [])
            names = [k for k in (traced[0] if traced else {}) if k not in ("run_s", "steps_s")]
            for key in names:
                layers[f"{s}.{key}"] = _median(traced, key)
        traced_ficd = _median(runner.records.get(("ficd", True), []), "run_s")
        layers["bench.trace_overhead_frac"] = traced_ficd / run_s["ficd"] - 1.0
        out["layers"] = layers
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace and not args.setup_only else None
    setup = Setup(workload, args.seed, bool(args.tiny), tracer)
    print("ready", flush=True)
    report = {"setup": setup.summary()}
    if not args.setup_only:
        if not os.path.realpath(setup.ficd.__file__).startswith(
            os.path.realpath(os.path.join(args.root, "src")) + os.sep
        ):
            print(f"imported ficd from {setup.ficd.__file__}, not the checkout", file=sys.stderr)
            return 2
        os.makedirs(args.out, exist_ok=True)
        oracle = Oracle(setup, gated=not args.tiny)
        runner = Runner(setup, oracle, args.out, tracer)
        measure(runner, args.seconds, bool(args.trace))
        report.update(results(runner, bool(args.trace)))
        report["provenance"] = provenance(args.root, workload, args.seed, setup.threads)
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.json"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
