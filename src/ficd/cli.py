"""Command-line front end: train-score, sample, verify, trace, bench.

Every command loads one merged configuration (defaults, then preset,
then config file, then flags), runs deterministically from the single
root seed, and writes its artifacts into the output directory. Exit
codes: 0 success, 1 verification assertion failure, 2 configuration
error, 3 runtime failure (chain failure or divergent training).
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
import warnings

import numpy as np

from ficd.analytics import benchmark_steps, phase_profile, samples_to_csv, trace_to_csv, write_csv
from ficd.config import ConfigError, ExperimentConfig, parse_config_text
from ficd.posterior import PosteriorPartStrategy, strategy_name
from ficd.presets import PRESETS
from ficd.sampler import ChainFailureError, RunTrace, SamplerConfig, sample
from ficd.schedule import NoiseSchedule
from ficd.scoremodel import TrainingDivergedError, save_model, train_dsm
from ficd.verify import SUITES

__all__ = ["main"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _out_path(config: ExperimentConfig, name: str) -> str:
    out_dir = config["out.dir"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _mean_grad_norm(trace: RunTrace) -> float:
    finite = trace.grad_norm[np.isfinite(trace.grad_norm)]
    return float(finite.mean()) if finite.size else float("nan")


# -- train-score --------------------------------------------------------


def cmd_train_score(config: ExperimentConfig) -> int:
    schedule = config.schedule()
    seed = config["seed"]
    data_rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    dataset = config.training_dataset(data_rng)

    steps = config["train.steps"]
    history: list[float] = []
    model = train_dsm(
        dataset,
        config.net_spec(),
        schedule,
        steps=steps,
        learning_rate=config["train.learning_rate"],
        seed=seed,
        batch_size=config["train.batch_size"],
        loss_history=history,
    )

    model_path = config["model.path"] or _out_path(config, "model.npz")
    parent = os.path.dirname(model_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_model(model, model_path)

    write_csv(_out_path(config, "train_loss.csv"), ["step", "loss"], enumerate(history, start=1))

    if steps == 0:
        warnings.warn("saved an untrained model (train.steps = 0)", stacklevel=2)
        print(f"untrained model saved to {model_path} (0 training steps)")
    else:
        print(f"model saved to {model_path}; final loss: {model.final_loss!r}")

    if config["train.data.kind"] == "normal" and steps > 0:
        # For standard-normal data the noised marginal stays standard
        # normal at every t, so the true score is -x: a free oracle.
        # Checked away from t = 1, where the eps-to-score conversion
        # divides by sqrt(1 - alpha_bar) ~ 0 and amplifies any net error.
        check_rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
        x = check_rng.standard_normal((256, model.dim))
        errs = []
        for t in sorted({max(schedule.T // 4, 1), max(schedule.T // 2, 1), schedule.T}):
            s = model.score(x, t)
            errs.append(np.linalg.norm(s + x) / np.linalg.norm(x))
        print(f"score check vs standard-normal oracle: rel err {max(errs):.4f}")
    return EXIT_OK


# -- sample -------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _build_run(config: ExperimentConfig, guided: bool = True):
    """Model, energy and condition of a run, the condition as wide as the model."""
    model = config.build_model(config.schedule())
    if not guided:
        return model, None, None
    energy, condition = config.build_energy()
    if condition.kind == "measurement":
        key, width = "energy.A", condition.A.shape[1]
    else:
        key, width = "energy.target", condition.y.size
    if width != model.dim:
        raise ConfigError(f"{key} has width {width}, but the model has dimension {model.dim}")
    return model, energy, condition


def cmd_sample(config: ExperimentConfig) -> int:
    model, energy, condition = _build_run(config, guided=config.strategy() is not None)
    sampler_config = config.sampler_config(model.schedule)

    start = time.perf_counter()
    samples, trace = sample(
        sampler_config, model, energy, condition, threads=config["threads"]
    )
    wall = time.perf_counter() - start

    samples_to_csv(samples, _out_path(config, "samples.csv"))
    trace_to_csv(trace, _out_path(config, "trace.csv"))
    print(
        f"strategy={strategy_name(sampler_config.strategy)} T={sampler_config.T} "
        f"N={sampler_config.n_chains} wall={wall:.2f}s peak_rss={_peak_rss_mb():.1f}MB "
        f"mean_grad_norm={_mean_grad_norm(trace):.6g}"
    )
    return EXIT_OK


# -- verify -------------------------------------------------------------


def cmd_verify(config: ExperimentConfig) -> int:
    schedule = config.schedule()
    report_lines = []
    all_passed = True
    for name, suite in SUITES.items():
        result = suite(schedule)
        all_passed = all_passed and result.passed
        report_lines.append(f"[{name}] {'PASS' if result.passed else 'FAIL'}")
        report_lines.extend(f"  {line}" for line in result.lines)
    report_lines.append("ALL PASS" if all_passed else "FAILURES PRESENT")
    text = "\n".join(report_lines) + "\n"
    with open(_out_path(config, "report.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK if all_passed else EXIT_ASSERTION


# -- trace and bench ----------------------------------------------------


def _paired_configs(
    config: ExperimentConfig, schedule: NoiseSchedule
) -> dict[str, SamplerConfig]:
    """The configured sampler as exact and as ficd: only sampler.strategy is
    replaced, and rho is resolved per strategy (a matched rho differs)."""
    configs = {}
    for name in ("exact", "ficd"):
        variant = ExperimentConfig(values={**config.values, "sampler.strategy": name})
        configs[name] = variant.sampler_config(schedule)
    return configs


def cmd_trace(config: ExperimentConfig) -> int:
    T = config["schedule.T"]
    if T < 3:
        raise ConfigError(f"trace needs schedule.T >= 3 for its three phases, got {T}")
    model, energy, condition = _build_run(config)

    traces: dict[str, RunTrace] = {}
    for name, sampler_config in _paired_configs(config, model.schedule).items():
        _, trace = sample(sampler_config, model, energy, condition, threads=config["threads"])
        trace_to_csv(trace, _out_path(config, f"trace_{name}.csv"))
        traces[name] = trace

    columns = (traces["exact"].t, traces["exact"].grad_norm, traces["ficd"].grad_norm)
    header = ["t", "grad_norm_exact", "grad_norm_ficd"]
    write_csv(_out_path(config, "compare.csv"), header, zip(*(c.tolist() for c in columns)))

    for name in ("exact", "ficd"):
        early, mid, late = phase_profile(traces[name])
        print(
            f"{name} tercile means of the conditional gradient norm: "
            f"early={early:.4f} mid={mid:.4f} late={late:.4f}"
        )
    return EXIT_OK


def cmd_bench(config: ExperimentConfig) -> int:
    model, energy, condition = _build_run(config)
    table = benchmark_steps(
        model,
        _paired_configs(config, model.schedule).values(),
        repetitions=config["bench.repetitions"],
        energy=energy,
        condition=condition,
    )

    header = ["strategy", "median_run_s", "median_step_s"]
    rows = ((row.strategy, row.median_run_s, row.median_step_s) for row in table.rows)
    write_csv(_out_path(config, "timing.csv"), header, rows)

    print(table.to_text())
    ratio = table.row("ficd").median_run_s / table.row("exact").median_run_s
    print(f"FICD/EXACT median run-time ratio: {ratio:.3f}")
    return EXIT_OK


# -- argument handling --------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a dotted-key configuration file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named preset layer")
    parser.add_argument("--seed", type=int, help="root seed for every random draw")
    parser.add_argument("--out", help="output directory (default out)")
    parser.add_argument(
        "--threads",
        type=int,
        help="upper bound on worker threads; the sampler runs its blocks on one",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any configuration key",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ficd",
        description="Fisher-information-guided conditional diffusion sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-score", help="fit the noise-prediction net and save it")
    _add_common(p)
    p.add_argument("--steps", type=int, help="optimizer steps (shorthand for train.steps)")

    p = sub.add_parser("sample", help="run the sampler and write samples.csv + trace.csv")
    _add_common(p)
    p.add_argument(
        "--strategy",
        help=" | ".join(strategy_name(s) for s in (*PosteriorPartStrategy, None)),
    )
    p.add_argument("--T", type=int, help="number of diffusion steps")
    p.add_argument("--rho", help="guidance step size: float, comma list, or matched[:gain]")

    p = sub.add_parser("verify", help="run every verification suite and write report.txt")
    _add_common(p)

    p = sub.add_parser("trace", help="paired exact/ficd runs with the comparison CSV")
    _add_common(p)
    p.add_argument("--T", type=int, help="number of diffusion steps")

    p = sub.add_parser("bench", help="per-strategy timing table and ratio")
    _add_common(p)
    return parser


def _read_lines(text: str, source: str) -> list[tuple[str, str]]:
    """parse_config_text's pairs; an error names the source of the lines."""
    try:
        return list(parse_config_text(text).items())
    except ConfigError as err:
        raise ConfigError(f"{source}, {err}") from None


def _overrides_from(args: argparse.Namespace) -> list[tuple[str, str]]:
    """The --set items, read as config-file lines (item i is line i), then the shorthand flags."""
    pairs = _read_lines("\n".join(args.set), "--set items")
    flag_map = [
        ("seed", "seed"),
        ("out", "out.dir"),
        ("threads", "threads"),
        ("strategy", "sampler.strategy"),
        ("T", "schedule.T"),
        ("rho", "sampler.rho"),
        ("steps", "train.steps"),
    ]
    for attr, key in flag_map:
        value = getattr(args, attr, None)
        if value is not None:
            pairs.append((key, str(value)))
    return pairs


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    preset = PRESETS[args.preset] if args.preset else None
    pairs = []
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                pairs = _read_lines(fh.read(), args.config)
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config}: {err}") from None
    # The file's pairs come first, so --set and the flags still override them.
    return ExperimentConfig.from_sources(preset, overrides=pairs + _overrides_from(args))


_COMMANDS = {
    "train-score": cmd_train_score,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "trace": cmd_trace,
    "bench": cmd_bench,
}


def _first_ten(indices: np.ndarray) -> str:
    shown = ", ".join(str(i) for i in indices[:10])
    return shown if len(indices) <= 10 else f"{shown} (and {len(indices) - 10} more)"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ChainFailureError as err:
        print(
            f"chain failure: {len(err.flagged)} chains went non-finite, the first at step"
            f" t = {err.first_t}; flagged: {_first_ten(err.flagged)};"
            f" flagged at t = {err.first_t}: {_first_ten(err.first_chains)}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    except TrainingDivergedError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
