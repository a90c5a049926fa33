"""Experiment configuration: flat dotted-key text, presets, and builders.

A configuration is a flat mapping from dotted keys (``schedule.T``,
``sampler.rho``) to typed values. Sources merge in precedence order
defaults < preset < overrides (the command line passes a config file's
pairs before its flags), every key is validated against the schema,
and builder methods turn the merged mapping into the schedule, score
model, energy, and sampler objects the commands run with. Configuration
mistakes raise ConfigError, which the command line reports with exit
code 2.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from ficd.guidance import (
    Condition,
    DistanceEnergy,
    EnergyFunction,
    LinearMeasurementEnergy,
    QuadraticEnergy,
)
from ficd.sampler import Discretization, SamplerConfig
from ficd.schedule import NoiseSchedule, linear_schedule
from ficd.scoremodel import (
    GaussianMixture,
    GaussianMixtureScore,
    NetSpec,
    ScoreModel,
    load_model,
)
from ficd.posterior import PosteriorPartStrategy, posterior_coefficient, strategy_name

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CONFIG_SCHEMA",
    "parse_config_text",
    "parse_vector",
    "parse_matrix",
    "resolve_rho",
]


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


# key -> (type tag, default). String defaults of "" mean "unset"; the
# accessor that needs the key raises ConfigError when it stays empty.
CONFIG_SCHEMA: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    "threads": ("int", 1),
    "out.dir": ("str", "out"),
    "schedule.T": ("int", 200),
    "schedule.beta_start": ("float", 1e-4),
    "schedule.beta_end": ("float", 0.02),
    "model.kind": ("str", ""),
    "model.path": ("str", ""),
    "model.gmm.weights": ("str", "1.0"),
    "model.gmm.means": ("str", "0.0,0.0"),
    "model.gmm.variances": ("str", "1.0"),
    "model.gmm.diags": ("str", ""),
    "energy.kind": ("str", ""),
    "energy.target": ("str", ""),
    "energy.A": ("str", ""),
    "energy.y": ("str", ""),
    "energy.noise_var": ("float", 1.0),
    "sampler.strategy": ("str", "ficd"),
    "sampler.rho": ("str", "1.0"),
    "sampler.lam": ("float", 1.0),
    "sampler.discretization": ("str", "sde_euler"),
    "sampler.ddim_eta": ("float", 0.0),
    "sampler.n_chains": ("int", 256),
    "sampler.time_travel.repeats": ("int", 0),
    "train.data.kind": ("str", "normal"),
    "train.data.path": ("str", ""),
    "train.data.count": ("int", 4096),
    "train.data.dim": ("int", 2),
    "train.steps": ("int", 6000),
    "train.learning_rate": ("float", 3e-3),
    "train.batch_size": ("int", 256),
    "train.net.width": ("int", 64),
    "train.net.layers": ("int", 3),
    "train.net.embed": ("int", 16),
    "bench.repetitions": ("int", 5),
}

# Smallest value each of these integer keys accepts.
_MINIMUMS = {
    "threads": 1,
    "train.data.count": 1,
    "train.data.dim": 1,
    "train.steps": 0,
    "train.batch_size": 1,
    "bench.repetitions": 1,
}

def _coerce(key: str, raw: str) -> object:
    kind = CONFIG_SCHEMA[key][0]
    if kind == "str":
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r} (expected {kind})") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"bad value for {key}: {raw!r} (must be finite)")
    return value


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped.

    Raises ConfigError naming the first line that is neither, or the
    first key the schema does not know.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        out[key] = value.strip()
    return out


def parse_vector(text: str, key: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad vector for {key}: {text!r}") from None
    if not values:
        raise ConfigError(f"{key} must be set")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"every {key} value must be finite: {text!r}")
    return np.array(values, dtype=np.float64)


def parse_matrix(text: str, key: str) -> np.ndarray:
    """Semicolon-separated rows of comma-separated floats."""
    rows = [parse_vector(row, key) for row in text.split(";") if row.strip()]
    if not rows:
        raise ConfigError(f"{key} must be set")
    if len({row.size for row in rows}) != 1:
        raise ConfigError(f"{key} rows have unequal lengths")
    return np.stack(rows)


def _is_matched(spec: str) -> bool:
    """Whether a rho spec takes the ``matched[:gain]`` form."""
    return spec.strip().partition(":")[0] == "matched"


def resolve_rho(
    spec: str,
    schedule: NoiseSchedule,
    strategy: PosteriorPartStrategy | None,
    noise_var: float,
) -> float | np.ndarray:
    """Turn a rho spec into the scalar or per-step vector the sampler takes.

    Three syntaxes: a plain float, a comma list of length T, or
    ``matched[:gain]``. The matched form sets the step size that makes
    the guided chain track the conjugate-Gaussian posterior of a
    unit-variance prior to first order in beta. Every strategy lands on
    one effective weight there, gain beta sigma^2 / (sigma^2 + 1 -
    alpha_bar) sqrt(alpha_bar): a scalar strategy's rho_t is that weight
    over its posterior_coefficient, and exact's is the weight over
    sqrt(alpha_bar), its pullback scalar on that prior. The rule is not
    exact in discrete time: with d = 16, A = I, y = 1 and noise variance
    1 (posterior mean 0.5) 2048 chains end at a mean of 0.456 per
    coordinate at T = 200 and 0.508 at T = 1000, alike for ficd, exact
    and mpgd. ``noise_var`` is the measurement noise the match assumes;
    for non-linear energies the caller passes 1 / (2 lam), which
    identifies lam with a Gaussian likelihood weight.
    """
    spec = spec.strip()
    if _is_matched(spec):
        _, colon, tail = spec.partition(":")
        try:
            gain = float(tail) if colon else 1.0
        except ValueError:
            raise ConfigError(f"bad matched gain in rho spec {spec!r}") from None
        if not (math.isfinite(gain) and gain >= 0.0):
            raise ConfigError(f"matched gain must be finite and non-negative, got {gain}")
        if not (math.isfinite(noise_var) and noise_var > 0.0):
            raise ConfigError(f"matched rho needs a positive noise variance, got {noise_var}")
        if strategy is None:
            return np.zeros(schedule.T)
        base = gain * schedule.betas * noise_var / (noise_var + 1.0 - schedule.alpha_bars)
        if strategy is PosteriorPartStrategy.EXACT:
            return base  # on the unit Gaussian its pullback is sqrt(alpha_bar_t) g
        weight = base * np.sqrt(schedule.alpha_bars)
        return weight / [
            posterior_coefficient(strategy, schedule, t) for t in range(1, schedule.T + 1)
        ]
    if "," in spec:
        values = parse_vector(spec, "sampler.rho")
        if values.size != schedule.T:
            raise ConfigError(
                f"sampler.rho lists one value per step: got {values.size}, T={schedule.T}"
            )
        return values
    try:
        return float(spec)
    except ValueError:
        raise ConfigError(f"bad rho spec {spec!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged, schema-checked configuration with builder methods.

    ``values`` maps every schema key to its typed value. Builders
    construct the runtime objects on demand and raise ConfigError for
    anything missing or inconsistent, including referenced files that do
    not exist.
    """

    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_sources(
        cls,
        preset: dict[str, str] | None = None,
        overrides: list[tuple[str, str]] | None = None,
    ) -> "ExperimentConfig":
        merged = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
        layers: list[dict[str, str]] = []
        if preset:
            layers.append(dict(preset))
        if overrides:
            layers.append({key: raw for key, raw in overrides})
        for layer in layers:
            for key, raw in layer.items():
                if key not in CONFIG_SCHEMA:
                    raise ConfigError(f"unknown configuration key {key!r}")
                merged[key] = _coerce(key, raw)
        for key, least in _MINIMUMS.items():
            if merged[key] < least:
                raise ConfigError(f"{key} must be >= {least}, got {merged[key]}")
        if not 0 <= merged["seed"] < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {merged['seed']}")
        if merged["train.learning_rate"] <= 0.0:
            raise ConfigError(
                f"train.learning_rate must be > 0, got {merged['train.learning_rate']}"
            )
        return cls(values=merged)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    # -- builders --------------------------------------------------------

    def schedule(self) -> NoiseSchedule:
        try:
            return linear_schedule(
                self["schedule.T"], self["schedule.beta_start"], self["schedule.beta_end"]
            )
        except ValueError as err:
            raise ConfigError(f"bad schedule: {err}") from None

    def strategy(self) -> PosteriorPartStrategy | None:
        name = self["sampler.strategy"]
        if name == strategy_name(None):
            return None
        try:
            return PosteriorPartStrategy(name)
        except ValueError:
            names = ", ".join(strategy_name(s) for s in PosteriorPartStrategy)
            raise ConfigError(
                f"unknown sampler.strategy {name!r} ({names}, or {strategy_name(None)})"
            ) from None

    def build_model(self, schedule: NoiseSchedule | None = None) -> ScoreModel:
        """The score model; a learned one must match the configured schedule."""
        kind = self["model.kind"]
        if not kind:
            raise ConfigError("model.kind must be set (gmm or learned)")
        if kind not in ("gmm", "learned"):
            raise ConfigError(f"unknown model.kind {kind!r} (gmm or learned)")
        if schedule is None:
            schedule = self.schedule()
        if kind == "gmm":
            return GaussianMixtureScore(self.gmm(), schedule)
        path = self["model.path"]
        if not path:
            raise ConfigError("model.kind = learned needs model.path")
        if not os.path.exists(path):
            raise ConfigError(f"model file does not exist: {path}")
        try:
            model = load_model(path)
        except (OSError, KeyError, ValueError) as err:
            raise ConfigError(
                f"model.path {path} is not a ficd model dump ({err}); "
                "re-run train-score to write one"
            ) from None
        if not np.array_equal(model.schedule.betas, schedule.betas):
            raise ConfigError(
                f"model.path {path} holds a schedule with T={model.schedule.T} that differs "
                f"from the configured schedule.* (T={schedule.T})"
            )
        return model

    def gmm(self) -> GaussianMixture:
        weights = parse_vector(self["model.gmm.weights"], "model.gmm.weights")
        means = parse_matrix(self["model.gmm.means"], "model.gmm.means")
        diags_text = self["model.gmm.diags"]
        try:
            if diags_text:
                diags = parse_matrix(diags_text, "model.gmm.diags")
                covs = np.stack([np.diag(row) for row in diags])
                return GaussianMixture(weights=weights, means=means, covariances=covs)
            variances = parse_vector(self["model.gmm.variances"], "model.gmm.variances")
            return GaussianMixture.isotropic(weights, means, variances)
        except ValueError as err:
            raise ConfigError(f"bad mixture: {err}") from None

    def build_energy(self) -> tuple[EnergyFunction, Condition]:
        kind = self["energy.kind"]
        if not kind:
            raise ConfigError("energy.kind must be set (quadratic, distance, or linear)")
        if kind in ("quadratic", "distance"):
            target_text = self["energy.target"]
            if not target_text:
                raise ConfigError(f"energy.kind = {kind} needs energy.target")
            condition = Condition.target(parse_vector(target_text, "energy.target"))
            energy = QuadraticEnergy() if kind == "quadratic" else DistanceEnergy()
            return energy, condition
        if kind == "linear":
            if not self["energy.A"] or not self["energy.y"]:
                raise ConfigError("energy.kind = linear needs energy.A and energy.y")
            A = parse_matrix(self["energy.A"], "energy.A")
            y = parse_vector(self["energy.y"], "energy.y")
            try:
                condition = Condition.measurement(A, y)
            except ValueError as err:
                raise ConfigError(str(err)) from None
            return LinearMeasurementEnergy(), condition
        raise ConfigError(f"unknown energy.kind {kind!r} (quadratic, distance, or linear)")

    def matched_noise_var(self) -> float:
        """Measurement noise the matched rho rule assumes for this energy."""
        if self["energy.kind"] == "linear":
            return self["energy.noise_var"]
        lam = self["sampler.lam"]
        if lam <= 0.0:
            raise ConfigError("matched rho with a non-linear energy needs sampler.lam > 0")
        return 1.0 / (2.0 * lam)

    def sampler_config(self, schedule: NoiseSchedule | None = None) -> SamplerConfig:
        if schedule is None:
            schedule = self.schedule()
        strategy = self.strategy()
        rho = resolve_rho(
            self["sampler.rho"],
            schedule,
            strategy,
            self.matched_noise_var() if _is_matched(self["sampler.rho"]) else 1.0,
        )
        disc_name = self["sampler.discretization"]
        try:
            discretization = Discretization(disc_name)
        except ValueError:
            raise ConfigError(
                f"unknown sampler.discretization {disc_name!r} (sde_euler or ddim)"
            ) from None
        try:
            return SamplerConfig(
                T=schedule.T,
                strategy=strategy,
                rho=rho,
                lam=self["sampler.lam"],
                discretization=discretization,
                ddim_eta=self["sampler.ddim_eta"],
                time_travel_repeats=self["sampler.time_travel.repeats"],
                n_chains=self["sampler.n_chains"],
                seed=self["seed"],
            )
        except ValueError as err:
            # Name the key that was set, not the SamplerConfig field.
            keys = {
                "n_chains": "sampler.n_chains",
                "time_travel_repeats": "sampler.time_travel.repeats",
                "ddim_eta": "sampler.ddim_eta",
                "rho": "sampler.rho",
                "lambda": "sampler.lam",
            }
            raise ConfigError(
                re.sub(r"\w+", lambda m: keys.get(m[0], m[0]), str(err))
            ) from None

    def net_spec(self) -> NetSpec:
        try:
            return NetSpec(
                hidden_width=self["train.net.width"],
                hidden_layers=self["train.net.layers"],
                time_embed_dim=self["train.net.embed"],
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def training_dataset(self, rng: np.random.Generator) -> np.ndarray:
        """Materialize the training points named by the train.data.* keys."""
        kind = self["train.data.kind"]
        count = self["train.data.count"]
        if kind == "normal":
            return rng.standard_normal((count, self["train.data.dim"]))
        if kind == "gmm":
            return self.gmm().sample(rng, count)
        if kind == "file":
            path = self["train.data.path"]
            if not path:
                raise ConfigError("train.data.kind = file needs train.data.path")
            if not os.path.exists(path):
                raise ConfigError(f"training dataset does not exist: {path}")
            try:
                data = np.loadtxt(path, delimiter=",", ndmin=2)
            except (OSError, ValueError) as err:
                raise ConfigError(f"train.data.path {path} is not a numeric CSV: {err}") from None
            if data.size == 0:
                raise ConfigError(f"training dataset is empty: {path}")
            bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
            if bad.size:
                raise ConfigError(
                    f"train.data.path {path} holds a non-finite value (data row {bad[0] + 1})"
                )
            return data
        raise ConfigError(f"unknown train.data.kind {kind!r} (normal, gmm, or file)")
