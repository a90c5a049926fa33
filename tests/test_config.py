"""Configuration parsing, precedence, and builder behavior."""

import numpy as np
import pytest

from ficd.config import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    parse_matrix,
    parse_vector,
    resolve_rho,
)
from ficd.posterior import PosteriorPartStrategy, posterior_coefficient
from ficd.presets import PRESETS
from ficd.sampler import Discretization
from ficd.schedule import linear_schedule

SCALAR_STRATEGIES = [s for s in PosteriorPartStrategy if s is not PosteriorPartStrategy.EXACT]


def test_defaults_load():
    config = ExperimentConfig.from_sources()
    assert config["seed"] == 0
    assert config["schedule.T"] == 200
    assert config["sampler.strategy"] == "ficd"
    assert config["threads"] == 1
    assert config["out.dir"] == "out"


def test_precedence_preset_then_file_then_overrides():
    preset = {"schedule.T": "100", "sampler.lam": "2.0", "seed": "5"}
    # The file's pairs come before the flags, as the command line passes them.
    file_pairs = list(parse_config_text("schedule.T = 50\nsampler.lam = 3.0\n").items())
    overrides = [*file_pairs, ("schedule.T", "25")]
    config = ExperimentConfig.from_sources(preset, overrides=overrides)
    assert config["schedule.T"] == 25  # flag beats file beats preset
    assert config["sampler.lam"] == 3.0  # file beats preset
    assert config["seed"] == 5  # preset beats default


def test_parse_config_text_comments_and_blanks():
    text = "# full comment\n\nschedule.T = 7  # trailing\n  seed=3\n"
    assert parse_config_text(text) == {"schedule.T": "7", "seed": "3"}


def test_parse_config_text_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key 'schedule.t'"):
        parse_config_text("schedule.t = 7\n")


def test_parse_config_text_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


@pytest.mark.parametrize(
    "key,raw",
    [("schedule.T", "ten"), ("sampler.lam", "wide")],
)
def test_bad_typed_values(key, raw):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        ExperimentConfig.from_sources(overrides=[(key, raw)])


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
def test_non_finite_floats_are_named_as_such(raw):
    with pytest.raises(ConfigError, match=rf"sampler\.lam: '{raw}' \(must be finite\)"):
        ExperimentConfig.from_sources(overrides=[("sampler.lam", raw)])


def test_unknown_override_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        ExperimentConfig.from_sources(overrides=[("sampler.speed", "11")])


def test_parse_vector_and_matrix():
    np.testing.assert_allclose(parse_vector("1.5, -2", "k"), [1.5, -2.0])
    np.testing.assert_allclose(parse_matrix("1,0;0,1", "k"), np.eye(2))
    with pytest.raises(ConfigError, match="unequal"):
        parse_matrix("1,0;0", "k")
    with pytest.raises(ConfigError, match="bad vector"):
        parse_vector("a,b", "k")
    for text in ("nan,0", "1,inf", "-inf", "1e400"):
        with pytest.raises(ConfigError, match="every k value must be finite"):
            parse_vector(text, "k")
    with pytest.raises(ConfigError, match="every k value must be finite"):
        parse_matrix("1,0;0,nan", "k")


# -- rho resolution -----------------------------------------------------


def test_resolve_rho_scalar_and_list():
    schedule = linear_schedule(4)
    assert resolve_rho("0.25", schedule, PosteriorPartStrategy.FICD, 1.0) == 0.25
    values = resolve_rho("0.1,0.2,0.3,0.4", schedule, None, 1.0)
    np.testing.assert_allclose(values, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ConfigError, match="one value per step"):
        resolve_rho("0.1,0.2", schedule, None, 1.0)


def test_resolve_rho_matched_per_strategy():
    """matched is one effective weight, gain beta sigma^2 / (sigma^2 + 1 -
    abar) sqrt(abar), over each scalar strategy's posterior_coefficient.
    The mpgd, unit and exact vectors keep the bits of the per-strategy
    formulas written out below; uncond gets zeros."""
    for T in (1, 2, 40, 200):
        schedule = linear_schedule(T)
        abar = schedule.alpha_bars
        abar_prev = np.concatenate([[1.0], abar[:-1]])
        for nv in (1.0, 1.0 / (2.0 * 0.3)):
            for gain in (0.0, 1.5):
                spec = f"matched:{gain}"
                base = gain * schedule.betas * nv / (nv + 1.0 - abar)
                weight = base * np.sqrt(abar)
                for strategy in SCALAR_STRATEGIES:
                    rho = resolve_rho(spec, schedule, strategy, nv)
                    coefficient = [
                        posterior_coefficient(strategy, schedule, t) for t in range(1, T + 1)
                    ]
                    np.testing.assert_allclose(rho * coefficient, weight, rtol=1e-15, atol=0.0)
                written_out = {
                    PosteriorPartStrategy.EXACT: base,
                    PosteriorPartStrategy.MPGD: base * np.sqrt(abar) / np.sqrt(abar_prev),
                    PosteriorPartStrategy.UNIT: base * np.sqrt(abar),
                    None: np.zeros(T),
                }
                for strategy, expected in written_out.items():
                    got = resolve_rho(spec, schedule, strategy, nv)
                    assert np.array_equal(got, expected), (T, nv, gain, strategy)


def test_resolve_rho_matched_gain_scales_linearly():
    schedule = linear_schedule(5)
    one = resolve_rho("matched", schedule, PosteriorPartStrategy.EXACT, 1.0)
    scaled = resolve_rho("matched:1.5", schedule, PosteriorPartStrategy.EXACT, 1.0)
    np.testing.assert_allclose(scaled, 1.5 * one, rtol=1e-12)


@pytest.mark.parametrize("spec", ["matched:", "matched:x", "matchedish", "wide"])
def test_resolve_rho_bad_specs(spec):
    schedule = linear_schedule(3)
    with pytest.raises(ConfigError):
        resolve_rho(spec, schedule, PosteriorPartStrategy.FICD, 1.0)


def test_resolve_rho_matched_needs_positive_noise_var():
    schedule = linear_schedule(3)
    with pytest.raises(ConfigError, match="noise variance"):
        resolve_rho("matched", schedule, PosteriorPartStrategy.FICD, 0.0)


def test_matched_noise_var_rules():
    linear = ExperimentConfig.from_sources(
        overrides=[("energy.kind", "linear"), ("energy.noise_var", "3.0")]
    )
    assert linear.matched_noise_var() == 3.0
    quad = ExperimentConfig.from_sources(
        overrides=[("energy.kind", "quadratic"), ("sampler.lam", "0.25")]
    )
    assert quad.matched_noise_var() == 2.0  # 1 / (2 lam)
    bad = ExperimentConfig.from_sources(
        overrides=[("energy.kind", "quadratic"), ("sampler.lam", "0.0")]
    )
    with pytest.raises(ConfigError, match="sampler.lam > 0"):
        bad.matched_noise_var()


def test_sampler_config_reads_matched_as_resolve_rho_does():
    """Only a matched[:gain] spec asks for the matched noise variance, so a
    spec that merely contains the word is named as a bad spec."""

    def config(rho, lam):
        overrides = [("sampler.rho", rho), ("sampler.lam", lam), ("schedule.T", "5")]
        return ExperimentConfig.from_sources(PRESETS["gaussian-point"], overrides=overrides)

    with pytest.raises(ConfigError, match="bad rho spec 'matchedish'"):
        config("matchedish", "0.0").sampler_config()
    with pytest.raises(ConfigError, match="sampler.lam > 0"):
        config("matched", "0.0").sampler_config()
    rho = config("matched:2", "1.0").sampler_config().rho
    assert np.ndim(rho) == 1 and rho.size == 5 and np.all(rho > 0.0)


# -- builders -----------------------------------------------------------


def test_schedule_builder_kinds_and_errors():
    linear = ExperimentConfig.from_sources(overrides=[("schedule.T", "10")]).schedule()
    assert linear.T == 10
    with pytest.raises(ConfigError, match="bad schedule"):
        ExperimentConfig.from_sources(overrides=[("schedule.beta_end", "1.5")]).schedule()
    # The linear rule is the only one; the retired schedule.kind is an unknown key.
    with pytest.raises(ConfigError, match="unknown configuration key 'schedule.kind'"):
        ExperimentConfig.from_sources(overrides=[("schedule.kind", "linear")])


def test_gmm_builder_isotropic_and_diagonal():
    iso = ExperimentConfig.from_sources(
        overrides=[
            ("model.gmm.weights", "0.5,0.5"),
            ("model.gmm.means", "-1,0;1,0"),
            ("model.gmm.variances", "0.4,0.9"),
        ]
    ).gmm()
    np.testing.assert_allclose(iso.covariances[1], 0.9 * np.eye(2))
    diag = ExperimentConfig.from_sources(
        overrides=[
            ("model.gmm.weights", "1.0"),
            ("model.gmm.means", "0,0"),
            ("model.gmm.diags", "0.25,1.0"),
        ]
    ).gmm()
    np.testing.assert_allclose(diag.covariances[0], np.diag([0.25, 1.0]))


def test_model_builder_requires_kind_and_existing_path(tmp_path):
    with pytest.raises(ConfigError, match="model.kind must be set"):
        ExperimentConfig.from_sources().build_model()
    missing = tmp_path / "none.npz"
    config = ExperimentConfig.from_sources(
        overrides=[("model.kind", "learned"), ("model.path", str(missing))]
    )
    with pytest.raises(ConfigError, match=str(missing)):
        config.build_model()


def test_energy_builders():
    quad = ExperimentConfig.from_sources(
        overrides=[("energy.kind", "quadratic"), ("energy.target", "1,2")]
    )
    energy, condition = quad.build_energy()
    assert condition.kind == "target"
    np.testing.assert_allclose(condition.y, [1.0, 2.0])

    lin = ExperimentConfig.from_sources(
        overrides=[("energy.kind", "linear"), ("energy.A", "1,0;0,1"), ("energy.y", "1,1")]
    )
    energy, condition = lin.build_energy()
    assert condition.kind == "measurement"

    with pytest.raises(ConfigError, match="energy.kind must be set"):
        ExperimentConfig.from_sources().build_energy()
    with pytest.raises(ConfigError, match="needs energy.target"):
        ExperimentConfig.from_sources(overrides=[("energy.kind", "distance")]).build_energy()
    with pytest.raises(ConfigError, match="unknown energy.kind"):
        ExperimentConfig.from_sources(overrides=[("energy.kind", "cubic")]).build_energy()


def test_sampler_config_round_trip():
    config = ExperimentConfig.from_sources(
        overrides=[
            ("schedule.T", "20"),
            ("sampler.strategy", "mpgd"),
            ("sampler.rho", "0.125"),
            ("sampler.n_chains", "7"),
            ("seed", "99"),
            ("sampler.discretization", "ddim"),
            ("sampler.ddim_eta", "0.5"),
            ("sampler.time_travel.repeats", "1"),
        ]
    )
    sc = config.sampler_config()
    assert sc.T == 20
    assert sc.strategy is PosteriorPartStrategy.MPGD
    assert sc.rho == 0.125
    assert sc.n_chains == 7
    assert sc.seed == 99
    assert sc.discretization is Discretization.DDIM
    assert sc.ddim_eta == 0.5
    assert sc.time_travel_repeats == 1


def test_sampler_config_uncond_and_errors():
    uncond = ExperimentConfig.from_sources(overrides=[("sampler.strategy", "uncond")])
    assert uncond.sampler_config().strategy is None
    with pytest.raises(ConfigError, match="unknown sampler.strategy"):
        ExperimentConfig.from_sources(
            overrides=[("sampler.strategy", "fast")]
        ).sampler_config()
    with pytest.raises(ConfigError, match="unknown sampler.discretization"):
        ExperimentConfig.from_sources(
            overrides=[("sampler.discretization", "heun")]
        ).sampler_config()
    # Forwarded from the sampler, under the key's name.
    with pytest.raises(ConfigError, match="sampler.time_travel.repeats must be >= 0"):
        ExperimentConfig.from_sources(
            overrides=[("sampler.time_travel.repeats", "-1")]
        ).sampler_config()
    # Settings the run would ignore are rejected, not dropped.
    with pytest.raises(ConfigError, match="sde_euler"):
        ExperimentConfig.from_sources(overrides=[("sampler.ddim_eta", "0.5")]).sampler_config()
    # ... while a DDIM run keeps its eta.
    ddim = ExperimentConfig.from_sources(
        overrides=[("sampler.discretization", "ddim"), ("sampler.ddim_eta", "0.5")]
    ).sampler_config()
    assert ddim.ddim_eta == 0.5


def test_training_dataset_kinds(tmp_path):
    rng = np.random.default_rng(0)
    normal = ExperimentConfig.from_sources(
        overrides=[("train.data.count", "32"), ("train.data.dim", "3")]
    ).training_dataset(rng)
    assert normal.shape == (32, 3)

    gmm_cfg = ExperimentConfig.from_sources(
        overrides=[
            ("train.data.kind", "gmm"),
            ("train.data.count", "16"),
            ("model.gmm.weights", "1.0"),
            ("model.gmm.means", "5,5"),
            ("model.gmm.variances", "0.01"),
        ]
    )
    points = gmm_cfg.training_dataset(rng)
    assert points.shape == (16, 2)
    assert np.all(np.abs(points - 5.0) < 1.0)

    csv = tmp_path / "data.csv"
    np.savetxt(csv, np.arange(8.0).reshape(4, 2), delimiter=",")
    file_cfg = ExperimentConfig.from_sources(
        overrides=[("train.data.kind", "file"), ("train.data.path", str(csv))]
    )
    np.testing.assert_allclose(file_cfg.training_dataset(rng), np.arange(8.0).reshape(4, 2))

    missing = ExperimentConfig.from_sources(
        overrides=[("train.data.kind", "file"), ("train.data.path", str(tmp_path / "no.csv"))]
    )
    with pytest.raises(ConfigError, match="no.csv"):
        missing.training_dataset(rng)

    for value in ("nan", "inf", "-inf"):
        bad = tmp_path / f"{value}.csv"
        bad.write_text(f"0,1\n2,3\n4,{value}\n")
        bad_cfg = ExperimentConfig.from_sources(
            overrides=[("train.data.kind", "file"), ("train.data.path", str(bad))]
        )
        with pytest.raises(ConfigError, match=f"train.data.path .*{value}.csv .*data row 3"):
            bad_cfg.training_dataset(rng)


def test_net_spec_validation_wrapped():
    bad = ExperimentConfig.from_sources(overrides=[("train.net.embed", "7")])
    with pytest.raises(ConfigError, match="even"):
        bad.net_spec()


def test_presets_all_build():
    for name in PRESETS:
        config = ExperimentConfig.from_sources(preset=PRESETS[name])
        schedule = config.schedule()
        config.sampler_config(schedule)
        config.build_energy()
        if config["model.kind"] == "gmm":
            config.build_model(schedule)
