"""End-to-end command behavior through the argparse entry point.

Commands run in-process via main(argv); outputs land in tmp_path so the
byte-identity checks can diff real files.
"""

import hashlib

import numpy as np
import pytest

import ficd.analytics
import ficd.cli
from ficd.analytics import TRACE_COLUMNS
from ficd.cli import main
from ficd.schedule import linear_schedule
from ficd.scoremodel import LearnedScoreModel, NetSpec, save_model


def run(*argv):
    return main(list(argv))


def sample_args(out, *extra):
    return (
        "sample",
        "--preset",
        "gaussian-point",
        "--T",
        "30",
        "--set",
        "sampler.n_chains=64",
        "--out",
        str(out),
        *extra,
    )


# -- sample -------------------------------------------------------------


def test_sample_smoke(tmp_path, capsys):
    assert run(*sample_args(tmp_path / "run")) == 0
    out = capsys.readouterr().out
    assert "strategy=ficd" in out and "T=30" in out and "N=64" in out
    assert "peak_rss=" in out
    assert (tmp_path / "run" / "samples.csv").exists()
    assert (tmp_path / "run" / "trace.csv").exists()


def test_sample_rerun_is_byte_identical_outside_timings(tmp_path):
    assert run(*sample_args(tmp_path / "a", "--strategy", "exact")) == 0
    assert run(*sample_args(tmp_path / "b", "--strategy", "exact")) == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == (
        tmp_path / "b" / "samples.csv"
    ).read_bytes()
    ta, tb = (np.loadtxt(tmp_path / run / "trace.csv", delimiter=",", skiprows=1) for run in "ab")
    for field in ("t", "grad_norm", "cr_bound", "coefficient_used", "score_evals"):
        col = TRACE_COLUMNS.index(field)
        np.testing.assert_array_equal(ta[:, col], tb[:, col])


def test_fisher_probe_does_not_change_how_a_run_ends(tmp_path, capsys):
    """The probe's score derivative overflows at t = 7; the run still ends as it does without it."""
    argv = (
        "sample", "--preset", "gmm-tilt", "--T", "14", "--strategy", "exact", "--rho", "40",
        "--set", "sampler.n_chains=64",
    )
    for probe in ("false", "true"):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(*argv, "--set", f"sampler.trace_fisher={probe}", "--out", str(tmp_path / probe))
        assert code == 3, probe
        assert "chain failure: 64 chains went non-finite" in capsys.readouterr().err, probe


def test_sample_thread_count_does_not_change_samples(tmp_path):
    assert run(*sample_args(tmp_path / "t1", "--threads", "1")) == 0
    assert run(*sample_args(tmp_path / "t4", "--threads", "4")) == 0
    assert (tmp_path / "t1" / "samples.csv").read_bytes() == (
        tmp_path / "t4" / "samples.csv"
    ).read_bytes()


def test_sample_zero_rho_strategies_agree(tmp_path):
    assert run(*sample_args(tmp_path / "f", "--strategy", "ficd", "--rho", "0.0")) == 0
    assert run(*sample_args(tmp_path / "u", "--strategy", "unit", "--rho", "0.0")) == 0
    assert (tmp_path / "f" / "samples.csv").read_bytes() == (
        tmp_path / "u" / "samples.csv"
    ).read_bytes()


def timing_free_sha256(path):
    """sha256 of a trace CSV with its step_wall_time_s column removed."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("step_wall_time_s")
    text = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# samples.csv sha256 of every preset and strategy at T = 40 with 64 chains.
# A refactor leaves them unchanged; a change that moves the samples on
# purpose updates them and says why.
PINNED_SAMPLES_SHA256 = {
    ("gaussian-point", "exact"): "e93332cc52cd4c96bdb79c4c9296eb780fa67ff44427f0173ffcbd46ba33d9f7",
    ("gaussian-point", "ficd"): "7270934268a2bfa3c92d88e367df8394b929ebc7847bf08d403857562b6f06e1",
    ("gaussian-point", "mpgd"): "5e672ee7bf489673bd578a80f9855ef7ef4fa28813114181311512e69e81975c",
    ("gaussian-point", "unit"): "1770d36ec1860850de1ca5f1fc59bd3b23df0cd696fa17a8ec5c873a80d5ccea",
    ("gaussian-point", "uncond"): "c7f226feb4db6ccf255d33ebc5d73f38248fdf8af6d4f511865571baa714b4cf",
    ("gmm-tilt", "exact"): "0b24bf6abf72cb6b20531906d8f3b43f0073760edbf5bb93dec56e10b1927cfe",
    ("gmm-tilt", "ficd"): "236607b3af5eda0db35f1c5f0dbe1ec090fd8ab5e98e6f60a8be6c3f71fdefef",
    ("gmm-tilt", "mpgd"): "dea3ed57e6956587fe28d6f21ff6352d069d799322718ca3d02a5aa68e673dec",
    ("gmm-tilt", "unit"): "64da49dab4949bc4d7633d5b7958e423e9269223cc87cb540321d2db2f8df843",
    ("gmm-tilt", "uncond"): "06ad7746258a32dc5a00d480270249b7baf21cb201f501453c3ee7267aa25706",
    ("linear-inverse", "exact"): "4e7c9f7de9e99538a9c8c6bb7a47e578abeee999d1f6f03ee6a018ed640e8f63",
    ("linear-inverse", "ficd"): "47a3f32c04feccc087061a1ca0e9f170e84e8f65fd22021b2fdf40ad4da9daec",
    ("linear-inverse", "mpgd"): "abcfd95ffac648083555945fdd3777973169205111363a2911b050462208653c",
    ("linear-inverse", "unit"): "9d889bdfd1e9d828532d7e85d803a8ec0fd3602d05decf84ed50c7353ebccd0d",
    ("linear-inverse", "uncond"): "c7f226feb4db6ccf255d33ebc5d73f38248fdf8af6d4f511865571baa714b4cf",
    ("gmm-style-analog", "exact"): "10f35d2f33c41f4020445d2fe911a3b0665a9f04a046f545bd56831317f1a4ce",
    ("gmm-style-analog", "ficd"): "1d8695252a00b14249f7974918b39c42fc91e492f3cd645919ea413d102a0c9d",
    ("gmm-style-analog", "mpgd"): "8fce849d4c3fde29aae9d0a97680346c6e12dd49d3ae915c885d8c1ef0263dae",
    ("gmm-style-analog", "unit"): "4a842c88f38135a74e8240547803b1823932ebb4d63043ee1159724913b62426",
    ("gmm-style-analog", "uncond"): "50094fb41bfdb6765a23d73472551cf5f7f39f1aabad943ed5089c35adcfa61f",
}


# sha256 of the same runs' trace.csv with the step_wall_time_s column
# removed; the runs keep the Fisher probe on, so its column is pinned too.
PINNED_TRACE_SHA256 = {
    ("gaussian-point", "exact"): "460fc2e364304b9deb09240029d6afc0a0bf05348951ad46166fdf0ffdeb8d4d",
    ("gaussian-point", "ficd"): "31e42223443d1bbc35c0d24b0d5d34a011bfda18f9b17fe8c1ae7c209ffa2713",
    ("gaussian-point", "mpgd"): "ce20d0543f1e55a875ff2a4985fb66230839dbd7eee7a8adc6885dc65d2e483a",
    ("gaussian-point", "unit"): "4267fafdf3cc041b1f272f0ff25cc324950a5237ed7d7333f30bfad8923f418f",
    ("gaussian-point", "uncond"): "f4c6f3d658898ebc2be429be6f2c3563457b6f5d6ef33bbec4bb14e1dbab29fc",
    ("gmm-tilt", "exact"): "761ebc165303175be3c827e49a1ad26651905f30c985489f4680378aa9f7b6fc",
    ("gmm-tilt", "ficd"): "9a85762d359c101bac794b950f82b93a603a6f65ad6fd66e3880370cf0f80e1c",
    ("gmm-tilt", "mpgd"): "60efced98905fc271d3a25dde05749ebe03cf9ba4f97b0b5fcad0f23ac1fd0eb",
    ("gmm-tilt", "unit"): "1ecf310bb6b686d255efb3fecf21f0baa1a562a15b46c230d85e166f791bc78a",
    ("gmm-tilt", "uncond"): "bc94423573edc554d1101800f69a98d5cdef095fd7fbf406ac14c203982b1cc0",
    ("linear-inverse", "exact"): "87093b38b02093b0b3276cb7caf4109ee71196b47488f69ab8f5d8be4de26cd6",
    ("linear-inverse", "ficd"): "53630dce0b8efe4dbf134f09c2a5409fb8787d0935dddc9a43761c882824dbbe",
    ("linear-inverse", "mpgd"): "bd9fe75c914bd1316df5297fe4c0c9ecebdcfb6a7bd6842801b62db85f706b0f",
    ("linear-inverse", "unit"): "b94c28df9f6b0a91d2a89767c8ffb99174930e29c51e86c406b98ca5dbe98a8d",
    ("linear-inverse", "uncond"): "f4c6f3d658898ebc2be429be6f2c3563457b6f5d6ef33bbec4bb14e1dbab29fc",
    ("gmm-style-analog", "exact"): "e30cc3a1bce26ec549e3276e6399084c62659cc2406fde9b458e82187037d880",
    ("gmm-style-analog", "ficd"): "ea328863e127fe31afefb1f29b97b0f9514c731bf5c18d0926b2b85a1212452d",
    ("gmm-style-analog", "mpgd"): "095980080b338d7283f48cdf4b6af34928ebfbdc2da097decfef36b1de1ee4b7",
    ("gmm-style-analog", "unit"): "6703ac0c0c9a086c7b1ff182614517cc5be0856966b5a77bdc671947c41bcaba",
    ("gmm-style-analog", "uncond"): "69fc4b8d189191253fe50b59143fa937333a9f6ef3a76afe92d5000306c283d3",
}


@pytest.mark.parametrize("preset,strategy", sorted(PINNED_SAMPLES_SHA256))
def test_sample_output_is_pinned(tmp_path, preset, strategy):
    out = tmp_path / "run"
    argv = ["sample", "--preset", preset, "--T", "40", "--strategy", strategy,
            "--set", "sampler.n_chains=64", "--set", "sampler.trace_fisher=true",
            "--out", str(out)]
    assert run(*argv) == 0
    digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SAMPLES_SHA256[preset, strategy]
    assert timing_free_sha256(out / "trace.csv") == PINNED_TRACE_SHA256[preset, strategy]


def test_sample_uncond_needs_no_energy(tmp_path):
    assert (
        run(
            "sample",
            "--strategy",
            "uncond",
            "--T",
            "10",
            "--set",
            "model.kind=gmm",
            "--set",
            "sampler.n_chains=8",
            "--out",
            str(tmp_path / "u"),
        )
        == 0
    )


def test_sample_config_file_layer(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schedule.T = 40\nsampler.n_chains = 16\n# comment\n")
    assert (
        run(
            "sample",
            "--preset",
            "gaussian-point",
            "--config",
            str(cfg),
            "--T",
            "20",
            "--out",
            str(tmp_path / "o"),
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "T=20" in out and "N=16" in out  # flag beat file; file beat preset


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blown-up run overflows
def test_sample_exit_codes(tmp_path, capsys):
    assert run("sample", "--set", "bogus.key=1", "--out", str(tmp_path / "x")) == 2
    assert run("sample", "--config", str(tmp_path / "absent.cfg")) == 2
    assert run("sample", "--preset", "gaussian-point", "--set", "energy.kind=") == 2
    assert run(*sample_args(
        tmp_path / "eta", "--set", "sampler.discretization=ddim", "--set", "sampler.ddim_eta=3.0"
    )) == 2
    # A setting the run would ignore: eta on an Euler run.
    assert run(*sample_args(tmp_path / "eta_euler", "--set", "sampler.ddim_eta=0.7")) == 2
    assert run(*sample_args(tmp_path / "t0", "--threads", "0")) == 2
    assert run(*sample_args(tmp_path / "tneg", "--threads", "-4")) == 2
    assert run(*sample_args(tmp_path / "dse", "--set", "sampler.double_score_eval=true")) == 2
    assert run(*sample_args(tmp_path / "bare", "--set", "foo")) == 2
    # The retired schedule.kind is an unknown key, whatever its value.
    for kind in ("cosine", "linear"):
        assert run(*sample_args(tmp_path / kind, "--set", f"schedule.kind={kind}")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "'foo'" in err and err.count("unknown configuration key 'schedule.kind'") == 2
    assert "ddim_eta" in err and "threads" in err
    assert "sde_euler" in err
    failing = run(
        "sample",
        "--preset",
        "gmm-style-analog",
        "--rho",
        "5.0",
        "--set",
        "sampler.n_chains=32",
        "--out",
        str(tmp_path / "c"),
    )
    assert failing == 3
    assert "chain failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "item",
    [
        "sampler.time_travel.t_lo=5",
        "sampler.time_travel.t_hi=9",
        "sampler.final_noise=true",
        "verify.suites=tweedie",
    ],
)
def test_retired_keys_are_unknown(tmp_path, capsys, item):
    assert run(*sample_args(tmp_path / "r", "--set", item)) == 2
    key = item.partition("=")[0]
    assert f"unknown configuration key '{key}'" in capsys.readouterr().err


def test_negative_time_travel_repeats_is_a_config_error(tmp_path, capsys):
    assert run(*sample_args(tmp_path / "r", "--set", "sampler.time_travel.repeats=-1")) == 2
    assert "sampler.time_travel.repeats must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "item,message",
    [
        ("sampler.n_chains=0", "sampler.n_chains must be positive"),
        ("sampler.rho=-1", "every sampler.rho value must be finite and >= 0"),
    ],
)
def test_forwarded_sampler_errors_name_the_key(tmp_path, capsys, item, message):
    assert run(*sample_args(tmp_path / "r", "--set", item)) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "trace", "bench"])
@pytest.mark.parametrize(
    "preset,item,key",
    [
        ("gaussian-point", "energy.target=1,2,3", "energy.target"),
        ("linear-inverse", "energy.A=1,0,0;0,1,0", "energy.A"),
    ],
)
def test_condition_width_must_match_the_model(tmp_path, capsys, command, preset, item, key):
    argv = (command, "--preset", preset, "--set", "schedule.T=5", "--set", item)
    assert run(*argv, "--out", str(tmp_path / "r")) == 2
    message = f"configuration error: {key} has width 3, but the model has dimension 2"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_is_a_config_error(tmp_path, capsys, seed):
    assert run(*train_args(tmp_path / "t", "--seed", seed)) == 2
    assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err


def test_config_errors_name_their_source(tmp_path, capsys):
    # sample_args holds one --set item, so 'foo' is the third.
    assert run(*sample_args(tmp_path / "s", "--set", "seed=1", "--set", "foo")) == 2
    assert "--set items, line 3: expected 'key = value', got 'foo'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    for body, message in [
        ("schedule.T = 40\nfoo\n", "line 2: expected 'key = value', got 'foo'"),
        ("# comment\nbogus.key = 1\n", "line 2: unknown configuration key 'bogus.key'"),
    ]:
        cfg.write_text(body)
        assert run(*sample_args(tmp_path / "c", "--config", str(cfg))) == 2
        assert f"{cfg}, {message}" in capsys.readouterr().err


def test_set_items_are_read_as_config_lines(tmp_path, capsys):
    # '#' starts a comment, a later --set wins, and the --T flag beats --set.
    argv = sample_args(
        tmp_path / "c", "--set", "sampler.n_chains=16 # fewer chains", "--set", "schedule.T=7"
    )
    assert run(*argv) == 0
    out = capsys.readouterr().out
    assert "N=16" in out and "T=30" in out


def test_unknown_preset_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("sample", "--preset", "giant-run")
    assert exc.value.code == 2
    assert "argument --preset: invalid choice: 'giant-run'" in capsys.readouterr().err


# -- verify -------------------------------------------------------------


def test_verify_sound_suites_pass(tmp_path, capsys):
    code = run(
        "verify",
        "--set",
        "schedule.T=50",
        "--out",
        str(tmp_path / "v"),
    )
    assert code == 0
    report = (tmp_path / "v" / "report.txt").read_text()
    assert "ALL PASS" in report
    assert "[tweedie] PASS" in report
    assert "measured only" in report  # multimodal numbers shown, never gating
    assert "ALL PASS" in capsys.readouterr().out


# sha256 of report.txt from every suite at the default T = 200: it prints
# the closed-form mixture Jacobian's gaps and ratios to many digits.
PINNED_REPORT_SHA256 = "1ac8525d475cb0de8593c8dd4246322954c801b7500782f555ef8b81957809d1"


def test_verify_all_report_is_pinned(tmp_path):
    assert run("verify", "--out", str(tmp_path / "v")) == 0
    digest = hashlib.sha256((tmp_path / "v" / "report.txt").read_bytes()).hexdigest()
    assert digest == PINNED_REPORT_SHA256


def test_verify_has_no_suite_flag():
    with pytest.raises(SystemExit) as exc:
        run("verify", "--suite", "all")
    assert exc.value.code == 2


def test_verify_deviation_bound_fails_honestly(tmp_path, capsys):
    # The unit-norm gradient meets the sharp ceiling at every step, so the
    # honest verdict is a pass.
    code = run(
        "verify",
        "--set",
        "schedule.T=40",
        "--out",
        str(tmp_path / "v"),
    )
    assert code == 0
    report = (tmp_path / "v" / "report.txt").read_text()
    assert "[deviation-bound] PASS" in report
    assert "40/40 steps within bound" in report
    assert "ALL PASS" in capsys.readouterr().out


def test_verify_corrupted_schedule_is_a_config_error(tmp_path):
    assert run("verify", "--set", "schedule.beta_end=1.5", "--out", str(tmp_path / "v")) == 2


# -- trace --------------------------------------------------------------


def test_trace_writes_pair_and_comparison(tmp_path, capsys):
    code = run(
        "trace",
        "--preset",
        "gaussian-point",
        "--T",
        "30",
        "--set",
        "sampler.n_chains=64",
        "--out",
        str(tmp_path / "tr"),
    )
    assert code == 0
    for name in ("trace_exact.csv", "trace_ficd.csv", "compare.csv"):
        assert (tmp_path / "tr" / name).exists()
    header, first = (tmp_path / "tr" / "compare.csv").read_text().splitlines()[:2]
    assert header == "t,grad_norm_exact,grad_norm_ficd"
    assert first.startswith("30,")
    out = capsys.readouterr().out
    assert "exact tercile means" in out and "ficd tercile means" in out


# sha256 of the gmm-tilt trace at T = 40 with 64 chains: the preset's two
# time-travel repeats and a matched rho per strategy; the trace CSVs with
# their step_wall_time_s column removed.
PINNED_TRACE_RUN_SHA256 = {
    "compare.csv": "97786b8a3b6d1bca102901a2ca42ed9bb02a87afd7f49d99894c2469970e391b",
    "trace_exact.csv": "99099ca45a1438b7ab4ddd2990111a436a45ed5b1b9d8fc514c22c7e29439a7d",
    "trace_ficd.csv": "fd0076ab1438bac3c849c696db6fa175795b507aa12c9a5af82d835c2ba3483a",
}


def test_trace_output_is_pinned(tmp_path):
    out = tmp_path / "tr"
    argv = ("trace", "--preset", "gmm-tilt", "--T", "40", "--set", "sampler.n_chains=64")
    assert run(*argv, "--out", str(out)) == 0
    got = {
        "compare.csv": hashlib.sha256((out / "compare.csv").read_bytes()).hexdigest(),
        "trace_exact.csv": timing_free_sha256(out / "trace_exact.csv"),
        "trace_ficd.csv": timing_free_sha256(out / "trace_ficd.csv"),
    }
    assert got == PINNED_TRACE_RUN_SHA256


def test_trace_three_steps_gives_singleton_terciles(tmp_path, capsys):
    code = run(
        "trace",
        "--preset",
        "gaussian-point",
        "--T",
        "3",
        "--set",
        "sampler.n_chains=16",
        "--out",
        str(tmp_path / "tr3"),
    )
    assert code == 0
    assert len((tmp_path / "tr3" / "compare.csv").read_text().splitlines()) == 4
    assert "early=" in capsys.readouterr().out


def test_trace_too_short_for_three_phases_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "tr2"
    argv = ("trace", "--preset", "gmm-tilt", "--T", "2", "--set", "sampler.n_chains=16")
    assert run(*argv, "--out", str(out)) == 2
    assert "schedule.T >= 3" in capsys.readouterr().err
    assert not out.exists()  # neither strategy ran


# -- bench --------------------------------------------------------------


def make_model_file(path, T=20, width=8):
    schedule = linear_schedule(T)
    model = LearnedScoreModel.init(
        NetSpec(hidden_width=width, hidden_layers=2, time_embed_dim=4),
        schedule,
        2,
        rng=np.random.default_rng(0),
    )
    save_model(model, path)


def test_bench_counts_and_ratio(tmp_path, capsys):
    model_path = tmp_path / "m.npz"
    make_model_file(model_path)
    code = run(
        "bench",
        "--preset",
        "bench-mlp",
        "--set",
        f"model.path={model_path}",
        "--set",
        "schedule.T=20",
        "--set",
        "sampler.n_chains=16",
        "--set",
        "bench.repetitions=2",
        "--out",
        str(tmp_path / "b"),
    )
    assert code == 0
    lines = (tmp_path / "b" / "timing.csv").read_text().splitlines()
    assert lines[0] == (
        "strategy,median_run_s,median_step_s,score_evals_per_step,"
        "jacobian_passes_per_step,score_evals_per_run,jacobian_passes_per_run"
    )
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["exact"][4] == "1" and rows["exact"][6] == "20"  # one pass per step, T per run
    assert rows["ficd"][4] == "0" and rows["ficd"][6] == "0"
    assert "FICD/EXACT median run-time ratio" in capsys.readouterr().out


def _spy_on_sample(monkeypatch, module):
    """Records the SamplerConfig of every sample() call made through ``module``."""
    seen = []
    real = module.sample

    def spy(config, *args, **kwargs):
        seen.append(config)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(module, "sample", spy)
    return seen


def test_bench_times_the_configured_sampler(tmp_path, monkeypatch):
    model_path = tmp_path / "m.npz"
    make_model_file(model_path)  # T = 20
    # Every sampler.* key must reach both timed runs, as ficd trace runs them.
    common = (
        "--preset", "bench-mlp", "--set", f"model.path={model_path}", "--set", "schedule.T=20",
        "--set", "sampler.n_chains=8",
        "--set", "sampler.discretization=ddim",
        "--set", "sampler.ddim_eta=1.0",
        "--set", "sampler.lam=3.0",
        "--set", "sampler.time_travel.repeats=1",
        "--set", "sampler.rho=matched",
    )
    benched = _spy_on_sample(monkeypatch, ficd.analytics)
    assert run("bench", *common, "--set", "bench.repetitions=1", "--out", str(tmp_path / "b")) == 0
    traced = _spy_on_sample(monkeypatch, ficd.cli)
    assert run("trace", *common, "--out", str(tmp_path / "t")) == 0

    assert len(benched) == 4 and len(traced) == 2  # warm-up plus one timed run per strategy
    exact, ficd_run = benched[0], benched[2]
    assert benched[1] is exact and benched[3] is ficd_run
    for config in (exact, ficd_run):
        assert config.discretization.value == "ddim"
        assert config.ddim_eta == 1.0 and config.lam == 3.0
        assert config.time_travel_repeats == 1
        assert np.ndim(config.rho) == 1 and config.rho.size == 20  # matched: one rho_t per step
    assert (exact.strategy.value, ficd_run.strategy.value) == ("exact", "ficd")
    assert not np.array_equal(exact.rho, ficd_run.rho)
    for timed, traced_config in zip((exact, ficd_run), traced):
        np.testing.assert_array_equal(timed.rho, traced_config.rho)
        assert timed.strategy is traced_config.strategy
        assert timed.time_travel_repeats == traced_config.time_travel_repeats

    rows = {
        line.split(",")[0]: line.split(",")
        for line in (tmp_path / "b" / "timing.csv").read_text().splitlines()[1:]
    }
    # One re-step per t in the middle third [7, 13]: 20 + 7 Jacobian passes.
    assert int(rows["exact"][6]) == 27 > 20
    assert rows["ficd"][6] == "0" and rows["ficd"][5] == "27"


def test_bench_rho_is_not_a_key(tmp_path, capsys):
    model_path = tmp_path / "m.npz"
    make_model_file(model_path)  # a real dump, so only the unknown key can fail the run
    code = run(
        "bench",
        "--preset",
        "bench-mlp",
        "--set",
        f"model.path={model_path}",
        "--set",
        "schedule.T=20",
        "--set",
        "bench.rho=0.1",
        "--out",
        str(tmp_path / "b"),
    )
    assert code == 2
    assert "unknown configuration key 'bench.rho'" in capsys.readouterr().err


def test_bench_missing_model_path(tmp_path):
    code = run(
        "bench",
        "--preset",
        "bench-mlp",
        "--set",
        f"model.path={tmp_path / 'absent.npz'}",
        "--out",
        str(tmp_path / "b"),
    )
    assert code == 2


def test_learned_model_schedule_mismatch_is_a_config_error(tmp_path, capsys):
    model_path = tmp_path / "m.npz"
    make_model_file(model_path)  # T = 20
    argv = ("sample", "--preset", "bench-mlp", "--set", f"model.path={model_path}")
    assert run(*argv, "--T", "7", "--out", str(tmp_path / "s")) == 2
    err = capsys.readouterr().err
    assert str(model_path) in err and "T=20" in err and "T=7" in err
    # The bench-mlp preset's own T = 200 is just as inconsistent.
    assert run(*argv, "--out", str(tmp_path / "p")) == 2
    assert run(*argv, "--T", "20", "--out", str(tmp_path / "ok")) == 0


def test_model_file_that_is_not_a_dump_is_a_config_error(tmp_path, capsys):
    text = tmp_path / "notes.txt"
    text.write_text("not a model\n")
    bare_array = tmp_path / "array.npy"
    np.save(bare_array, np.zeros(3))
    no_weights = tmp_path / "no_weights.npz"
    np.savez(no_weights, betas=linear_schedule(20).betas)
    old_format = tmp_path / "old.npz"  # a dump that keeps its schedule as text, not betas
    make_model_file(old_format)
    with np.load(old_format) as data:
        arrays = {key: data[key] for key in data.files if key != "betas"}
    np.savez(old_format, schedule_text=np.array("T = 20\n"), **arrays)
    for path in (text, bare_array, no_weights, old_format):
        argv = ("sample", "--preset", "bench-mlp", "--T", "20", "--set", f"model.path={path}")
        assert run(*argv, "--out", str(tmp_path / "out")) == 2, path
        err = capsys.readouterr().err
        assert f"model.path {path} is not a ficd model dump" in err, path
        assert "re-run train-score" in err, path


# -- train-score --------------------------------------------------------


def train_args(out, *extra):
    return (
        "train-score",
        "--set",
        "schedule.T=20",
        "--set",
        "train.net.width=8",
        "--set",
        "train.net.layers=2",
        "--set",
        "train.net.embed=4",
        "--set",
        "train.data.count=256",
        "--set",
        "train.batch_size=32",
        "--out",
        str(out),
        *extra,
    )


def test_train_score_writes_model_and_loss_history(tmp_path, capsys):
    assert run(*train_args(tmp_path / "t", "--steps", "40")) == 0
    out = capsys.readouterr().out
    assert "final loss" in out and "score check" in out
    lines = (tmp_path / "t" / "train_loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 41
    assert (tmp_path / "t" / "model.npz").exists()


def test_out_of_range_counts_are_config_errors(tmp_path, capsys):
    """Each count below its floor exits 2 and names its key."""
    model_path = tmp_path / "m.npz"
    make_model_file(model_path)

    def bench(out, repetitions):
        return (
            "bench", "--preset", "bench-mlp", "--set", f"model.path={model_path}",
            "--set", f"bench.repetitions={repetitions}", "--out", str(out),
        )

    cases = [
        ("train.steps", train_args(tmp_path / "s", "--steps", "-1")),
        ("train.batch_size", train_args(tmp_path / "b", "--set", "train.batch_size=0")),
        ("train.data.dim", train_args(tmp_path / "d", "--set", "train.data.dim=0")),
        ("train.data.count", train_args(tmp_path / "c", "--set", "train.data.count=0")),
        ("bench.repetitions", bench(tmp_path / "r", -1)),
        ("bench.repetitions", bench(tmp_path / "z", 0)),
    ]
    for key, argv in cases:
        assert run(*argv) == 2, key
        assert f"configuration error: {key} must be >= " in capsys.readouterr().err, key


def test_nonpositive_learning_rate_is_a_config_error(tmp_path, capsys):
    for lr in ("-0.01", "0"):
        argv = train_args(tmp_path / lr, "--set", f"train.learning_rate={lr}", "--steps", "3")
        assert run(*argv) == 2, lr
        assert "configuration error: train.learning_rate must be > 0" in capsys.readouterr().err
        assert not (tmp_path / lr / "model.npz").exists()


def test_train_score_zero_steps_warns(tmp_path, capsys):
    with pytest.warns(UserWarning, match="untrained"):
        assert run(*train_args(tmp_path / "t0", "--steps", "0")) == 0
    assert "untrained model saved" in capsys.readouterr().out


def test_train_score_missing_dataset_names_path(tmp_path, capsys):
    code = run(
        *train_args(
            tmp_path / "tx",
            "--set",
            "train.data.kind=file",
            "--set",
            f"train.data.path={tmp_path / 'data.csv'}",
        )
    )
    assert code == 2
    assert "data.csv" in capsys.readouterr().err


def test_train_score_rerun_reproduces_loss_history(tmp_path):
    assert run(*train_args(tmp_path / "r1", "--steps", "25")) == 0
    assert run(*train_args(tmp_path / "r2", "--steps", "25")) == 0
    assert (tmp_path / "r1" / "train_loss.csv").read_bytes() == (
        tmp_path / "r2" / "train_loss.csv"
    ).read_bytes()


def test_train_score_respects_model_path_key(tmp_path):
    target = tmp_path / "nested" / "weights.npz"
    assert run(*train_args(tmp_path / "tp", "--steps", "5", "--set", f"model.path={target}")) == 0
    assert target.exists()
