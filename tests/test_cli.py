"""End-to-end command behavior through the argparse entry point.

Commands run in-process via main(argv); outputs land in tmp_path so the
byte-identity checks can diff real files.
"""

import hashlib
import re

import numpy as np
import pytest

import ficd.analytics
import ficd.cli
from call_counts import recorded_calls
from cli_runs import read_csv_rows, sample_under_blas_threads, timing_free_sha256
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
    samples = read_csv_rows(tmp_path / "run" / "samples.csv")
    assert samples[0] == ["chain_id", "dim_0", "dim_1"] and len(samples) == 65
    trace = read_csv_rows(tmp_path / "run" / "trace.csv")
    assert trace[0] == TRACE_COLUMNS and len(trace) == 31


def test_sample_rerun_is_byte_identical_outside_timings(tmp_path):
    assert run(*sample_args(tmp_path / "a", "--strategy", "exact")) == 0
    assert run(*sample_args(tmp_path / "b", "--strategy", "exact")) == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == (
        tmp_path / "b" / "samples.csv"
    ).read_bytes()
    ta, tb = (np.loadtxt(tmp_path / run / "trace.csv", delimiter=",", skiprows=1) for run in "ab")
    for col, field in enumerate(TRACE_COLUMNS):
        if field != "step_wall_time_s":
            np.testing.assert_array_equal(ta[:, col], tb[:, col], err_msg=field)


def test_chain_failure_names_its_first_step_and_chains(tmp_path, capsys):
    """An exact run at rho = 40 overflows: exit 3, naming the first failing step and its chains."""
    argv = (
        "sample", "--preset", "gmm-tilt", "--T", "14", "--strategy", "exact", "--rho", "40",
        "--set", "sampler.n_chains=64", "--out", str(tmp_path / "run"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*argv) == 3
    err = capsys.readouterr().err
    assert "chain failure: 64 chains went non-finite, the first at step t = 6;" in err
    # Eight chains go non-finite at t = 6; the other 56 follow later.
    assert "(and 54 more); flagged at t = 6: 10, 14, 17, 22, 24, 37, 41, 58\n" in err


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


@pytest.mark.parametrize("strategy", ["ficd", "exact"])
def test_sample_does_not_depend_on_blas_threads(tmp_path, strategy):
    """The wide-ddim shape on three blocks under one and two OpenBLAS
    threads: samples.csv and the trace without its timing column keep
    every byte."""
    one, two = sample_under_blas_threads(tmp_path, strategy)
    assert (one / "samples.csv").read_bytes() == (two / "samples.csv").read_bytes()
    assert timing_free_sha256(one / "trace.csv") == timing_free_sha256(two / "trace.csv")


# samples.csv sha256 of every preset and strategy at T = 40 with 64 chains.
# A refactor leaves them unchanged; a change that moves the samples on
# purpose updates them and says why.
PINNED_SAMPLES_SHA256 = {
    ("gaussian-point", "exact"): "e93332cc52cd4c96bdb79c4c9296eb780fa67ff44427f0173ffcbd46ba33d9f7",
    ("gaussian-point", "ficd"): "7270934268a2bfa3c92d88e367df8394b929ebc7847bf08d403857562b6f06e1",
    ("gaussian-point", "mpgd"): "5e672ee7bf489673bd578a80f9855ef7ef4fa28813114181311512e69e81975c",
    ("gaussian-point", "unit"): "1770d36ec1860850de1ca5f1fc59bd3b23df0cd696fa17a8ec5c873a80d5ccea",
    ("gaussian-point", "uncond"): "c7f226feb4db6ccf255d33ebc5d73f38248fdf8af6d4f511865571baa714b4cf",
    ("gmm-tilt", "exact"): "c6ae2ea92a5aeaa895ff46624281c24cb221d5c67445767188d73f683369d295",
    ("gmm-tilt", "ficd"): "f941e9a40729accd285055296c187d373feab07534f6fb041b2f62e7a1075592",
    ("gmm-tilt", "mpgd"): "b344bf4048f8b586b8269c62616456b3dd572f1cdb086c7f4c0fb5e18325143b",
    ("gmm-tilt", "unit"): "9a1de09de51d3d1106c51a75fa8feb1074299cf071751bef3612510f88281ef0",
    ("gmm-tilt", "uncond"): "6ab2420b2079041ae38f40c94558fedaa314b5a2c94e2f84924f4c943ee3f8fd",
    ("linear-inverse", "exact"): "4e7c9f7de9e99538a9c8c6bb7a47e578abeee999d1f6f03ee6a018ed640e8f63",
    ("linear-inverse", "ficd"): "e4d62164b125935015e9fe2a7205fc9a337bb2470c28a478900fd71e9f9c82f1",
    ("linear-inverse", "mpgd"): "abcfd95ffac648083555945fdd3777973169205111363a2911b050462208653c",
    ("linear-inverse", "unit"): "9d889bdfd1e9d828532d7e85d803a8ec0fd3602d05decf84ed50c7353ebccd0d",
    ("linear-inverse", "uncond"): "c7f226feb4db6ccf255d33ebc5d73f38248fdf8af6d4f511865571baa714b4cf",
    ("gmm-style-analog", "exact"): "0849be3fd53902d5c397e1a407d531826137180a98feca8ecfe9e513ab9a4b3a",
    ("gmm-style-analog", "ficd"): "3c9c339f1b53543ca9b3657686f232d2118c13d841f50b75bdaa867839aa42bb",
    ("gmm-style-analog", "mpgd"): "89f4dfe93c67a885294cd04f752648083e42afb1dca844b25df14a912a696410",
    ("gmm-style-analog", "unit"): "590b6f652570fd8fa110d4533790c64caf2639c2fb7feda56e060715a5da4686",
    ("gmm-style-analog", "uncond"): "f3f247fb02a297402c22ce431cb1725972a665a6142b2f0825c25356126536db",
}


# sha256 of the same runs' trace.csv with the step_wall_time_s column
# removed.
PINNED_TRACE_SHA256 = {
    ("gaussian-point", "exact"): "2e348c6a82f0313f695cbf2bd80b0719646266ab566dd3d6fbbbca4bc1ff7470",
    ("gaussian-point", "ficd"): "6554f115891f4dd325dfed04554e8519304644bafa136bad11ac003107888cb2",
    ("gaussian-point", "mpgd"): "bb2d9f56a8691a91b28ec566a918030590d754a0ebe1e61ef703129d9bc67bf0",
    ("gaussian-point", "unit"): "0e9292e6e4241c2bcdaacb27554de0f8e1065cdc88a53406e3888c141e4817b0",
    ("gaussian-point", "uncond"): "148b4ad538c3b6f70f0b229a40ea5b7bb0ab6daaf78560dcf5f697e60fee4bc7",
    ("gmm-tilt", "exact"): "d0189c6d0316a1a67f71021ac892574a74f1deb2571b04f2ca44983788ec28be",
    ("gmm-tilt", "ficd"): "f901f75bdddf412093b90b4d8cfbf65ced664109a81e2a9a6ed741cfd970460c",
    ("gmm-tilt", "mpgd"): "9082c857a95a3c3f0473136c795511df8e783cc81b6302725e58dd706934f60e",
    ("gmm-tilt", "unit"): "7ab126d4f7b3d00bb0642f0a1a08cf14dd0b4708218fa3ac91acb86c0d3e9b68",
    ("gmm-tilt", "uncond"): "7c332175d034394a35d949bb8339b6164a68ab8a3fe6b12e1796205a443bf849",
    ("linear-inverse", "exact"): "76c99038f08e8e799f71771f091fdfb2ae9ee83059645771a00b9237c86b686f",
    ("linear-inverse", "ficd"): "0df84416b68d957c6d616e62b9c19511243c61a665c86b8b53331a99809e90e2",
    ("linear-inverse", "mpgd"): "0178e31c0db0016da6ca0a4bb293ca626b33f75319b788c9078eab0875f223de",
    ("linear-inverse", "unit"): "2a12df82ad4979b0d3b55e49ab2f41d765b11975447d64f29bdbd09509c4898d",
    ("linear-inverse", "uncond"): "148b4ad538c3b6f70f0b229a40ea5b7bb0ab6daaf78560dcf5f697e60fee4bc7",
    ("gmm-style-analog", "exact"): "9750c9443ecbf2c274efbb0a15a08bbba2a018a31a09b8ce1d784c785cd631b4",
    ("gmm-style-analog", "ficd"): "ed8978ffdbbc66c7264de8210b3b270c13eb5fd6806b20ff356d2f6681749d92",
    ("gmm-style-analog", "mpgd"): "b2184f76dffe0f196d36f35007d30c11a76f56c35d29577a2eaeb5adcd12d4ca",
    ("gmm-style-analog", "unit"): "1a51b0ccee501fc11e18f1b7513d3c808b3bdceaee374dbb11bd0fe58eed4ae2",
    ("gmm-style-analog", "uncond"): "148b4ad538c3b6f70f0b229a40ea5b7bb0ab6daaf78560dcf5f697e60fee4bc7",
}


@pytest.mark.parametrize("preset,strategy", sorted(PINNED_SAMPLES_SHA256))
def test_sample_output_is_pinned(tmp_path, preset, strategy):
    out = tmp_path / "run"
    argv = ["sample", "--preset", preset, "--T", "40", "--strategy", strategy,
            "--set", "sampler.n_chains=64", "--out", str(out)]
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
    err = capsys.readouterr().err
    assert "chain failure" in err
    assert re.search(r"the first at step t = (\d+);.*; flagged at t = \1: \d+", err), err
    # A non-finite vector or matrix entry names its key. A nan target used to
    # switch guidance off silently; the others failed late, as chain failures.
    for preset, item in (
        ("gaussian-point", "energy.target=nan,0"),
        ("gaussian-point", "model.gmm.means=nan,0"),
        ("gmm-tilt", "model.gmm.weights=nan,nan"),
        ("linear-inverse", "energy.A=inf,0;0,1"),
    ):
        argv = ("sample", "--preset", preset, "--T", "20", "--set", item)
        assert run(*argv, "--out", str(tmp_path / "nonfinite")) == 2, item
        key = item.partition("=")[0]
        message = f"configuration error: every {key} value must be finite"
        assert message in capsys.readouterr().err, item


@pytest.mark.parametrize(
    "item",
    [
        "sampler.time_travel.t_lo=5",
        "sampler.time_travel.t_hi=9",
        "sampler.final_noise=true",
        "verify.suites=tweedie",
        "sampler.trace_fisher=true",
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
    for name in ("trace_exact.csv", "trace_ficd.csv"):
        assert read_csv_rows(tmp_path / "tr" / name)[0] == TRACE_COLUMNS
    compare = read_csv_rows(tmp_path / "tr" / "compare.csv")
    assert compare[0] == ["t", "grad_norm_exact", "grad_norm_ficd"]
    assert compare[1][0] == "30" and len(compare) == 31
    out = capsys.readouterr().out
    assert "exact tercile means" in out and "ficd tercile means" in out


# sha256 of the gmm-tilt trace at T = 40 with 64 chains: the preset's two
# time-travel repeats and a matched rho per strategy; the trace CSVs with
# their step_wall_time_s column removed.
PINNED_TRACE_RUN_SHA256 = {
    "compare.csv": "cf8610ea7e0040269d4c71fca7a0b2988ed7c37f190cabdf076b21a1b2096404",
    "trace_exact.csv": "d0189c6d0316a1a67f71021ac892574a74f1deb2571b04f2ca44983788ec28be",
    "trace_ficd.csv": "f901f75bdddf412093b90b4d8cfbf65ced664109a81e2a9a6ed741cfd970460c",
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
    header, *lines = read_csv_rows(tmp_path / "b" / "timing.csv")
    assert header == ["strategy", "median_run_s", "median_step_s"]
    rows = {line[0]: line[1:] for line in lines}
    assert sorted(rows) == ["exact", "ficd"]
    for timings in rows.values():
        assert all(float(value) > 0.0 for value in timings)
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

    # Untimed runs of the timed configs, counted: one re-step per t in the
    # middle third [7, 13] makes 20 + 7 steps, each with one score call and,
    # for exact alone, one score_vjp call.
    args = ficd.cli.build_parser().parse_args(["bench", *common])
    model, energy, condition = ficd.cli._build_run(ficd.cli.load_config(args))
    for config in (exact, ficd_run):
        calls, expected, trace = recorded_calls(config, model, energy, condition)
        assert trace.t.size == 27
        assert calls == expected, config.strategy


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
    lines = read_csv_rows(tmp_path / "t" / "train_loss.csv")
    assert lines[0] == ["step", "loss"]
    assert len(lines) == 41 and [int(line[0]) for line in lines[1:]] == list(range(1, 41))
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
