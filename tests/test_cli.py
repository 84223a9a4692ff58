"""Tests for the command-line front end.

Covers configuration layering (defaults < config file < flags, env-var
seed fallback), documented exit codes, the CSV contract (header, schema,
byte-identical reruns independent of --jobs), and the summary file.
"""

import csv
import dataclasses
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlmc_sdde
from mlmc_sdde import cli, scheme
from mlmc_sdde.cli import (
    _SETTINGS,
    CSV_COLUMNS,
    DEFAULTS,
    EXPERIMENTS,
    ConfigError,
    build_config,
    main,
)
from mlmc_sdde.scheme import NonConvergence


def _run(args):
    return main(list(args))


# ---------------------------------------------------------------------------
# Help and defaults
# ---------------------------------------------------------------------------

def test_help_exits_zero_and_lists_every_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--experiment", "--problem", "--theta", "--delta", "--M",
                 "--base-level", "--max-level", "--eps", "--samples",
                 "--target-se", "--seed", "--out", "--jobs", "--config"):
        assert flag in out
    for experiment in EXPERIMENTS:
        assert experiment in out
    assert "default" in out


# The settings, in the order of the RunConfig fields that declare them.
_DECLARED = [f.name for f in dataclasses.fields(cli.RunConfig)
             if f.name != "problem_overrides"]


def test_settings_follow_the_run_config_fields():
    assert [key for key in _SETTINGS
            if key not in cli._COEFFICIENT_KEYS] == _DECLARED
    for name, defaults in DEFAULTS.items():
        assert set(defaults) == {*_DECLARED, "problem_overrides"}
        assert defaults["experiment"] == name
    given = dict(DEFAULTS["path"], seed=0, jobs=1, out="x.csv")
    cli.RunConfig(**given)
    del given["out"]
    with pytest.raises(TypeError):  # no field has a dataclass default
        cli.RunConfig(**given)


def test_help_and_config_echo_list_settings_in_field_order(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    assert listed == ["--" + key.replace("_", "-") for key in _DECLARED
                      if _SETTINGS[key][1] is not None] + ["--config"]
    echo = build_config(["--experiment", "path"]).echo_lines()
    assert [line.split(" = ")[0] for line in echo] == _DECLARED


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize is needed only by analysis.envelope_fit; importing it
    # at start-up costs about a third of a second and 20 MiB.
    src = str(Path(mlmc_sdde.__file__).resolve().parents[1])
    probe = ("import sys, mlmc_sdde.cli; "
             "print('scipy.optimize' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "False"


def test_per_experiment_defaults_match_headline_runs():
    cfg = build_config(["--experiment", "rates-moment"])
    assert cfg.problem == "linear_scalar"
    assert cfg.problem_overrides == {"a1": -0.25, "a2": 0.125,
                                     "b1": 1.0, "b2": 0.25}
    assert cfg.eps0 == 1e-4
    assert cfg.eps == (0.0625, 0.08838834764831845, 0.125,
                       0.17677669529663687, 0.25)
    assert (cfg.base_level, cfg.max_level) == (3, 7)
    assert cfg.samples == 10_000 and cfg.theta == 0.0

    cfg = build_config(["--experiment", "rates-variance"])
    assert cfg.eps0 == 1e-5 and cfg.samples == 20_000
    assert cfg.payoff == "tanh"

    cfg = build_config(["--experiment", "rates-strong"])
    assert cfg.eps == 1e-4 and cfg.samples == 10_000
    assert (cfg.base_level, cfg.max_level) == (3, 7)

    cfg = build_config(["--experiment", "mlmc"])
    assert cfg.target_se == 0.002 and cfg.samples is None


def test_default_coefficients_dropped_for_other_problem():
    cfg = build_config(["--experiment", "rates-moment",
                        "--problem", "cubic_onesided", "--delta", "0.25"])
    assert cfg.problem_overrides == {}
    assert cfg.delta == 0.25


# ---------------------------------------------------------------------------
# Configuration layering
# ---------------------------------------------------------------------------

def test_config_file_layering_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "experiment = path\n"
        "samples = 50\n"
        "seed = 9\n"
        "a1 = -0.5\n",
        encoding="utf-8",
    )
    cfg = build_config(["--config", str(cfg_file), "--samples", "80"])
    assert cfg.experiment == "path"
    assert cfg.samples == 80  # flag beats file
    assert cfg.seed == 9  # file beats default
    assert cfg.problem_overrides == {"a1": -0.5}


# A value for every setting with a flag, valid for the default experiment
# (mlmc) unless the value is the experiment itself.
_FLAG_SAMPLES = {
    "experiment": "path", "problem": "additive_noise", "theta": "0.5",
    "delta": "0.25", "M": "4", "base_level": "4", "max_level": "6",
    "eps": "0.05", "samples": "64", "target_se": "0.01", "seed": "9",
    "out": "x.csv", "jobs": "3",
}
_FLAGGED = [key for key, (_, flag) in _SETTINGS.items() if flag is not None]


@pytest.mark.parametrize("key", _FLAGGED)
def test_flag_and_config_key_resolve_alike(key, tmp_path):
    value = _FLAG_SAMPLES[key]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_flag = build_config(["--" + key.replace("_", "-"), value])
    from_file = build_config(["--config", str(cfg_file)])
    assert from_flag == from_file
    assert getattr(from_flag, key) == _SETTINGS[key][0](value)


@pytest.mark.parametrize(
    "key", [key for key in _SETTINGS if key not in _FLAGGED])
def test_config_only_key_given_as_flag_exits_two(key, capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["--" + key.replace("_", "-"), "1"])
    assert excinfo.value.code == 2
    assert "error: unrecognized arguments" in capsys.readouterr().err


def test_abbreviated_flags_are_rejected(capsys, tmp_path, monkeypatch):
    # With prefix matching, "--c 0.3" read a config file named "0.3" and
    # "--sam 64" ran with 64 samples.
    monkeypatch.chdir(tmp_path)
    for argv in (["--c", "0.3"], ["--sam", "64"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(argv)}" in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus_key = 3\n", encoding="utf-8")
    assert _run(["--config", str(cfg_file)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_line_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("theta 0.5\n", encoding="utf-8")
    assert _run(["--config", str(cfg_file)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("MLMC_SDDE_SEED", "77")
    assert build_config(["--experiment", "path"]).seed == 77
    assert build_config(["--experiment", "path", "--seed", "5"]).seed == 5
    monkeypatch.setenv("MLMC_SDDE_SEED", "not-a-number")
    with pytest.raises(ConfigError, match="MLMC_SDDE_SEED"):
        build_config(["--experiment", "path"])


def test_samples_flag_displaces_mlmc_target_se_default():
    cfg = build_config(["--experiment", "mlmc", "--samples", "64"])
    assert cfg.samples == 64 and cfg.target_se is None


def test_eps_list_rejected_outside_sweep_experiments(capsys):
    assert _run(["--experiment", "path", "--eps", "0.1,0.2,0.4"]) == 2
    assert "single eps" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["rates-moment", "rates-variance"])
def test_zero_noise_scale_in_a_sweep_exits_two_without_output(
        experiment, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _run(["--experiment", experiment, "--eps", "0,0.125,0.25",
                 "--samples", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {experiment}: eps_sweep needs noise scales > 0, got 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, eps, error", [
    ("deviation", "0.002,0.005,nan,0.02,0.05",
     "deviation: eps_sweep needs noise scales >= 0, got nan"),
    ("rates-moment", "0.1,0.5,1.5",
     "rates-moment: eps_sweep needs noise scales <= 1, got 1.5"),
    ("rates-variance", "0.1,0.5,1.5",
     "rates-variance: eps_sweep needs noise scales <= 1, got 1.5"),
])
def test_noise_scale_out_of_range_in_a_sweep_exits_two_without_output(
        experiment, eps, error, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _run(["--experiment", experiment, "--eps", eps,
                 "--samples", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_eps_sweep_of_one_distinct_scale_exits_two_without_output(tmp_path,
                                                                 capsys):
    # It used to exit 0 with lstsq's minimum-norm answer as eps_slope.
    out = tmp_path / "sweep.csv"
    assert _run(["--experiment", "rates-moment", "--eps", "0.1,0.1,0.1",
                 "--samples", "8", "--jobs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: rates-moment: eps_sweep needs >= 3 values, >= 2 of them "
        "distinct, got 0.1, 0.1, 0.1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment, stat", [
    ("rates-moment", "coupled_sup_sq_moment"),
    ("rates-variance", "var_delta_coupled"),
    ("rates-strong", "strong_error_sq"),
])
def test_zero_statistic_exits_two_naming_what_failed(experiment, stat,
                                                     tmp_path, capsys):
    out = tmp_path / "zero.csv"
    assert _run(["--experiment", experiment, "--problem", "zero_dynamics",
                 "--samples", "8", "--max-level", "5", "--jobs", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {experiment}: {stat} is 0 at level 3; the h fit takes "
        "its log\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, error", [
    (["--eps", "0.1,0.2,0.3"],
     "deviation: eps_sweep needs >= 3 positive values spanning at least "
     "one decade, got 0.1, 0.2, 0.3"),
    (["--problem", "zero_dynamics"],
     "deviation: deviation_sup_sq is 0 at eps 0.002; the eps fit takes its "
     "log"),
    (["--eps", "1e-170,0.01,0.011,0.012"],
     "deviation: deviation_sup_sq is 0 at eps 1e-170; the eps fit takes "
     "its log"),
], ids=["narrow-sweep", "zero-dynamics", "zero-deviation"])
def test_deviation_refusals_name_the_experiment_and_the_sweep(
        args, error, tmp_path, capsys):
    out = tmp_path / "deviation.csv"
    assert _run(["--experiment", "deviation", "--samples", "8", "--jobs",
                 "1", "--out", str(out)] + args) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_seed_outside_the_word_exits_two_naming_it(tmp_path, capsys):
    out = tmp_path / "path.csv"
    assert _run(["--experiment", "path", "--samples", "8", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: master_seed must fit in an unsigned 64-bit word, got -1\n")
    assert list(tmp_path.iterdir()) == []


def test_noise_free_level_sweep_refused_by_rates_variance_only(tmp_path,
                                                               capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("eps0 = 0\n", encoding="utf-8")
    common = ["--config", str(cfg_file), "--samples", "8",
              "--max-level", "5", "--jobs", "1"]
    out = tmp_path / "variance.csv"
    assert _run(common + ["--experiment", "rates-variance",
                          "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: rates-variance: the level sweep needs a noise scale > 0, "
        "got 0\n")
    assert list(tmp_path.iterdir()) == [cfg_file]
    # The moment sweep's skeleton differences are positive at eps0 = 0.
    out = tmp_path / "moment.csv"
    assert _run(common + ["--experiment", "rates-moment",
                          "--out", str(out)]) == 0
    assert out.exists()


def test_target_se_rejected_outside_mlmc(capsys):
    assert _run(["--experiment", "rates-strong", "--target-se", "0.1"]) == 2
    assert "mlmc" in capsys.readouterr().err


def test_eps0_rejected_outside_the_level_sweeps(tmp_path, capsys,
                                                monkeypatch):
    # eps0 is the level-sweep noise of rates-moment and rates-variance; a
    # path run once took it in place of --eps and wrote it in every row.
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("eps0 = 0.3\n", encoding="utf-8")
    assert _run(["--config", str(cfg_file), "--experiment", "path",
                 "--eps", "0.1", "--samples", "100"]) == 2
    assert ("error: eps0 applies to rates-moment, rates-variance only"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [cfg_file]


@pytest.mark.parametrize("experiment", ["path", "coupled", "deviation"])
def test_max_level_rejected_by_single_level_experiments(experiment, capsys,
                                                        tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["--experiment", experiment, "--max-level", "9"]) == 2
    assert ("error: max-level applies to mlmc, rates-strong, rates-moment, "
            "rates-variance only" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_unknown_problem_exits_two(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = _run(["--experiment", "path", "--problem", "nope",
                 "--out", str(out)])
    assert code == 2
    assert "nope" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Exit codes from runs
# ---------------------------------------------------------------------------

def test_admissibility_violation_exits_two_naming_inequality(tmp_path,
                                                             capsys):
    out = tmp_path / "x.csv"
    code = _run(["--experiment", "path", "--theta", "1.0",
                 "--base-level", "2", "--samples", "16", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "theta*h" in err and "1/max(alpha_bar, 6*beta)" in err
    assert not out.exists()  # nothing partial on failure


def test_output_io_error_exits_four(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = _run(["--experiment", "path", "--samples", "16",
                 "--out", str(missing)])
    assert code == 4
    assert "cannot write output" in capsys.readouterr().err


def test_solver_nonconvergence_maps_to_exit_three(tmp_path, monkeypatch,
                                                  capsys):
    def explode(*args, **kwargs):
        raise NonConvergence("stage stalled", iterations=7, residual=1.0)

    monkeypatch.setattr("mlmc_sdde.cli.mlmc_estimate", explode)
    out = tmp_path / "x.csv"
    code = _run(["--experiment", "mlmc", "--samples", "8",
                 "--max-level", "4", "--out", str(out)])
    assert code == 3
    assert "converge" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_two_with_one_error_line(tmp_path, monkeypatch,
                                                    capsys):
    # A run too large for the memory stops at an allocation; the stand-in
    # runner raises numpy's message without allocating anything.
    def exhaust(cfg, problem):
        raise MemoryError("Unable to allocate 10.0 GiB for an array with "
                          "shape (134217728, 10, 1) and data type float64")

    monkeypatch.setitem(cli._RUNNERS, "rates-strong", exhaust)
    out = tmp_path / "x.csv"
    code = _run(["--experiment", "rates-strong", "--samples", "10",
                 "--max-level", "30", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 10.0 GiB for an array with "
        "shape (134217728, 10, 1) and data type float64\n")
    assert not out.exists()


def test_misaligned_level_grid_exits_two_naming_level_and_M(tmp_path,
                                                            capsys):
    out = tmp_path / "x.csv"
    code = _run(["--experiment", "mlmc", "--M", "3", "--base-level", "2",
                 "--max-level", "4", "--samples", "10", "--out", str(out)])
    assert code == 2
    assert ("level 2 (M = 3): delay / step_h = 2.25 is not a positive "
            "integer") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("budget", [["--samples", "500"],
                                    ["--target-se", "1e-3"]])
def test_blown_up_samples_exit_two_naming_level_and_paths(tmp_path, capsys,
                                                          budget):
    # Untamed explicit steps of the cubic drift overflow on every path.
    out = tmp_path / "x.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = _run(["--experiment", "mlmc", "--problem", "cubic_onesided",
                     "--jobs", "1", "--out", str(out)] + budget)
    assert code == 2
    err = capsys.readouterr().err
    assert "level 3, paths [0, " in err and "non-finite samples" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, eps", [("rates-strong", "0.0001"),
                                             ("rates-moment", "0.0001"),
                                             ("rates-variance", "1e-05"),
                                             ("deviation", "0.002"),
                                             ("path", "0.1"),
                                             ("coupled", "0.1")])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in threads
def test_blown_up_analysis_cells_exit_two_naming_experiment_level_and_paths(
        tmp_path, capsys, experiment, eps):
    # The same overflow inside the sweeps of the analysis experiments and
    # the chunks of the path and coupled experiments.
    out = tmp_path / "x.csv"
    code = _run(["--experiment", experiment, "--problem", "cubic_onesided",
                 "--base-level", "3", "--samples", "16", "--jobs", "2",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert (f"{experiment} level 3 (eps {eps}), paths [0, 16): 16 "
            "non-finite samples") in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, where", [
    ("path", "path level 3 (eps 0.1), paths [0, 16)"),
    ("coupled", "coupled level 3 (eps 0.1), paths [0, 16)"),
    ("rates-moment", "rates-moment level 3 (eps 0.0001), paths [0, 16)"),
    ("rates-variance", "rates-variance level 3 (eps 1e-05), paths [0, 16)"),
    ("deviation", "deviation level 3 (eps 0.002), paths [0, 16)"),
    ("deviation", "deviation level 3 skeleton"),
    ("rates-strong",
     "rates-strong reference level 10 (eps 0.0001), paths [0, 16)"),
    ("rates-strong", "rates-strong level 4 (eps 0.0001), paths [0, 16)"),
])
def test_solver_failures_exit_three_naming_experiment_level_and_paths(
        tmp_path, monkeypatch, capsys, experiment, where):
    # Every solve of a path batch stalls; the one-path skeleton of the
    # deviation experiment stalls too only in the case that names it, and
    # the rates-strong case naming level 4 stalls on its grid (h = 1/16)
    # only.
    original = scheme.implicit_step_solve

    def stall(base, delayed, drift, theta, h, **kwargs):
        if (len(base) == 1 and "skeleton" not in where
                or where.startswith("rates-strong level 4") and h != 1 / 16):
            return original(base, delayed, drift, theta, h, **kwargs)
        raise NonConvergence("stage stalled", iterations=7, residual=1.0)

    monkeypatch.setattr(scheme, "implicit_step_solve", stall)
    out = tmp_path / "x.csv"
    code = _run(["--experiment", experiment, "--theta", "0.5",
                 "--base-level", "3", "--samples", "16", "--jobs", "2",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{where}: " in err
    # The failing path range is named once.
    assert err.count("paths [") == where.count("paths [")
    assert not out.exists()


def test_atomic_write_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "x.csv"
    # Another run's file at the old fixed temporary name stays untouched.
    other = tmp_path / "x.csv.tmp"
    other.write_text("another run", encoding="utf-8")
    assert _run(["--experiment", "path", "--samples", "16",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "x.csv", "x.csv.summary.txt", "x.csv.tmp"]
    assert other.read_text(encoding="utf-8") == "another run"
    other.unlink()
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask
    # A directory in the way makes the final rename fail.
    blocked = tmp_path / "blocked.csv"
    blocked.mkdir()
    assert _run(["--experiment", "path", "--samples", "16",
                 "--out", str(blocked)]) == 4
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_never_calls_umask(tmp_path, monkeypatch):
    # Reading the umask means setting it; another thread's file created
    # in between would ignore it.
    calls = []
    monkeypatch.setattr(os, "umask", lambda mask: calls.append(mask) or 0)
    out = tmp_path / "x.txt"
    cli._write_atomic(str(out), "text\n")
    assert calls == []
    assert out.read_text(encoding="utf-8") == "text\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


# ---------------------------------------------------------------------------
# Output contract
# ---------------------------------------------------------------------------

def test_csv_schema_and_summary(tmp_path, capsys):
    out = tmp_path / "dev.csv"
    code = _run(["--experiment", "deviation", "--samples", "60",
                 "--base-level", "4", "--out", str(out), "--seed", "3"])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 5
    for row in rows:
        assert row["experiment"] == "deviation"
        assert row["delta"] == ""  # untamed run leaves delta blank
        float(row["value"]), float(row["eps"])  # parse cleanly
        assert int(row["samples"]) == 60 and int(row["seed"]) == 3
    summary = (tmp_path / "dev.csv.summary.txt").read_text(encoding="utf-8")
    assert "[config]" in summary and "[result]" in summary
    assert "eps_slope = " in summary and "wall_seconds" in summary


def test_mlmc_zero_dynamics_summary_value_and_zero_se(tmp_path):
    out = tmp_path / "zd.csv"
    code = _run(["--experiment", "mlmc", "--problem", "zero_dynamics",
                 "--out", str(out)])
    assert code == 0
    summary = (tmp_path / "zd.csv.summary.txt").read_text(encoding="utf-8")
    assert "value = 0.7615941559557649" in summary  # tanh(1)
    assert "std_error = 0.0" in summary
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert {row["statistic"] for row in rows} == {
        "mean_delta", "var_delta", "mean_fine", "cost_units"}
    assert sorted({int(row["level"]) for row in rows}) == [3, 4, 5, 6, 7]


def test_rerun_and_jobs_change_leave_csv_byte_identical(tmp_path):
    base = ["--experiment", "rates-moment", "--samples", "40",
            "--max-level", "5", "--seed", "11"]
    outputs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "4"), ("c.csv", "1")):
        out = tmp_path / name
        assert _run(base + ["--out", str(out), "--jobs", jobs]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_tamed_run_records_delta_column(tmp_path):
    out = tmp_path / "tamed.csv"
    code = _run(["--experiment", "coupled", "--problem", "cubic_onesided",
                 "--delta", "0.25", "--samples", "50", "--base-level", "4",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert all(row["delta"] == "0.25" for row in rows)
    assert {row["statistic"] for row in rows} == {
        "coupled_sup_sq_moment", "coupled_terminal_sq_moment",
        "mean_delta", "var_delta"}


def test_tamed_mlmc_runs_from_base_level_one(tmp_path, capsys):
    # The base plan at level 1 tames with the step of level 0 and the
    # level-2 pair's coarse member too, so every plan of the run exists.
    cfg_file = tmp_path / "t.conf"
    cfg_file.write_text("tau=0.5\n", encoding="utf-8")
    out = tmp_path / "tamed.csv"
    code = _run(["--config", str(cfg_file), "--experiment", "mlmc",
                 "--problem", "cubic_onesided", "--theta", "0.5",
                 "--delta", "0.5", "--base-level", "1", "--max-level", "4",
                 "--samples", "200", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert sorted({int(row["level"]) for row in rows}) == [1, 2, 3, 4]


@pytest.mark.parametrize("problem, theta", [("cubic_onesided", "0.5"),
                                            ("linear_scalar", "0.0")])
def test_tamed_strong_sweep_runs_and_records_delta(tmp_path, problem, theta):
    # Implicit steps of the one-sided drift are admissible only tamed, so
    # the sweep must tame with --delta, and record it, on every problem.
    out = tmp_path / "strong.csv"
    code = _run(["--experiment", "rates-strong", "--problem", problem,
                 "--theta", theta, "--delta", "0.5", "--samples", "200",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert len(rows) == 5
    assert all(row["delta"] == "0.5" for row in rows)


_SMALL_RUNS = {
    "path": ["--samples", "16"],
    "coupled": ["--samples", "16"],
    "mlmc": ["--samples", "8", "--max-level", "4"],
    "rates-strong": ["--samples", "8", "--max-level", "5"],
    "rates-moment": ["--samples", "8", "--max-level", "5"],
    "rates-variance": ["--samples", "8", "--max-level", "5"],
    "deviation": ["--samples", "8"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_largest_seed_runs_every_experiment(tmp_path, experiment):
    # The sweeps key their cells by lane offsets added to the seed; those
    # wrap modulo 2**64 instead of leaving the stream's seed range.
    out = tmp_path / "x.csv"
    code = _run(["--experiment", experiment, "--seed", str(2**64 - 1),
                 "--out", str(out)] + _SMALL_RUNS[experiment])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert {row["seed"] for row in rows} == {str(2**64 - 1)}


def test_every_experiment_runs_small(tmp_path):
    for experiment in EXPERIMENTS:
        out = tmp_path / f"{experiment}.csv"
        args = (["--experiment", experiment, "--out", str(out)]
                + _SMALL_RUNS[experiment])
        assert _run(args) == 0, experiment
        assert out.exists() and (tmp_path / f"{experiment}.csv.summary.txt"
                                 ).exists()
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


def test_defaults_table_covers_all_experiments():
    assert set(DEFAULTS) == set(EXPERIMENTS)
