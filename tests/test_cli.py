"""Tests for the command-line front end.

Covers configuration layering (defaults < config file < flags, env-var
seed fallback), documented exit codes, the CSV contract (header, schema,
byte-identical reruns independent of --jobs), and the summary file.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlmc_sdde
from mlmc_sdde import scheme
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
    # argparse rejects the flag (exit 2 by SystemExit), except that it
    # reads "--c" as an abbreviation of "--config", whose file "1" does not
    # exist (exit 2 by ConfigError).
    monkeypatch.chdir(tmp_path)
    try:
        code = main(["--" + key.replace("_", "-"), "1"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


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


def test_target_se_rejected_outside_mlmc(capsys):
    assert _run(["--experiment", "rates-strong", "--target-se", "0.1"]) == 2
    assert "mlmc" in capsys.readouterr().err


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


def test_every_experiment_runs_small(tmp_path):
    shrink = {
        "path": ["--samples", "16"],
        "coupled": ["--samples", "16"],
        "mlmc": ["--samples", "8", "--max-level", "4"],
        "rates-strong": ["--samples", "8", "--max-level", "5"],
        "rates-moment": ["--samples", "8", "--max-level", "5"],
        "rates-variance": ["--samples", "8", "--max-level", "5"],
        "deviation": ["--samples", "8"],
    }
    for experiment in EXPERIMENTS:
        out = tmp_path / f"{experiment}.csv"
        args = (["--experiment", experiment, "--out", str(out)]
                + shrink[experiment])
        assert _run(args) == 0, experiment
        assert out.exists() and (tmp_path / f"{experiment}.csv.summary.txt"
                                 ).exists()
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


def test_defaults_table_covers_all_experiments():
    assert set(DEFAULTS) == set(EXPERIMENTS)
