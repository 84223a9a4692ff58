"""Command-line front end: pick a problem and an experiment, get CSV.

Every experiment writes one tidy CSV table (schema shared with the
analysis module) plus a human-readable ``<out>.summary.txt`` with the
resolved configuration, headline results, and wall time.  Runs are
deterministic: the same configuration and seed produce byte-identical
CSV regardless of ``--jobs``.  Only the rates-moment, rates-variance and
deviation sweeps use threads, over cells with per-cell substreams; path,
coupled, mlmc and rates-strong run on one thread.  Path batches run in
chunks: MLMC levels fold chunks of 8192 paths, or of 4096 where the delay
windows would hold more than 2**20 states (from level 9 at tau = 1/4),
rates-strong sums chunks of 2048 paths, and every other batch (the path
and coupled runs are one cell each, run by the sweeps' cell runner) runs
``max(1, 2**24 // (N * d))`` paths of N fine steps and d noise
components per chunk, which bounds the states a full-path chunk stores;
the noise is read one 256 KiB draw block at a time.

Configuration is layered: per-experiment defaults (``DEFAULTS``), then a
``--config`` file of flat ``key=value`` lines, then command-line flags.
Every setting is one ``RunConfig`` field, made by ``_setting``: its
common default, its value parser and, if it has a flag, the flag's
``add_argument`` keywords.  The flags and their --help order, the
config-file keys, the defaults and the ``[config]`` echo of the summary
all follow from the fields, so a new setting is one new field.
The config file additionally accepts problem coefficient overrides
(``a1``, ``a2``, ``b1``, ``b2``, ``g0``, ``c``, ``sigma``, ``x0``,
``tau``, ``horizon``), ``payoff``, and ``eps0`` (the fixed noise scale of
the level sweep in rates-moment / rates-variance), which have no flags.
An experiment is declared by its ``DEFAULTS`` entry and its runner in
``_RUNNERS``: a default ``eps`` list makes it a noise sweep, and a
default ``max_level`` makes it run ``base_level..max_level``.  A
``max_level``, ``target_se`` or ``eps0`` given for an experiment whose
default of it is ``None`` is refused, since that experiment does not
read it.

Exit codes: 0 success; 2 configuration or admissibility error (the
violated constraint is printed), or a run that needs more memory than it
can get (numpy's allocation message is printed); 3 implicit-solver
non-convergence; 4 output I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import (
    _COLUMNS as CSV_COLUMNS,
    _cell_samples,
    _pair_sq,
    _record,
    _sup_sq,
    coupled_moment_rates,
    coupled_variance_rates,
    small_noise_deviation,
    strong_error_rate,
)
from .coupling import LevelPair, coupled_payoff_delta
from .mlmc import mlmc_estimate
from .model import SddeProblem, builtin_payoff, builtin_problem
from .scheme import AdmissibilityError, NonConvergence, level_step

__all__ = ["RunConfig", "main", "run"]

SEED_ENV_VAR = "MLMC_SDDE_SEED"

_COEFFICIENT_KEYS = ("a1", "a2", "b1", "b2", "g0", "c", "sigma", "x0",
                     "tau", "horizon")

# Noise-scale window whose upper half keeps the eps-driven term of each
# coupled bound dominant at level 7 for the strong-noise linear problem.
_EPS_WINDOW = (0.0625, 0.08838834764831845, 0.125,
               0.17677669529663687, 0.25)

# Linear problem rebalanced so diffusion dominates drift; used by the
# rates-moment / rates-variance defaults so one run covers both sweeps.
_STRONG_NOISE = {"a1": -0.25, "a2": 0.125, "b1": 1.0, "b2": 0.25}


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


def _parse_eps(text: str) -> float | tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"eps must be a comma-separated float list, got {text!r}"
        ) from None
    return values[0] if len(values) == 1 else values


def _setting(default, parse, **flag):
    """A ``RunConfig`` field declaring one setting: its common default,
    the parser of its value and, for a setting with a flag, the flag's
    ``add_argument`` keywords; one without keywords is a config-file key
    only."""
    return field(metadata=dict(default=default, parse=parse,
                               flag=flag or None))


@dataclass
class RunConfig:
    """Fully resolved run description, after all layering.

    Every field but ``problem_overrides`` declares one setting, in --help
    order, which the ``[config]`` echo follows too.  No field has a
    dataclass default: a config is built from an experiment's
    ``DEFAULTS`` entry.
    """

    experiment: str = _setting("mlmc", str, help="what to run (default: mlmc)")
    problem: str = _setting("linear_scalar", str, metavar="NAME",
                            help="builtin problem name (default: per "
                            "experiment)")
    problem_overrides: dict
    payoff: str = _setting("identity", str)
    theta: float = _setting(0.0, float, metavar="X", help="implicitness "
                            "parameter in [0, 1] (default: 0.0)")
    delta: float | None = _setting(None, float, metavar="X", help="drift-"
                                   "taming exponent in (0, 0.5]; omit to "
                                   "run untamed (default: untamed)")
    M: int = _setting(2, int, metavar="N", help="level refinement factor "
                      "(default: 2)")
    base_level: int = _setting(5, int, metavar="L", help="coarsest level; "
                               "the only level for path/coupled/deviation "
                               "(default: per experiment)")
    max_level: int | None = _setting(None, int, metavar="L", help="finest "
                                     "level for mlmc and rates sweeps "
                                     "(default: per experiment)")
    eps: float | tuple[float, ...] | None = _setting(
        None, _parse_eps, metavar="X[,X...]", help="noise scale; a comma "
        "list is the sweep for deviation/rates-moment/rates-variance "
        "(default: per experiment)")
    eps0: float | None = _setting(None, float)
    samples: int | None = _setting(1000, int, metavar="N", help="paths per "
                                   "level/cell; for mlmc, explicit samples "
                                   "per level (default: per experiment)")
    target_se: float | None = _setting(None, float, metavar="X", help="mlmc "
                                       "only: auto-allocate samples for "
                                       "this standard error (default: "
                                       "0.002 for mlmc)")
    seed: int = _setting(None, int, metavar="N", help="master seed "
                         f"(default: ${SEED_ENV_VAR} or 0)")
    out: str = _setting(None, str, metavar="PATH", help="CSV output path "
                        "(default: mlmc-sdde-<experiment>.csv)")
    jobs: int = _setting(None, int, metavar="N", help="worker threads for "
                         "the rates-moment, rates-variance and deviation "
                         "sweeps; rates-strong, path, coupled and mlmc run "
                         "on one thread; never changes results (default: "
                         "hardware parallelism)")

    def echo_lines(self) -> list[str]:
        """``key = value`` per field, in field order, and one line per
        problem override in place of ``problem_overrides``."""
        def show(v):
            if isinstance(v, tuple):
                return ",".join(map(show, v))
            if isinstance(v, float):
                return repr(v)
            return "none" if v is None else str(v)

        items = []
        for f in fields(self):
            value = getattr(self, f.name)
            items += (sorted(value.items()) if isinstance(value, dict)
                      else [(f.name, value)])
        return [f"{key} = {show(value)}" for key, value in items]


_DECLARED = [f for f in fields(RunConfig) if f.metadata]

# Every setting, in --help order: the parser of its value and the flag's
# add_argument keywords, or None for a config-file key only (the problem
# coefficients among them).
_SETTINGS: dict[str, tuple] = {
    **{f.name: (f.metadata["parse"], f.metadata["flag"]) for f in _DECLARED},
    **{key: (float, None) for key in _COEFFICIENT_KEYS},
}

_COMMON_DEFAULTS = dict({f.name: f.metadata["default"] for f in _DECLARED},
                        problem_overrides={})

# The experiments, in --help order, each with where its defaults depart
# from the common ones.
DEFAULTS: dict[str, dict] = {
    name: dict(_COMMON_DEFAULTS, experiment=name, **own)
    for name, own in {
        "path": {},
        "coupled": dict(payoff="tanh"),
        "mlmc": dict(payoff="tanh", base_level=3, max_level=7, samples=None,
                     target_se=0.002),
        "rates-strong": dict(base_level=3, max_level=7, eps=1e-4,
                             samples=10_000),
        "rates-moment": dict(base_level=3, max_level=7, eps=_EPS_WINDOW,
                             eps0=1e-4, samples=10_000,
                             problem_overrides=dict(_STRONG_NOISE)),
        "rates-variance": dict(payoff="tanh", base_level=3, max_level=7,
                               eps=_EPS_WINDOW, eps0=1e-5, samples=20_000,
                               problem_overrides=dict(_STRONG_NOISE)),
        "deviation": dict(eps=(0.002, 0.005, 0.01, 0.02, 0.05)),
    }.items()
}

EXPERIMENTS = tuple(DEFAULTS)


# ---------------------------------------------------------------------------
# Configuration layering
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Read flat ``key=value`` lines; '#' lines and blanks are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _SETTINGS:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(known keys: {', '.join(sorted(_SETTINGS))})")
        try:
            values[key] = _SETTINGS[key][0](text)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(
                f"{path}:{lineno}: bad value {text!r} for {key}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    lines = ["per-experiment defaults (flags and config values override "
             "these; max-level, target-se and eps0 are refused where none "
             "is listed):"]
    for name, d in DEFAULTS.items():
        eps = d["eps"]
        if isinstance(eps, tuple):
            eps_text = ",".join(f"{x:g}" for x in eps)
        else:
            eps_text = "problem default" if eps is None else f"{eps:g}"
        over = "".join(f" {k}={v:g}" for k, v in
                       sorted(d["problem_overrides"].items()))
        n_text = (f"samples={d['samples']}" if d["samples"] is not None
                  else f"target-se={d['target_se']:g}")
        levels = (f"level {d['base_level']}" if d["max_level"] is None
                  else f"levels {d['base_level']}..{d['max_level']}")
        lines.append(f"  {name}: problem={d['problem']}{over} "
                     f"payoff={d['payoff']} theta={d['theta']:g} {levels} "
                     f"M={d['M']} eps={eps_text}"
                     + (f" eps0={d['eps0']:g}" if d["eps0"] else "")
                     + f" {n_text}")
    file_only = [key for key, (_, flag) in _SETTINGS.items()
                 if flag is None and key not in _COEFFICIENT_KEYS]
    lines += [
        "",
        "config file: flat key=value lines; flags override file values.",
        f"config-only keys: {', '.join(file_only)}, and problem "
        "coefficients " + ", ".join(_COEFFICIENT_KEYS) + ".",
        f"environment: {SEED_ENV_VAR} supplies the seed when neither flag "
        "nor config does.",
        "exit codes: 0 ok, 2 config/admissibility, 3 solver "
        "non-convergence, 4 output I/O.",
    ]
    parser = argparse.ArgumentParser(
        prog="mlmc-sdde",
        description="Simulation and convergence-rate experiments for "
                    "theta-EM / multilevel Monte Carlo on delay equations "
                    "with scaled noise.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    for key, (parse, flag) in _SETTINGS.items():
        if flag is not None:
            if key == "experiment":
                flag = dict(flag, choices=EXPERIMENTS)
            parser.add_argument("--" + key.replace("_", "-"), type=parse,
                                **flag)
    parser.add_argument(
        "--config", metavar="PATH",
        help="key=value config file, overridden by flags (default: none)")
    return parser


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Parse flags + optional config file into a resolved RunConfig."""
    flag_values = {key: value for key, value
                   in vars(_build_parser().parse_args(argv)).items()
                   if value is not None}
    config = flag_values.pop("config", None)
    file_values = parse_config_file(config) if config else {}

    experiment = flag_values.get("experiment", file_values.get(
        "experiment", _COMMON_DEFAULTS["experiment"]))
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r} "
                          f"(choose from {', '.join(EXPERIMENTS)})")
    defaults = DEFAULTS[experiment]

    merged = dict(defaults)
    merged.update({k: v for k, v in file_values.items()
                   if k not in _COEFFICIENT_KEYS})
    merged.update(flag_values)

    # Default coefficient overrides belong to the default problem; drop
    # them when another problem is chosen, then apply user coefficients.
    overrides = dict(defaults["problem_overrides"])
    if merged["problem"] != defaults["problem"]:
        overrides = {}
    overrides.update({k: v for k, v in file_values.items()
                      if k in _COEFFICIENT_KEYS})
    merged["problem_overrides"] = overrides

    # A setting that an experiment does not read (its default is None) is
    # refused, not silently applied.  samples and target-se are
    # alternatives where a target-se default is set (mlmc): a
    # user-provided one displaces the other's default rather than
    # colliding with it.
    explicit = set(file_values) | set(flag_values)
    for key in ("target_se", "max_level", "eps0"):
        readers = [n for n, d in DEFAULTS.items() if d[key] is not None]
        if key in explicit and experiment not in readers:
            raise ConfigError(f"{key.replace('_', '-')} applies to "
                              f"{', '.join(readers)} only")
    if defaults["target_se"] is not None:
        if "samples" in explicit and "target_se" not in explicit:
            merged["target_se"] = None
        if "target_se" in explicit and "samples" not in explicit:
            merged["samples"] = None

    if merged["seed"] is None:
        env_seed = os.environ.get(SEED_ENV_VAR, "0")
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None
    if merged["out"] is None:
        merged["out"] = f"mlmc-sdde-{experiment}.csv"
    if merged["jobs"] is None:
        merged["jobs"] = os.cpu_count() or 1

    cfg = RunConfig(**merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    defaults = DEFAULTS[cfg.experiment]
    if cfg.samples is not None and cfg.samples < 2:
        raise ConfigError(f"samples must be >= 2, got {cfg.samples}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {cfg.jobs}")
    if isinstance(defaults["eps"], tuple):
        if not isinstance(cfg.eps, tuple):
            raise ConfigError(
                f"{cfg.experiment} needs an eps sweep (comma list of >= 3 "
                f"noise scales), got {cfg.eps!r}")
    elif isinstance(cfg.eps, tuple):
        raise ConfigError(
            f"{cfg.experiment} takes a single eps value, got a list")
    if defaults["target_se"] is not None:
        if (cfg.samples is None) == (cfg.target_se is None):
            raise ConfigError(
                f"{cfg.experiment} needs exactly one of samples and "
                "target-se")
    if cfg.max_level is not None and cfg.max_level < cfg.base_level:
        raise ConfigError(
            f"max_level {cfg.max_level} < base_level {cfg.base_level}")


# ---------------------------------------------------------------------------
# Experiment runners: each returns (records, summary result lines)
# ---------------------------------------------------------------------------

def _build_problem(cfg: RunConfig) -> SddeProblem:
    try:
        problem = builtin_problem(cfg.problem, **cfg.problem_overrides)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    except TypeError as exc:
        raise ConfigError(
            f"problem {cfg.problem!r} rejects a coefficient override: {exc}"
        ) from None
    scale = cfg.eps0 if cfg.eps0 is not None else (
        cfg.eps if isinstance(cfg.eps, float) else None)
    if scale is not None:
        problem = problem.with_noise_scale(scale)
    return problem


def _build_payoff(cfg: RunConfig):
    try:
        return builtin_payoff(cfg.payoff)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None


def _run_path(cfg: RunConfig, problem: SddeProblem):
    plan = LevelPair.for_problem(problem, cfg.base_level, M=cfg.M,
                                 theta=cfg.theta, delta=cfg.delta,
                                 coupled=False)
    terminal, sup_sq = _cell_samples(plan, cfg.seed, cfg.samples,
                                     cfg.experiment, _sup_sq)
    stats = (
        ("terminal_mean", float(terminal[0].mean())),
        ("terminal_variance", float(np.var(terminal[0], ddof=1))),
        ("terminal_second_moment", float(np.sum(terminal**2, axis=0).mean())),
        ("sup_second_moment", float(sup_sq.mean())),
    )
    return _cell_output(cfg, plan, stats)


def _run_coupled(cfg: RunConfig, problem: SddeProblem):
    psi = _build_payoff(cfg)
    plan = LevelPair.for_problem(problem, cfg.base_level, M=cfg.M,
                                 theta=cfg.theta, delta=cfg.delta)
    sq, deltas = _cell_samples(
        plan, cfg.seed, cfg.samples, cfg.experiment,
        lambda pair: (*_pair_sq(pair), coupled_payoff_delta(pair, psi)[0]))
    per_node = sq.mean(axis=-1)
    stats = (
        ("coupled_sup_sq_moment", float(per_node.max())),
        ("coupled_terminal_sq_moment", float(per_node[-1])),
        ("mean_delta", float(deltas.mean())),
        ("var_delta", float(np.var(deltas, ddof=1))),
    )
    records, summary = _cell_output(cfg, plan, stats)
    return records, [f"payoff = {psi.name}"] + summary


def _cell_output(cfg: RunConfig, plan: LevelPair, stats):
    """Records and summary lines of a one-cell run by ``plan``."""
    records = [
        _record(cfg.experiment, plan.level, plan.grid_fine.step_h,
                plan.problem.noise_scale, cfg.theta, cfg.delta, name, value,
                cfg.samples, cfg.seed)
        for name, value in stats
    ]
    return records, [f"{name} = {value!r}" for name, value in stats]


def _run_mlmc(cfg: RunConfig, problem: SddeProblem):
    psi = _build_payoff(cfg)
    n_levels = cfg.max_level - cfg.base_level + 1
    samples_per_level = ([cfg.samples] * n_levels
                         if cfg.samples is not None else None)
    estimate = mlmc_estimate(
        problem, psi, cfg.base_level, cfg.max_level, M=cfg.M,
        theta=cfg.theta, delta=cfg.delta,
        samples_per_level=samples_per_level, target_se=cfg.target_se,
        seed=cfg.seed,
    )
    records = []
    for stats in estimate.levels:
        h = level_step(problem, stats.level, cfg.M)
        for name in ("mean_delta", "var_delta", "mean_fine", "cost_units"):
            records.append(_record(
                cfg.experiment, stats.level, h, problem.noise_scale, cfg.theta,
                cfg.delta, name, float(getattr(stats, name)),
                stats.samples, cfg.seed))
    summary = [
        f"payoff = {psi.name}",
        f"value = {estimate.value!r}",
        f"std_error = {estimate.std_error!r}",
        f"total_cost = {estimate.total_cost!r}",
        "samples_per_level = "
        + ",".join(str(s.samples) for s in estimate.levels),
    ]
    summary += [f"warning: {w}" for w in estimate.warnings]
    return records, summary


def _fit_lines(tag, fit):
    return [
        f"{tag}_slope = {fit.slope!r}",
        f"{tag}_intercept = {fit.intercept!r}",
        f"{tag}_r_squared = {fit.r_squared!r}",
    ]


def _run_rates_strong(cfg: RunConfig, problem: SddeProblem):
    psi = _build_payoff(cfg)
    result = strong_error_rate(
        problem, psi, theta=cfg.theta, delta=cfg.delta,
        level_sweep=range(cfg.base_level, cfg.max_level + 1),
        n_paths=cfg.samples, seed=cfg.seed, M=cfg.M,
    )
    summary = [f"payoff = {psi.name}", f"ref_level = {result.ref_level}"]
    summary += _fit_lines("h", result.fit)
    return list(result.records), summary


def _run_rates_moment(cfg: RunConfig, problem: SddeProblem):
    result = coupled_moment_rates(
        problem, theta=cfg.theta, delta=cfg.delta,
        level_sweep=range(cfg.base_level, cfg.max_level + 1),
        eps_sweep=cfg.eps, n_paths=cfg.samples, seed=cfg.seed, M=cfg.M,
        jobs=cfg.jobs,
    )
    summary = _fit_lines("h", result.h_slope)
    summary += _fit_lines("eps", result.eps_slope)
    summary += _fit_lines("h_terminal", result.h_slope_terminal)
    summary += _fit_lines("eps_terminal", result.eps_slope_terminal)
    return list(result.records), summary


def _run_rates_variance(cfg: RunConfig, problem: SddeProblem):
    psi = _build_payoff(cfg)
    result = coupled_variance_rates(
        problem, psi, theta=cfg.theta, delta=cfg.delta,
        level_sweep=range(cfg.base_level, cfg.max_level + 1),
        eps_sweep=cfg.eps, n_paths=cfg.samples, seed=cfg.seed, M=cfg.M,
        jobs=cfg.jobs,
    )
    ratios = [c / u for c, u in
              zip(result.h_coupled + result.eps_coupled,
                  result.h_uncoupled + result.eps_uncoupled)]
    summary = [f"payoff = {psi.name}"]
    summary += _fit_lines("h", result.h_slope)
    summary += _fit_lines("eps", result.eps_slope)
    summary.append(f"max_coupled_over_uncoupled = {max(ratios)!r}")
    return list(result.records), summary


def _run_deviation(cfg: RunConfig, problem: SddeProblem):
    result = small_noise_deviation(
        problem, level=cfg.base_level, theta=cfg.theta, delta=cfg.delta,
        eps_sweep=cfg.eps, n_paths=cfg.samples, seed=cfg.seed, M=cfg.M,
        jobs=cfg.jobs,
    )
    summary = _fit_lines("eps", result.fit)
    if result.envelope is not None:
        env = result.envelope
        summary += [
            "envelope_coefficients = "
            + ",".join(repr(c) for c in env.coefficients),
            f"envelope_scale = {env.scale!r}",
            f"envelope_r_squared = {env.r_squared!r}",
        ]
    return list(result.records), summary


_RUNNERS = {
    "path": _run_path,
    "coupled": _run_coupled,
    "mlmc": _run_mlmc,
    "rates-strong": _run_rates_strong,
    "rates-moment": _run_rates_moment,
    "rates-variance": _run_rates_variance,
    "deviation": _run_deviation,
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    # numpy's float64 is a float too: every float prints as its shortest
    # round-trip repr.
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec[k]) for k in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


_WRITES = itertools.count()


def _write_atomic(path: str, text: str) -> None:
    # A temporary file in the target directory, named for this process and
    # this call, so concurrent runs or threads writing one output never
    # share it; created with mode 0666, which the kernel masks with the
    # umask, as a plain open() would.
    tmp = f"{os.path.abspath(path)}.{os.getpid()}.{next(_WRITES)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the exit code."""
    started = time.perf_counter()
    problem = _build_problem(cfg)
    records, result_lines = _RUNNERS[cfg.experiment](cfg, problem)
    wall = time.perf_counter() - started

    summary_lines = ["# mlmc-sdde run summary", "", "[config]"]
    summary_lines += cfg.echo_lines()
    summary_lines += ["", "[result]"]
    summary_lines += result_lines
    summary_lines += [f"rows = {len(records)}",
                      f"wall_seconds = {wall:.3f}", ""]

    _write_atomic(cfg.out, records_to_csv(records))
    _write_atomic(cfg.out + ".summary.txt", "\n".join(summary_lines))
    print(f"wrote {cfg.out} ({len(records)} rows) and "
          f"{cfg.out}.summary.txt in {wall:.1f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (ConfigError, AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: solver failed to converge: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
