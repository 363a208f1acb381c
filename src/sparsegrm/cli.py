"""Command-line interface.

Subcommands: simulate | fit | cv-fit | evaluate | align | replicate.  Each
is one _COMMANDS entry: its handler, its flags in config-echo order, and the
flags it cannot run without.  Values resolve with the precedence
command-line flag > config-file entry > built-in default; a default the
library states (FitConfig, SimDesign, the cv constants) is read from it.
Config files hold ``key = value`` lines ('#' starts a comment); keys are
the flag names with dashes replaced by underscores (``lambda`` for
--lambda).  Every output file starts with commented config-echo lines.
A simulated condition is checked by SimDesign, before --out is created.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from contextlib import suppress
from dataclasses import astuple, fields, replace
from functools import partial

import numpy as np

from .align import apply_alignment, best_alignment
from .cv import N_FOLDS, TRAIN_FRACTION, tune_and_fit
from .data import (QMatrix, derive_seeds, load_responses, read_intercepts,
                   read_matrix, save_responses, split_row_indices,
                   write_intercepts, write_matrix)
from .metrics import (LOADING_ZERO_THRESHOLD, RecoveryReport,
                      SelectionReport, score)
from .model import Hyperparameters, ModelState
from .optimizer import FORK_CELLS, FitConfig, fit_multistart
from .simulate import (SimDesign, gen_sigma, gen_true_params, run_study,
                       sample_responses)


# dest: option.  A None default means "unset unless given on the command
# line or in the config file"; least is an integer flag's smallest value.
_Option = namedtuple("_Option", "flag type default help least", defaults=(None,))
_OPTIONS = {
    "responses": _Option("--responses", str, None, "response matrix CSV"),
    "sigma_theta": _Option("--sigma-theta", str, None,
                           "factor covariance CSV (identity when omitted)"),
    "lambda": _Option("--lambda", float, None, "sparsity weight"),
    "threads": _Option("--threads", int, FitConfig.threads,
                       "worker processes per fit (at most the usable CPUs; "
                       f"none for a fit of at most {FORK_CELLS} cells)",
                       least=1),
    "seed": _Option("--seed", int, 0, "master seed", least=0),
    "out": _Option("--out", str, None, "output directory"),
    "n_starts": _Option("--n-starts", int, FitConfig.n_starts,
                        "independent random starts", least=1),
    "max_iters": _Option("--max-iters", int, FitConfig.max_outer_iters,
                         "outer iteration cap", least=1),
    "obj_tol": _Option("--obj-tol", float, FitConfig.obj_tol,
                       "objective-change stopping rule"),
    "train_fraction": _Option("--train-fraction", float, TRAIN_FRACTION,
                              "row fraction used for lambda selection"),
    "folds": _Option("--folds", int, N_FOLDS, "CV fold count", least=2),
    "n": _Option("--n", int, None, "respondents", least=2),
    "j": _Option("--j", int, None, "items", least=1),
    "k": _Option("--k", int, None, "factors", least=1),
    "c": _Option("--c", int, None,
                 f"response categories per item (simulation default {SimDesign.n_categories}; "
                 "inferred from the data when fitting)", least=2),
    "rho": _Option("--rho", float, None, "factor correlation"),
    "reps": _Option("--reps", int, 10, "replication count", least=1),
    "threshold": _Option("--threshold", float, LOADING_ZERO_THRESHOLD,
                         "|loading| cutoff for recovered structure"),
    "est": _Option("--est", str, None, "directory with estimated parameter files"),
    "truth": _Option("--truth", str, None, "directory with true parameter files"),
    "loadings": _Option("--loadings", str, None, "estimated loadings CSV"),
    "ref_loadings": _Option("--ref-loadings", str, None, "reference loadings CSV"),
    "theta": _Option("--theta", str, None, "estimated factor scores CSV"),
    "intercepts": _Option("--intercepts", str, None, "estimated intercepts CSV"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegrm",
        description="Sparse joint modal estimation for graded response models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="key = value settings file")
        for key in command.options:
            opt = _OPTIONS[key]
            p.add_argument(opt.flag, dest=key, type=opt.type, help=opt.help)
    return parser


def _read_config(path: str) -> dict:
    values = {}
    with open(path, "r") as fh:
        for ln, line in enumerate(fh):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln + 1} is not 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if not value:
                raise ValueError(f"{path}: {key} has no value")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags, config file, and defaults, and check every value."""
    config = _read_config(args.config) if args.config else {}
    command = args.command
    spec = _COMMANDS[command]
    unknown = set(config) - set(spec.options)
    if unknown:
        raise ValueError(f"config keys not used by {command}: {sorted(unknown)}")
    settings = {"command": command}
    for key in spec.options:
        opt = _OPTIONS[key]
        value = getattr(args, key)
        if value is None and key in config:
            try:
                value = opt.type(config[key])
            except ValueError:
                raise ValueError(f"{args.config}: {key} = {config[key]} is not a "
                                 f"valid {opt.type.__name__}") from None
        if value is None:
            value = opt.default
        if value is None and key in spec.required:
            raise ValueError(f"{command}: {opt.flag} is required")
        if value is not None and opt.least is not None and value < opt.least:
            raise ValueError(f"{command}: {opt.flag} must be at least "
                             f"{opt.least}, got {value}")
        settings[key] = value
    # checked here, as replicate draws its split only after --out exists
    fraction = settings.get("train_fraction")
    if fraction is not None and not 0.0 < fraction < 1.0:
        raise ValueError(f"{command}: --train-fraction must lie in (0, 1), "
                         f"got {fraction}")
    return settings


def _missing_dirs(path: str) -> list:
    """path and each of its parents that does not exist, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _output(settings: dict):
    """Create --out; return its file-path joiner and the config echo."""
    os.makedirs(settings["out"], exist_ok=True)
    echo = [f"sparsegrm {settings['command']}"] + [
        f"{key} = {value}" for key, value in settings.items()
        if key != "command" and value is not None]
    return partial(os.path.join, settings["out"]), echo


def _lam_key(settings: dict) -> str:
    """The fit's weight is the given --lambda, or else the CV-selected one."""
    return "lambda" if settings.get("lambda") is not None else "lambda_hat"


def _write_pairs(path: str, echo: list, pairs) -> None:
    """Write the config echo, then one 'name = value' line per pair."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in echo)
        fh.writelines(f"{name} = {value}\n" for name, value in pairs)


def _write_table(path: str, echo: list, columns, rows) -> None:
    """Write the config echo, a '# columns:' line, and comma-separated rows.

    A float is written at .17g, so it reads back exactly; anything else
    through str.
    """
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in echo)
        fh.write("# columns: " + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float)
                              else str(v) for v in row) + "\n")


# metric columns of metrics.txt, metrics_row.csv and replications.csv
_METRIC_NAMES = [f.name for report in (SelectionReport, RecoveryReport)
                 for f in fields(report)]


def _sim_design(settings: dict, seed: int) -> SimDesign:
    return SimDesign(
        n_respondents=settings["n"], n_items=settings["j"],
        n_factors=settings["k"], rho=settings["rho"],
        n_categories=settings["c"] if settings["c"] is not None else SimDesign.n_categories,
        seed=seed,
    )


def _fit_config(settings: dict) -> FitConfig:
    return FitConfig(
        max_outer_iters=settings["max_iters"],
        obj_tol=settings["obj_tol"],
        threads=settings["threads"],
        seed=settings["seed"],
        n_starts=settings["n_starts"],
    )


def _load_fit_inputs(settings: dict):
    data = load_responses(settings["responses"], categories=settings["c"])
    k = settings["k"]
    if settings["sigma_theta"]:
        sigma = read_matrix(settings["sigma_theta"])
        if k is not None and k != sigma.shape[0]:
            raise ValueError(
                f"{settings['command']}: --k {k} does not match --sigma-theta "
                f"{settings['sigma_theta']}, which is "
                f"{sigma.shape[0]} x {sigma.shape[1]}")
        return data, sigma
    if k is None:
        raise ValueError("provide --k or --sigma-theta to set the factor count")
    return data, np.eye(k)


def _write_fit(settings: dict, path, echo: list, result) -> None:
    """Write the fitted parameters and summary.txt through _output's path and echo."""
    trace = result.objective_trace
    write_matrix(path("theta_est.csv"), result.state.theta, echo)
    write_matrix(path("loadings_est.csv"), result.state.loadings, echo)
    write_intercepts(path("intercepts_est.csv"), result.state.intercepts, echo)
    _write_pairs(path("summary.txt"), echo, [
        (_lam_key(settings), format(result.hyper.lam, ".17g")),
        ("converged", result.converged),
        ("n_iters", result.n_iters),
        ("elapsed_seconds", format(result.elapsed_seconds, ".3f")),
        ("objective_final", format(trace[-1], ".17g")),
        ("objective_trace", ",".join(format(v, ".17g") for v in trace)),
    ])


def cmd_simulate(settings: dict) -> None:
    seeds = derive_seeds(settings["seed"], 2)
    design = _sim_design(settings, seeds[0])
    truth, q_star = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=seeds[1])
    path, echo = _output(settings)
    save_responses(path("responses.csv"), data, comments=echo)
    write_matrix(path("theta_true.csv"), truth.theta, echo)
    write_matrix(path("loadings_true.csv"), truth.loadings, echo)
    write_intercepts(path("intercepts_true.csv"), truth.intercepts, echo)
    write_matrix(path("q_true.csv"), q_star.entries, echo)
    write_matrix(path("sigma_theta.csv"), gen_sigma(design.n_factors, design.rho), echo)


def cmd_fit(settings: dict) -> None:
    data, sigma = _load_fit_inputs(settings)
    hyper = Hyperparameters(sigma_theta=sigma, lam=settings["lambda"])
    cfg = _fit_config(settings)
    path, echo = _output(settings)
    result = fit_multistart(data, hyper, cfg)
    _write_fit(settings, path, echo, result)


def cmd_cvfit(settings: dict) -> None:
    data, sigma = _load_fit_inputs(settings)
    hyper = Hyperparameters(sigma_theta=sigma, lam=0.0)
    split_seed, fit_seed = derive_seeds(settings["seed"], 2)
    cfg = replace(_fit_config(settings), seed=fit_seed)
    rows = split_row_indices(data.n_respondents, settings["train_fraction"], split_seed)
    path, echo = _output(settings)
    result, _, table = tune_and_fit(data, hyper, cfg, n_folds=settings["folds"], rows=rows)
    fold_cols = [f"err_fold{m}" for m in range(table[0].fold_errors.size)]
    _write_table(
        path("cv_table.csv"), echo,
        ["stage", "lambda", *fold_cols, "total_error", "selected"],
        [[e.stage, e.lam, *e.fold_errors, e.total_error, int(e.selected)]
         for e in table])
    write_matrix(path("train_rows.csv"), rows[0][None, :], echo)
    write_matrix(path("test_rows.csv"), rows[1][None, :], echo)
    _write_fit(settings, path, echo, result)


def cmd_evaluate(settings: dict) -> None:
    est, true = (partial(os.path.join, settings[key]) for key in ("est", "truth"))
    a_hat = read_matrix(est("loadings_est.csv"))
    d_hat = read_intercepts(est("intercepts_est.csv"))
    a_star = read_matrix(true("loadings_true.csv"))
    d_star = read_intercepts(true("intercepts_true.csv"))
    q_star = QMatrix(entries=read_matrix(true("q_true.csv")))

    k = a_hat.shape[1]
    estimate = ModelState(theta=np.zeros((0, k)), loadings=a_hat, intercepts=d_hat)
    truth = ModelState(theta=np.zeros((0, k)), loadings=a_star, intercepts=d_star)
    selection, recovery = score(estimate, truth, q_star, settings["threshold"])
    values = [*astuple(selection), *astuple(recovery)]
    path, echo = _output(settings)
    _write_pairs(path("metrics.txt"), echo, zip(_METRIC_NAMES, values))
    _write_table(path("metrics_row.csv"), echo, _METRIC_NAMES, [values])


def cmd_align(settings: dict) -> None:
    a_hat = read_matrix(settings["loadings"])
    a_ref = read_matrix(settings["ref_loadings"])
    alignment = best_alignment(a_hat, a_ref)
    theta = (read_matrix(settings["theta"])
             if settings.get("theta") else np.zeros((0, a_hat.shape[1])))
    intercepts = (read_intercepts(settings["intercepts"])
                  if settings.get("intercepts")
                  else [np.zeros(1) for _ in range(a_hat.shape[0])])
    state = ModelState(theta=theta, loadings=a_hat, intercepts=intercepts)
    aligned = apply_alignment(state, alignment)
    path, echo = _output(settings)
    write_matrix(path("loadings_aligned.csv"), aligned.loadings, echo)
    if settings.get("theta"):
        write_matrix(path("theta_aligned.csv"), aligned.theta, echo)
    if settings.get("intercepts"):
        write_intercepts(path("intercepts_aligned.csv"), aligned.intercepts, echo)
    _write_pairs(path("alignment.txt"), echo, [
        ("permutation", ",".join(map(str, alignment.permutation))),
        ("signs", ",".join(format(s, ".0f") for s in alignment.signs)),
    ])


def cmd_replicate(settings: dict) -> None:
    cfg = _fit_config(settings)
    rep_seeds = derive_seeds(settings["seed"], settings["reps"])
    designs = [_sim_design(settings, seed) for seed in rep_seeds]
    path, echo = _output(settings)
    rows = []
    study = run_study(designs, cfg, settings["train_fraction"], settings["folds"],
                      settings.get("lambda"))
    for r, (selection, recovery, result, seconds) in enumerate(study):
        print(f"replicate: rep {r + 1}/{settings['reps']} seed {rep_seeds[r]} "
              f"{_lam_key(settings)} {result.hyper.lam:.6g} n_iters {result.n_iters} "
              f"seconds {seconds:.2f}", file=sys.stderr, flush=True)
        rows.append([
            r, rep_seeds[r], *astuple(selection), *astuple(recovery),
            result.objective_trace[-1], result.n_iters,
            int(result.converged), result.elapsed_seconds,
        ])
    values = np.array([row[2:] for row in rows], dtype=float)
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1) if len(rows) > 1 else np.zeros(values.shape[1])
    _write_table(
        path("replications.csv"), echo,
        ["rep", "seed", *_METRIC_NAMES, "objective", "n_iters", "converged",
         "elapsed_seconds"],
        rows + [["mean", "", *means], ["sd", "", *sds]])


# command: its handler, its flags in config-echo order, and the flags it
# cannot run without
_Command = namedtuple("_Command", "handler options required")
_COMMANDS = {
    "simulate": _Command(cmd_simulate, ["n", "j", "k", "c", "rho", "seed", "out"],
                         ["n", "j", "k", "rho", "out"]),
    "fit": _Command(cmd_fit, ["responses", "sigma_theta", "lambda", "k", "c", "threads",
                              "seed", "n_starts", "max_iters", "obj_tol", "out"],
                    ["responses", "lambda", "out"]),
    "cv-fit": _Command(cmd_cvfit, ["responses", "sigma_theta", "k", "c", "threads",
                                   "seed", "n_starts", "max_iters", "obj_tol",
                                   "train_fraction", "folds", "out"],
                       ["responses", "out"]),
    "evaluate": _Command(cmd_evaluate, ["est", "truth", "threshold", "out"],
                         ["est", "truth", "out"]),
    "align": _Command(cmd_align,
                      ["loadings", "ref_loadings", "theta", "intercepts", "out"],
                      ["loadings", "ref_loadings", "out"]),
    "replicate": _Command(cmd_replicate, ["n", "j", "k", "c", "rho", "reps", "lambda",
                                          "threads", "seed", "n_starts", "max_iters",
                                          "obj_tol", "train_fraction", "folds", "out"],
                          ["n", "j", "k", "rho", "out"]),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    made = []  # the directories of --out that this run creates, deepest first
    try:
        settings = _resolve(args)
        made = _missing_dirs(settings["out"])
        _COMMANDS[args.command].handler(settings)
    except (ValueError, OSError) as exc:
        # a failed run removes the directories it made while they are empty
        with suppress(OSError):
            for path in made:
                os.rmdir(path)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
