"""Command-line interface.

Subcommands: simulate | fit | cv-fit | evaluate | align | replicate.
Values resolve with the precedence command-line flag > config-file entry
> built-in default.  Config files hold ``key = value`` lines ('#' starts
a comment); keys are the flag names with dashes replaced by underscores.
Every output file starts with commented config-echo lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .align import apply_alignment, best_alignment
from .cv import tune_and_fit
from .data import (QMatrix, derive_seeds, load_responses, read_intercepts,
                   read_matrix, save_responses, split_row_indices,
                   write_intercepts, write_matrix)
from .metrics import (LOADING_ZERO_THRESHOLD, q_from_loadings,
                      recovery_metrics, selection_metrics)
from .model import Hyperparameters, ModelState
from .optimizer import FitConfig, fit_multistart
from .simulate import (SimDesign, gen_sigma, gen_true_params, run_replication,
                       sample_responses)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# dest: (flag, type, default, help); None default means "must be given
# on the command line or in the config file if the command needs it"
_OPTIONS = {
    "responses": ("--responses", str, None, "response matrix CSV"),
    "sigma_theta": ("--sigma-theta", str, None,
                    "factor covariance CSV (identity when omitted)"),
    "lam": ("--lambda", float, None, "sparsity weight"),
    "threads": ("--threads", int, 1, "update blocks per phase"),
    "seed": ("--seed", int, 0, "master seed"),
    "out": ("--out", str, None, "output directory"),
    "n_starts": ("--n-starts", int, 1, "independent random starts"),
    "max_iters": ("--max-iters", int, 1000, "outer iteration cap"),
    "obj_tol": ("--obj-tol", float, 5.0, "objective-change stopping rule"),
    "train_fraction": ("--train-fraction", float, 0.5,
                       "row fraction used for lambda selection"),
    "folds": ("--folds", int, 5, "CV fold count"),
    "n": ("--n", int, None, "respondents"),
    "j": ("--j", int, None, "items"),
    "k": ("--k", int, None, "factors"),
    "c": ("--c", int, None,
          "response categories per item (simulation default 4; inferred "
          "from the data when fitting)"),
    "rho": ("--rho", float, None, "factor correlation"),
    "reps": ("--reps", int, 10, "replication count"),
    "warm_start": ("--no-warm-start", bool, True,
                   "disable warm starts between CV candidates"),
    "threshold": ("--threshold", float, LOADING_ZERO_THRESHOLD,
                  "|loading| cutoff for recovered structure"),
    "est": ("--est", str, None, "directory with estimated parameter files"),
    "truth": ("--truth", str, None, "directory with true parameter files"),
    "loadings": ("--loadings", str, None, "estimated loadings CSV"),
    "ref_loadings": ("--ref-loadings", str, None, "reference loadings CSV"),
    "theta": ("--theta", str, None, "estimated factor scores CSV"),
    "intercepts": ("--intercepts", str, None, "estimated intercepts CSV"),
}

_COMMAND_OPTS = {
    "simulate": ["n", "j", "k", "c", "rho", "seed", "out"],
    "fit": ["responses", "sigma_theta", "lam", "k", "c", "threads", "seed",
            "n_starts", "max_iters", "obj_tol", "out"],
    "cv-fit": ["responses", "sigma_theta", "k", "c", "threads", "seed",
               "n_starts", "max_iters", "obj_tol", "train_fraction", "folds",
               "warm_start", "out"],
    "evaluate": ["est", "truth", "threshold", "out"],
    "align": ["loadings", "ref_loadings", "theta", "intercepts", "out"],
    "replicate": ["n", "j", "k", "c", "rho", "reps", "lam", "threads", "seed",
                  "n_starts", "max_iters", "obj_tol", "train_fraction",
                  "folds", "warm_start", "out"],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegrm",
        description="Sparse joint modal estimation for graded response models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_OPTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", type=str, default=None,
                       help="key = value settings file")
        for key in keys:
            flag, typ, _, help_text = _OPTIONS[key]
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_const",
                               const=False, default=None, help=help_text)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None,
                               help=help_text)
    return parser


def _read_config(path: str) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    values = {}
    with open(path, "r") as fh:
        for ln, line in enumerate(fh):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln + 1} is not 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags, config file, and defaults for one subcommand."""
    config = _read_config(args.config) if args.config else {}
    settings = {"command": args.command}
    for key in _COMMAND_OPTS[args.command]:
        _, typ, default, _ = _OPTIONS[key]
        cli_value = getattr(args, key)
        if cli_value is not None:
            settings[key] = cli_value
        elif key in config:
            raw = config[key]
            settings[key] = _parse_bool(raw) if typ is bool else typ(raw)
        else:
            settings[key] = default
    unknown = set(config) - set(_COMMAND_OPTS[args.command])
    if unknown:
        raise ValueError(f"config keys not used by {args.command}: {sorted(unknown)}")
    return settings


def _require(settings: dict, *keys: str) -> None:
    for key in keys:
        if settings.get(key) is None:
            flag = _OPTIONS[key][0]
            raise ValueError(f"{settings['command']}: {flag} is required")


def _echo(settings: dict) -> list:
    lines = [f"sparsegrm {settings['command']}"]
    for key, value in settings.items():
        if key != "command" and value is not None:
            lines.append(f"{key} = {value}")
    return lines


def _write_echo(fh, echo: list) -> None:
    """Write the config-echo lines as the comment header of an output file."""
    for line in echo:
        fh.write(f"# {line}\n")


def _ensure_out(settings: dict) -> str:
    _require(settings, "out")
    out = settings["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _sim_design(settings: dict, seed: int) -> SimDesign:
    return SimDesign(
        n_respondents=settings["n"], n_items=settings["j"],
        n_factors=settings["k"], rho=settings["rho"],
        n_categories=settings["c"] if settings["c"] is not None else 4,
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
    _require(settings, "responses")
    categories = settings.get("c")
    data = load_responses(settings["responses"], categories=categories)
    if settings.get("sigma_theta"):
        sigma = read_matrix(settings["sigma_theta"])
    else:
        if settings.get("k") is None:
            raise ValueError("provide --k or --sigma-theta to set the factor count")
        sigma = np.eye(settings["k"])
    return data, sigma


def _write_summary(path: str, settings: dict, result, extra=()):
    with open(path, "w") as fh:
        _write_echo(fh, _echo(settings))
        for line in extra:
            fh.write(line + "\n")
        fh.write(f"converged = {result.converged}\n")
        fh.write(f"n_iters = {result.n_iters}\n")
        fh.write(f"elapsed_seconds = {result.elapsed_seconds:.3f}\n")
        fh.write(f"objective_final = {result.objective_trace[-1]:.17g}\n")
        trace = ",".join(format(v, ".17g") for v in result.objective_trace)
        fh.write(f"objective_trace = {trace}\n")


def _write_fit_files(out: str, settings: dict, result) -> None:
    echo = _echo(settings)
    write_matrix(os.path.join(out, "theta_est.csv"), result.state.theta, echo)
    write_matrix(os.path.join(out, "loadings_est.csv"), result.state.loadings, echo)
    write_intercepts(os.path.join(out, "intercepts_est.csv"),
                     result.state.intercepts, echo)


def cmd_simulate(settings: dict) -> None:
    _require(settings, "n", "j", "k", "rho")
    out = _ensure_out(settings)
    seeds = derive_seeds(settings["seed"], 2)
    design = _sim_design(settings, seeds[0])
    truth, q_star = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=seeds[1])
    echo = _echo(settings)
    save_responses(os.path.join(out, "responses.csv"), data, comments=echo)
    write_matrix(os.path.join(out, "theta_true.csv"), truth.theta, echo)
    write_matrix(os.path.join(out, "loadings_true.csv"), truth.loadings, echo)
    write_intercepts(os.path.join(out, "intercepts_true.csv"),
                     truth.intercepts, echo)
    write_matrix(os.path.join(out, "q_true.csv"), q_star.entries, echo)
    write_matrix(os.path.join(out, "sigma_theta.csv"),
                 gen_sigma(design.n_factors, design.rho), echo)


def cmd_fit(settings: dict) -> None:
    _require(settings, "lam")
    out = _ensure_out(settings)
    data, sigma = _load_fit_inputs(settings)
    hyper = Hyperparameters(sigma_theta=sigma, lam=settings["lam"])
    result = fit_multistart(data, hyper, _fit_config(settings))
    _write_fit_files(out, settings, result)
    _write_summary(os.path.join(out, "summary.txt"), settings, result,
                   extra=[f"lambda = {settings['lam']:.17g}"])


def cmd_cvfit(settings: dict) -> None:
    out = _ensure_out(settings)
    data, sigma = _load_fit_inputs(settings)
    hyper = Hyperparameters(sigma_theta=sigma, lam=0.0)
    split_seed, fit_seed = derive_seeds(settings["seed"], 2)
    cfg = replace(_fit_config(settings), seed=fit_seed)
    result, lam_hat, table = tune_and_fit(
        data, hyper, cfg, train_fraction=settings["train_fraction"],
        seed=split_seed, n_folds=settings["folds"],
        warm_start=settings["warm_start"],
    )
    train_rows, test_rows = split_row_indices(
        data.n_respondents, settings["train_fraction"], split_seed)
    echo = _echo(settings)
    with open(os.path.join(out, "cv_table.csv"), "w") as fh:
        _write_echo(fh, echo)
        folds = table[0].fold_errors.size
        fold_cols = ",".join(f"err_fold{m}" for m in range(folds))
        fh.write(f"# columns: stage,lambda,{fold_cols},total_error,selected\n")
        for entry in table:
            cells = [str(entry.stage), format(entry.lam, ".17g")]
            cells += [format(e, ".17g") for e in entry.fold_errors]
            cells += [format(entry.total_error, ".17g"), str(int(entry.selected))]
            fh.write(",".join(cells) + "\n")
    write_matrix(os.path.join(out, "train_rows.csv"), train_rows[None, :], echo)
    write_matrix(os.path.join(out, "test_rows.csv"), test_rows[None, :], echo)
    _write_fit_files(out, settings, result)
    _write_summary(os.path.join(out, "summary.txt"), settings, result,
                   extra=[f"lambda_hat = {lam_hat:.17g}"])


def cmd_evaluate(settings: dict) -> None:
    _require(settings, "est", "truth")
    out = _ensure_out(settings)
    a_hat = read_matrix(os.path.join(settings["est"], "loadings_est.csv"))
    d_hat = read_intercepts(os.path.join(settings["est"], "intercepts_est.csv"))
    a_star = read_matrix(os.path.join(settings["truth"], "loadings_true.csv"))
    d_star = read_intercepts(os.path.join(settings["truth"], "intercepts_true.csv"))
    q_star = QMatrix(entries=read_matrix(
        os.path.join(settings["truth"], "q_true.csv")).astype(np.int64))

    k = a_hat.shape[1]
    state_hat = ModelState(theta=np.zeros((0, k)), loadings=a_hat, intercepts=d_hat)
    state_star = ModelState(theta=np.zeros((0, k)), loadings=a_star,
                            intercepts=d_star)
    alignment = best_alignment(state_hat.loadings, state_star.loadings)
    aligned = apply_alignment(state_hat, alignment)
    q_hat = q_from_loadings(aligned.loadings, settings["threshold"])
    selection = selection_metrics(q_hat, q_star)
    recovery = recovery_metrics(aligned, state_star, q_star)

    fields = [
        ("msr", selection.msr), ("fpr", selection.fpr), ("fnr", selection.fnr),
        ("error_a", recovery.error_a), ("error_d", recovery.error_d),
        ("relbias_a", recovery.relbias_a), ("relbias_d", recovery.relbias_d),
        ("n_excluded_a", recovery.n_excluded_a),
        ("n_excluded_d", recovery.n_excluded_d),
    ]
    with open(os.path.join(out, "metrics.txt"), "w") as fh:
        _write_echo(fh, _echo(settings))
        for name, value in fields:
            fh.write(f"{name} = {value}\n")
    with open(os.path.join(out, "metrics_row.csv"), "w") as fh:
        fh.write("# columns: " + ",".join(name for name, _ in fields) + "\n")
        fh.write(",".join(format(float(v), ".17g") for _, v in fields) + "\n")


def cmd_align(settings: dict) -> None:
    _require(settings, "loadings", "ref_loadings")
    out = _ensure_out(settings)
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
    echo = _echo(settings)
    write_matrix(os.path.join(out, "loadings_aligned.csv"), aligned.loadings, echo)
    if settings.get("theta"):
        write_matrix(os.path.join(out, "theta_aligned.csv"), aligned.theta, echo)
    if settings.get("intercepts"):
        write_intercepts(os.path.join(out, "intercepts_aligned.csv"),
                         aligned.intercepts, echo)
    with open(os.path.join(out, "alignment.txt"), "w") as fh:
        _write_echo(fh, echo)
        fh.write("permutation = " + ",".join(map(str, alignment.permutation)) + "\n")
        fh.write("signs = " + ",".join(format(s, ".0f") for s in alignment.signs) + "\n")


_REPLICATE_COLUMNS = [
    "rep", "seed", "msr", "fpr", "fnr", "error_a", "error_d", "relbias_a",
    "relbias_d", "n_excluded_a", "n_excluded_d", "objective", "n_iters",
    "converged", "elapsed_seconds",
]


def cmd_replicate(settings: dict) -> None:
    _require(settings, "n", "j", "k", "rho")
    if settings["reps"] < 1:
        raise ValueError(
            f"replicate: --reps must be at least 1, got {settings['reps']}")
    out = _ensure_out(settings)
    cfg = _fit_config(settings)
    rep_seeds = derive_seeds(settings["seed"], settings["reps"])
    rows = []
    for r in range(settings["reps"]):
        design = _sim_design(settings, rep_seeds[r])
        selection, recovery, result = run_replication(
            design, cfg, train_fraction=settings["train_fraction"],
            n_folds=settings["folds"], lam=settings.get("lam"),
            warm_start=settings["warm_start"],
        )
        rows.append([
            r, rep_seeds[r], selection.msr, selection.fpr, selection.fnr,
            recovery.error_a, recovery.error_d, recovery.relbias_a,
            recovery.relbias_d, recovery.n_excluded_a, recovery.n_excluded_d,
            result.objective_trace[-1], result.n_iters,
            int(result.converged), result.elapsed_seconds,
        ])
    values = np.array([row[2:] for row in rows], dtype=float)
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1) if len(rows) > 1 else np.zeros(values.shape[1])
    with open(os.path.join(out, "replications.csv"), "w") as fh:
        _write_echo(fh, _echo(settings))
        fh.write("# columns: " + ",".join(_REPLICATE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float)
                              else str(v) for v in row) + "\n")
        fh.write("mean,," + ",".join(format(v, ".17g") for v in means) + "\n")
        fh.write("sd,," + ",".join(format(v, ".17g") for v in sds) + "\n")


_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "cv-fit": cmd_cvfit,
    "evaluate": cmd_evaluate,
    "align": cmd_align,
    "replicate": cmd_replicate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)
        _HANDLERS[args.command](settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
