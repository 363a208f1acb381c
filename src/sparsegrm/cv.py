"""Two-stage cell-holdout cross-validation for the sparsity weight.

Stage 1 scans a fixed coarse grid; stage 2 scans five equally spaced
values between one fifth and five times the stage-1 winner.  Folds hold
out individual observed cells (not whole rows): each fold's cells are
masked during fitting and scored by their out-of-sample log loss.  The
end-to-end pipeline splits respondents in half, selects lambda on one
half, and fits the other half at the selected value.

Each fold's training and holdout sets are built once per selection and
serve both stages.  A fold fits a stage's candidates in ascending lambda,
each fit starting from the previous candidate's solution (the pathwise
warm start of Friedman, Hastie & Tibshirani 2010); the folds themselves
are independent.  Each fold's chain (_fold_chain, the one place a fold is
fitted and scored), and each start of the final fit, is one task on a
bounded process pool (sparsegrm._pool), and results merge in fold and
start order, so every number matches a serial run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _pool
from .data import ResponseData, split_row_indices, take_rows
# category_prob is unused here; perfbench's tracer counts holdout cells by this name
from .model import Hyperparameters, category_prob  # noqa: F401
from .optimizer import FitConfig, fit, fit_multistart, log_likelihood_value

STAGE1_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
# default fold count, and default share of rows on which lambda is selected
N_FOLDS = 5
TRAIN_FRACTION = 0.5


@dataclass
class FoldAssignment:
    """Cell-level fold labels: entry in 0..n_folds-1 if observed, else -1."""

    n_folds: int
    fold: np.ndarray

    def __post_init__(self):
        self.fold = np.asarray(self.fold, dtype=np.int64)
        if self.n_folds < 2:  # one fold would leave no training cells
            raise ValueError(f"need at least 2 folds, got {self.n_folds}")
        if self.fold.ndim != 2:
            raise ValueError(f"fold must be 2-D, got ndim={self.fold.ndim}")
        if self.fold.min() < -1 or self.fold.max() >= self.n_folds:
            raise ValueError("fold labels must lie in {-1, 0, ..., n_folds-1}")

    def holdout_mask(self, m: int) -> np.ndarray:
        """Boolean mask of the cells held out in fold m."""
        if not 0 <= m < self.n_folds:
            raise ValueError(f"fold index {m} out of range for {self.n_folds} folds")
        return self.fold == m


@dataclass
class LambdaGrid:
    """Strictly increasing positive candidate values."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("grid must be a nonempty 1-D vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"grid values must be finite, got {self.values}")
        if np.any(self.values <= 0):
            raise ValueError("grid values must be positive")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("grid values must be strictly increasing")


@dataclass
class CvEntry:
    """One candidate's row in the selection report."""

    stage: int
    lam: float
    fold_errors: np.ndarray
    total_error: float
    selected: bool = field(default=False)


def make_folds(mask, n_folds: int, seed: int) -> FoldAssignment:
    """Randomly partition the observed cells into n_folds balanced folds."""
    if n_folds < 2:  # one fold would hold out every cell, leaving no training data
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    mask = np.asarray(mask, dtype=bool)
    flat_obs = np.flatnonzero(mask.ravel())
    if flat_obs.size < n_folds:
        raise ValueError(
            f"only {flat_obs.size} observed cells for {n_folds} folds"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(flat_obs.size)
    fold = np.full(mask.size, -1, dtype=np.int64)
    fold[flat_obs[order]] = np.arange(flat_obs.size) % n_folds
    return FoldAssignment(n_folds=n_folds, fold=fold.reshape(mask.shape))


def _fold_sets(data: ResponseData, folds: FoldAssignment, m: int):
    """Fold m's (training, holdout) data: the observed cells outside fold m, and in it."""
    holdout = folds.holdout_mask(m)
    return tuple(ResponseData(responses=data.responses, mask=mask, categories=data.categories)
                 for mask in (data.mask & ~holdout, holdout))


def _fold_chain(train: ResponseData, holdout: ResponseData, lams,
                hyper: Hyperparameters, cfg: FitConfig):
    """Holdout losses (sums of -log predicted probability) of one fold along lams.

    The first fit on train starts from random_init at cfg.seed; every later
    one starts from the previous candidate's solution.
    """
    losses = np.zeros(len(lams))
    state = None
    for gi, lam in enumerate(lams):
        state = fit(train, replace(hyper, lam=float(lam)), cfg, init=state).state
        losses[gi] = -log_likelihood_value(holdout, state)
    return losses


def cv_error(data: ResponseData, folds: FoldAssignment, m: int, lam: float,
             hyper: Hyperparameters, cfg: FitConfig) -> float:
    """Out-of-sample log loss of fold m at one lambda: a one-candidate fold chain."""
    return float(_fold_chain(*_fold_sets(data, folds, m), [lam], hyper, cfg)[0])


def second_stage_grid(lambda_hat: float) -> LambdaGrid:
    """Five equally spaced values on [lambda_hat / 5, 5 * lambda_hat]."""
    # a chained comparison with nan is False, so this also rejects nan
    if not 0.0 < lambda_hat < np.inf:
        raise ValueError(f"lambda_hat must be finite and positive, got {lambda_hat}")
    values = np.linspace(lambda_hat / 5.0, 5.0 * lambda_hat, 5)
    return LambdaGrid(np.maximum(values, np.finfo(np.float64).tiny))


def _scan_stage(stage: int, fold_sets, grid: LambdaGrid, hyper: Hyperparameters,
                cfg: FitConfig, pool=None):
    """One stage over grid; returns (its lambda, CvEntry rows in ascending lambda).

    Each (training, holdout) pair of fold_sets is one fold chain task on
    `pool` (serial when None).  The row marked selected has the smallest
    total error; ties go to the larger lambda.
    """
    columns = _pool.run_tasks(pool, _fold_chain, [
        (train, holdout, grid.values, hyper, cfg) for train, holdout in fold_sets])
    errors = np.column_stack(columns)
    entries = [CvEntry(stage=stage, lam=float(lam), fold_errors=errors[gi],
                       total_error=float(errors[gi].sum()))
               for gi, lam in enumerate(grid.values)]
    totals = np.array([e.total_error for e in entries])
    winner = entries[totals.size - 1 - int(np.argmin(totals[::-1]))]
    winner.selected = True
    return winner.lam, entries


def select_lambda(train: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
                  n_folds: int = N_FOLDS, pool=None):
    """Two-stage CV search; returns (lambda_hat, list of CvEntry rows).

    One fold assignment (seeded by cfg.seed), and each fold's training and
    holdout sets, built once, serve both stages, so both see identical
    holdout sets.  The folds run on `pool` (an enclosing call's process
    pool) or, by default, on a pool of their own.
    """
    folds = make_folds(train.mask, n_folds, cfg.seed)
    fold_sets = [_fold_sets(train, folds, m) for m in range(n_folds)]
    with _pool.shared_pool(pool, n_folds) as pool:
        lam1, stage1 = _scan_stage(1, fold_sets, LambdaGrid(np.asarray(STAGE1_GRID)),
                                   hyper, cfg, pool)
        lam_hat, stage2 = _scan_stage(2, fold_sets, second_stage_grid(lam1),
                                      hyper, cfg, pool)
    return lam_hat, stage1 + stage2


def tune_and_fit(data: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
                 train_fraction: float = TRAIN_FRACTION, seed: int = 0,
                 n_folds: int = N_FOLDS, rows=None):
    """Split rows, select lambda on one half, fit the other half with it.

    Returns (FitResult on the test half, lambda_hat, CV table), where
    lambda_hat is the FitResult's hyper.lam.  The final fit honors
    cfg.n_starts.  rows is the split (train rows, test rows); by default
    data.split_row_indices draws it from train_fraction and seed, which
    are unused when rows is given.  One process pool serves both CV
    stages and the final starts.
    """
    if rows is None:
        rows = split_row_indices(data.n_respondents, train_fraction, seed)
    train, test = (take_rows(data, r) for r in rows)
    with _pool.task_pool(max(n_folds, cfg.n_starts)) as pool:
        lam_hat, table = select_lambda(train, hyper, cfg, n_folds=n_folds, pool=pool)
        result = fit_multistart(test, replace(hyper, lam=lam_hat), cfg, pool=pool)
    return result, lam_hat, table
