"""Two-stage cell-holdout cross-validation for the sparsity weight.

Stage 1 scans a fixed coarse grid; stage 2 scans five equally spaced
values between one fifth and five times the stage-1 winner.  Folds hold
out individual observed cells (not whole rows): each fold's cells are
masked during fitting and scored by their out-of-sample log loss.  The
end-to-end pipeline splits respondents in half, selects lambda on one
half, and fits the other half at the selected value.

Warm starts chain the fits of one fold along a stage's grid; the folds
themselves are independent.  Each fold's chain, and each start of the
final fit, is one task on a bounded process pool (sparsegrm._pool), and
results merge in fold and start order, so every number matches a serial
run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _pool
from .data import ResponseData, split_rows
# category_prob is unused here; perfbench's tracer counts holdout cells by this name
from .model import Hyperparameters, category_prob  # noqa: F401
from .optimizer import (FitConfig, FitResult, fit, fit_multistart,
                        log_likelihood_value)

STAGE1_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass
class FoldAssignment:
    """Cell-level fold labels: entry in 0..n_folds-1 if observed, else -1."""

    n_folds: int
    fold: np.ndarray

    def __post_init__(self):
        self.fold = np.asarray(self.fold, dtype=np.int64)
        if self.n_folds < 1:
            raise ValueError("n_folds must be positive")
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


def _holdout_loss(data: ResponseData, holdout: np.ndarray, result: FitResult) -> float:
    """Sum of -log predicted probability over the held-out cells."""
    scored = ResponseData(responses=data.responses, mask=holdout,
                          categories=data.categories)
    return -log_likelihood_value(scored, result.state)


def _fold_fit(data: ResponseData, folds: FoldAssignment, m: int,
              hyper: Hyperparameters, cfg: FitConfig, init=None):
    """Fit with fold m's cells masked out; return (holdout loss, FitResult)."""
    holdout = folds.holdout_mask(m)
    train = ResponseData(
        responses=data.responses.copy(),
        mask=data.mask & ~holdout,
        categories=data.categories.copy(),
    )
    result = fit(train, hyper, cfg, init=init)
    return _holdout_loss(data, holdout, result), result


def cv_error(data: ResponseData, folds: FoldAssignment, m: int, lam: float,
             hyper: Hyperparameters, cfg: FitConfig) -> float:
    """Out-of-sample log loss of fold m at one candidate lambda."""
    loss, _ = _fold_fit(data, folds, m, replace(hyper, lam=lam), cfg)
    return loss


def second_stage_grid(lambda_hat: float) -> LambdaGrid:
    """Five equally spaced values on [lambda_hat / 5, 5 * lambda_hat]."""
    # a chained comparison with nan is False, so this also rejects nan
    if not 0.0 < lambda_hat < np.inf:
        raise ValueError(f"lambda_hat must be finite and positive, got {lambda_hat}")
    values = np.linspace(lambda_hat / 5.0, 5.0 * lambda_hat, 5)
    return LambdaGrid(np.maximum(values, np.finfo(np.float64).tiny))


def _fold_chain(data: ResponseData, folds: FoldAssignment, m: int, lams,
                hyper: Hyperparameters, cfg: FitConfig, warm_start: bool):
    """Holdout losses of fold m along lams, in order.

    With warm starts on, each candidate's fold fit starts from the previous
    candidate's solution for this fold.
    """
    losses = np.zeros(len(lams))
    init = None
    for gi, lam in enumerate(lams):
        losses[gi], result = _fold_fit(data, folds, m, replace(hyper, lam=float(lam)),
                                       cfg, init=init)
        if warm_start:
            init = result.state
    return losses


def _scan_stage(stage: int, data: ResponseData, folds: FoldAssignment,
                grid: LambdaGrid, hyper: Hyperparameters, cfg: FitConfig,
                warm_start: bool, pool=None):
    """Per-fold CV errors over one candidate grid, ascending lambda.

    Each fold's chain of fits is one task on `pool` (serial when None).
    """
    columns = _pool.run_tasks(pool, _fold_chain, [
        (data, folds, m, grid.values, hyper, cfg, warm_start)
        for m in range(folds.n_folds)])
    errors = np.column_stack(columns)
    entries = [
        CvEntry(stage=stage, lam=float(lam), fold_errors=errors[gi],
                total_error=float(errors[gi].sum()))
        for gi, lam in enumerate(grid.values)
    ]
    return entries


def _pick(entries):
    """Index of the smallest total error; ties go to the larger lambda."""
    totals = np.array([e.total_error for e in entries])
    return int(totals.size - 1 - np.argmin(totals[::-1]))


def select_lambda(train: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
                  n_folds: int = 5, warm_start: bool = True, pool=None):
    """Two-stage CV search; returns (lambda_hat, list of CvEntry rows).

    The same fold assignment (seeded by cfg.seed) is reused in both stages
    so stage comparisons see identical holdout sets.  The folds run on
    `pool` (an enclosing call's process pool) or, by default, on a pool of
    their own.
    """
    folds = make_folds(train.mask, n_folds, cfg.seed)
    with _pool.shared_pool(pool, n_folds, cfg.threads) as pool:
        stage1 = _scan_stage(1, train, folds, LambdaGrid(np.asarray(STAGE1_GRID)),
                             hyper, cfg, warm_start, pool)
        pick1 = _pick(stage1)
        stage1[pick1].selected = True
        stage2 = _scan_stage(2, train, folds, second_stage_grid(stage1[pick1].lam),
                             hyper, cfg, warm_start, pool)
    pick2 = _pick(stage2)
    stage2[pick2].selected = True
    return stage2[pick2].lam, stage1 + stage2


def tune_and_fit(data: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
                 train_fraction: float = 0.5, seed: int = 0,
                 n_folds: int = 5, warm_start: bool = True):
    """Split rows, select lambda on one half, fit the other half with it.

    Returns (FitResult on the test half, lambda_hat, CV table).  The final
    fit honors cfg.n_starts.  The row split is reproducible from the seed
    via data.split_row_indices.  One process pool serves both CV stages
    and the final starts.
    """
    train, test = split_rows(data, train_fraction, seed)
    with _pool.task_pool(max(n_folds, cfg.n_starts), cfg.threads) as pool:
        lam_hat, table = select_lambda(train, hyper, cfg, n_folds=n_folds,
                                       warm_start=warm_start, pool=pool)
        result = fit_multistart(test, replace(hyper, lam=lam_hat), cfg, pool=pool)
    return result, lam_hat, table
