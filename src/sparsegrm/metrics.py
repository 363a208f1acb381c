"""Structure-selection and parameter-recovery metrics.

Selection compares the recovered zero/nonzero loading pattern against the
true pattern; recovery measures loading error on the truly nonzero
entries and intercept error across all items.  selection_metrics and
recovery_metrics expect an estimate already aligned to the truth (see the
align module); score aligns first and then runs both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .align import apply_alignment, best_alignment
from .data import QMatrix
from .model import ModelState

# relative-bias terms with a true value this close to zero are excluded
DENOM_FLOOR = 1e-12
# |loading| cutoff for the recovered structure that replications report
LOADING_ZERO_THRESHOLD = 0.01


@dataclass
class SelectionReport:
    """Misselection, false-positive, and false-negative rates."""

    msr: float
    fpr: float
    fnr: float

    def __post_init__(self):
        for name in ("msr", "fpr", "fnr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


@dataclass
class RecoveryReport:
    """Loading/intercept RMS errors and mean relative biases.

    n_excluded_a and n_excluded_d count relative-bias terms dropped
    because the true value was within DENOM_FLOOR of zero.
    """

    error_a: float
    error_d: float
    relbias_a: float
    relbias_d: float
    n_excluded_a: int = 0
    n_excluded_d: int = 0

    def __post_init__(self):
        # an RMS error of finite states can overflow to inf, but is never
        # negative or nan; a chained comparison with nan is False
        for name in ("error_a", "error_d"):
            v = getattr(self, name)
            if not 0.0 <= v <= np.inf:
                raise ValueError(f"{name} must be nonnegative, got {v}")


def q_from_loadings(loadings, threshold: float) -> QMatrix:
    """Binary structure matrix: 1 where |loading| strictly exceeds threshold."""
    if not 0.0 <= threshold < np.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {threshold}")
    loadings = np.asarray(loadings, dtype=np.float64)
    return QMatrix(entries=(np.abs(loadings) > threshold).astype(np.int64))


def selection_metrics(q_hat: QMatrix, q_star: QMatrix) -> SelectionReport:
    """Mismatch rates of the recovered structure against the true one."""
    est = q_hat.entries
    ref = q_star.entries
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    zeros = ref == 0
    ones = ref == 1
    if not zeros.any():
        raise ValueError("true structure has no zeros: FPR undefined")
    if not ones.any():
        raise ValueError("true structure has no ones: FNR undefined")
    msr = float(np.mean(est != ref))
    fpr = float(np.mean(est[zeros] != 0))
    fnr = float(np.mean(est[ones] == 0))
    return SelectionReport(msr=msr, fpr=fpr, fnr=fnr)


def recovery_metrics(state_hat: ModelState, state_star: ModelState,
                     q_star: QMatrix) -> RecoveryReport:
    """Recovery errors of an aligned estimate against the truth.

    Loading metrics run over entries with true structure 1; intercept RMS
    averages per-item mean squared errors; intercept relative bias
    averages per-item category means, skipping near-zero true values.
    """
    a_hat = state_hat.loadings
    a_star = state_star.loadings
    if a_hat.shape != a_star.shape:
        raise ValueError(
            f"loading shape mismatch: {a_hat.shape} vs {a_star.shape}"
        )
    if len(state_hat.intercepts) != len(state_star.intercepts):
        raise ValueError("intercept item counts differ")
    on = q_star.entries == 1
    if not on.any():
        raise ValueError("true structure has no nonzero entries")

    diff_a = a_hat[on] - a_star[on]
    error_a = float(np.sqrt(np.mean(diff_a ** 2)))

    denom = a_star[on]
    usable_a = np.abs(denom) > DENOM_FLOOR
    n_excluded_a = int((~usable_a).sum())
    relbias_a = float(np.mean(diff_a[usable_a] / denom[usable_a]))

    item_mse = []
    item_relbias = []
    n_excluded_d = 0
    for d_hat, d_star in zip(state_hat.intercepts, state_star.intercepts):
        if d_hat.size != d_star.size:
            raise ValueError("intercept length mismatch between states")
        item_mse.append(np.mean((d_hat - d_star) ** 2))
        usable = np.abs(d_star) > DENOM_FLOOR
        n_excluded_d += int((~usable).sum())
        if usable.any():
            item_relbias.append(np.mean((d_hat[usable] - d_star[usable])
                                        / d_star[usable]))
    error_d = float(np.sqrt(np.mean(item_mse)))
    relbias_d = float(np.mean(item_relbias))

    return RecoveryReport(
        error_a=error_a,
        error_d=error_d,
        relbias_a=relbias_a,
        relbias_d=relbias_d,
        n_excluded_a=n_excluded_a,
        n_excluded_d=n_excluded_d,
    )


def score(estimate: ModelState, truth: ModelState, q_star: QMatrix,
          threshold: float = LOADING_ZERO_THRESHOLD):
    """Align the estimate to the truth, then score its structure and recovery.

    The recovered structure keeps loadings whose magnitude strictly
    exceeds threshold.  Returns (SelectionReport, RecoveryReport).
    """
    aligned = apply_alignment(
        estimate, best_alignment(estimate.loadings, truth.loadings))
    q_hat = q_from_loadings(aligned.loadings, threshold)
    return (selection_metrics(q_hat, q_star),
            recovery_metrics(aligned, truth, q_star))
