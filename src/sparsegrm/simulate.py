"""Synthetic data generation, the end-to-end replication pipeline, and studies.

True parameters follow the sparse design: an exchangeable factor
correlation matrix, a binary structure matrix that puts 60/20/20 percent
of items on one, two, and three factors and masks the loadings, and the
generating distributions of sparsegrm.model.  Responses are sampled from
the model exactly, through model.inverse_logit, the logistic the fits use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import _pool
from .cv import N_FOLDS, TRAIN_FRACTION, tune_and_fit
from .data import MAX_CATEGORIES, QMatrix, ResponseData, check_counts, derive_seeds
from .metrics import score
from .model import (LOADING_RANGE, Hyperparameters, ModelState,
                    draw_intercepts, draw_theta, inverse_logit)
from .optimizer import FitConfig, fit_multistart


@dataclass
class SimDesign:
    """Sizes and structure for one simulated condition.

    q_proportions gives the fractions of items loading on exactly 1, 2,
    and 3 factors.  A design is checked when it is built: rho must lie in
    gen_sigma's range, q_proportions must split n_items into whole item
    counts with n_factors at least the widest non-empty group (gen_q), and
    n_categories must be at most data.MAX_CATEGORIES.  Loadings and
    intercepts follow the fixed distributions of sparsegrm.model.
    """

    n_respondents: int
    n_items: int
    n_factors: int
    rho: float
    n_categories: int = 4
    q_proportions: tuple = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self):
        check_counts(self, n_respondents=2, n_items=1, n_factors=1, n_categories=2, seed=0)
        if not all(0.0 <= p < np.inf for p in self.q_proportions):
            raise ValueError(
                f"q_proportions must be finite and nonnegative: {self.q_proportions}")
        if abs(sum(self.q_proportions) - 1.0) > 1e-12:
            raise ValueError(f"q_proportions must sum to 1: {self.q_proportions}")
        if self.n_categories > MAX_CATEGORIES:
            raise ValueError(f"n_categories must be at most {MAX_CATEGORIES}, "
                             f"got {self.n_categories}")
        gen_sigma(self.n_factors, self.rho)
        gen_q(self)


def gen_sigma(n_factors: int, rho: float) -> np.ndarray:
    """Exchangeable correlation matrix rho * 11' + (1 - rho) * I."""
    lo = -1.0 / (n_factors - 1) if n_factors > 1 else -1.0
    if not lo < rho < 1.0:
        raise ValueError(
            f"rho must lie in ({lo}, 1) for K={n_factors}, got {rho}"
        )
    return rho * np.ones((n_factors, n_factors)) + (1.0 - rho) * np.eye(n_factors)


def gen_q(design: SimDesign) -> QMatrix:
    """Binary structure matrix with the designed loading counts per item.

    Items loading on r factors take the next r factor columns in cyclic
    order, so columns stay balanced and every factor is loaded.  Raises
    unless the counts are whole and K covers the widest non-empty group.
    """
    counts = [round(p * design.n_items) for p in design.q_proportions]
    if sum(counts) != design.n_items:
        raise ValueError(
            f"q_proportions {design.q_proportions} do not yield integer "
            f"item counts for J={design.n_items}"
        )
    entries = np.zeros((design.n_items, design.n_factors), dtype=np.int64)
    item = 0
    cursor = 0
    for group, n_group in enumerate(counts):
        r = group + 1
        if n_group == 0:
            continue
        if r > design.n_factors:
            raise ValueError(
                f"items loading on {r} factors need K >= {r}, got "
                f"K={design.n_factors}"
            )
        for _ in range(n_group):
            for t in range(r):
                entries[item, (cursor + t) % design.n_factors] = 1
            cursor += r
            item += 1
    return QMatrix(entries=entries)


def gen_true_params(design: SimDesign):
    """Draw (true ModelState, true QMatrix) for one replication."""
    rng = np.random.default_rng(design.seed)
    q = gen_q(design)
    theta = draw_theta(rng, design.n_respondents,
                       gen_sigma(design.n_factors, design.rho))
    u = rng.uniform(*LOADING_RANGE, size=(design.n_items, design.n_factors))
    loadings = u * q.entries
    intercepts = [draw_intercepts(rng, design.n_categories)
                  for _ in range(design.n_items)]
    return ModelState(theta=theta, loadings=loadings, intercepts=intercepts), q


def sample_responses(truth: ModelState, categories, seed: int) -> ResponseData:
    """Sample one response per cell from the model; fully observed."""
    n, j = truth.n_respondents, truth.n_items
    categories = np.broadcast_to(np.asarray(categories, dtype=np.int64), (j,))
    truth.check_categories(categories)
    rng = np.random.default_rng(seed)
    u = rng.random((n, j))
    responses = np.zeros((n, j), dtype=np.int64)
    for jj in range(j):
        z = truth.theta @ truth.loadings[jj]
        cum = inverse_logit(z[:, None] + truth.intercepts[jj][None, :])
        responses[:, jj] = (u[:, jj][:, None] < cum).sum(axis=1)
    return ResponseData(
        responses=responses,
        mask=np.ones((n, j), dtype=bool),
        categories=categories.copy(),
    )


def run_replication(design: SimDesign, cfg: FitConfig,
                    train_fraction: float = TRAIN_FRACTION, n_folds: int = N_FOLDS,
                    lam: float | None = None):
    """Generate, fit, align, and score one replication.

    With lam=None the sparsity weight is selected by two-stage CV on a
    row split and only the test half is fitted and scored; with a fixed
    lam the whole data set is fitted directly.  Returns
    (SelectionReport, RecoveryReport, FitResult); the final fit's lambda,
    selected or fixed, is FitResult.hyper.lam.
    """
    seeds = derive_seeds(design.seed, 4)
    truth, q_star = gen_true_params(replace(design, seed=seeds[0]))
    data = sample_responses(truth, design.n_categories, seed=seeds[1])
    sigma = gen_sigma(design.n_factors, design.rho)
    cfg_fit = replace(cfg, seed=seeds[2])

    if lam is None:
        hyper = Hyperparameters(sigma_theta=sigma, lam=0.0)
        result = tune_and_fit(
            data, hyper, cfg_fit, train_fraction=train_fraction,
            seed=seeds[3], n_folds=n_folds)[0]
    else:
        hyper = Hyperparameters(sigma_theta=sigma, lam=float(lam))
        result = fit_multistart(data, hyper, cfg_fit)
    selection, recovery = score(result.state, truth, q_star)
    return selection, recovery, result


def _timed_replication(*args):
    t0 = time.perf_counter()
    return (*run_replication(*args), time.perf_counter() - t0)


def run_study(designs, cfg, train_fraction=TRAIN_FRACTION, n_folds=N_FOLDS, lam=None):
    """Yield (SelectionReport, RecoveryReport, FitResult, seconds) per design, in order.

    The replications are the tasks of one pool, whose workers run their CV folds
    and starts serially; below two workers, each runs here, as run_replication
    alone would, when its row is asked for.  Rows equal run_replication's bit for
    bit, each yielded once all earlier ones are; seconds is its own wall time."""
    with _pool.task_pool(len(designs)) as pool:
        yield from _pool.iter_tasks(pool, _timed_replication, [
            (design, cfg, train_fraction, n_folds, lam) for design in designs])
