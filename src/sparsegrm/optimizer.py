"""Alternating block-maximization of the penalized objective.

Each outer iteration updates every factor-score row by a line-searched
gradient step, then every item's loading row by a line-searched proximal
gradient step (soft thresholding gives exact zeros) followed by an
intercept step in the order-preserving reparameterized space.  Iteration
stops when the objective change drops below ``obj_tol``.  Every line search
of a row (factor scores, loadings, intercepts) starts at that row's last
accepted step.  Each trace entry after the first is summed from the item
rows' log-likelihoods that the intercept step accepted, with no further
pass over the cells.

Respondent and item updates inside a phase are independent, so they run
over contiguous blocks, one per thread, on one thread pool per fit.  The
block arithmetic is written so the result is bit-identical for any thread
count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import _engine as eng
from . import _pool
from .data import ResponseData
from .model import Hyperparameters, ModelState


@dataclass
class FitConfig:
    """Optimizer settings.

    Parameters
    ----------
    max_outer_iters : int
        Cap on outer iterations.
    obj_tol : float
        Stop when the absolute objective change falls below this.  The
        default 5 is coarse; use 1e-2 for publication-grade fits.
    threads : int
        Number of update blocks per phase.  Results do not depend on it.
        It also divides the usable CPUs among the process workers that
        run CV folds and multistart starts (sparsegrm._pool).
    seed : int
        Seed for random initialization.
    n_starts : int
        Independent starts for fit_multistart (seeds seed, seed+1, ...).
    """

    max_outer_iters: int = 1000
    obj_tol: float = 5.0
    threads: int = 1
    seed: int = 0
    n_starts: int = 1

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        # a chained comparison with nan is False, so this also rejects nan
        if not 0.0 < self.obj_tol < np.inf:
            raise ValueError(f"obj_tol must be finite and positive, got {self.obj_tol}")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


@dataclass
class FitResult:
    """Fitted state plus the optimization record."""

    state: ModelState
    objective_trace: np.ndarray
    n_iters: int
    converged: bool
    elapsed_seconds: float


def soft_threshold(z, t):
    """Elementwise L1 proximal operator sign(z) * max(|z| - t, 0)."""
    if t < 0:
        raise ValueError(f"threshold must be nonnegative, got {t}")
    return eng.soft_threshold(np.asarray(z, dtype=np.float64), t)


class _Workspace:
    """Fixed per-fit arrays shared by every phase.

    The mask is kept contiguous in both orientations: respondent-major for
    the theta phase, item-major for the item phase.  Responses are only
    read item-major.
    """

    def __init__(self, data: ResponseData):
        self.nt = data.categories - 1
        self.yt = np.ascontiguousarray(data.responses.T)
        self.mask_f = data.mask.astype(np.float64)
        self.mask_f_t = np.ascontiguousarray(self.mask_f.T)

    def gather_intercepts(self, d_pad):
        """Per-cell upper/lower intercepts in both orientations."""
        du_t, dl_t = eng.bracket_intercepts(d_pad, self.nt, self.yt)
        du = np.ascontiguousarray(du_t.T)
        dl = np.ascontiguousarray(dl_t.T)
        return du, dl, du_t, dl_t


def _prepare(data: ResponseData, state: ModelState,
             hyper: Hyperparameters | None = None):
    """(workspace, padded intercepts, theta') of state, after the shape check.

    Raises unless state fits data (and hyper's factor count, when given).
    """
    if state.n_respondents != data.n_respondents:
        raise ValueError(
            f"state has {state.n_respondents} respondents, data has "
            f"{data.n_respondents}"
        )
    if state.n_items != data.n_items:
        raise ValueError(
            f"state has {state.n_items} items, data has {data.n_items}"
        )
    if hyper is not None and state.n_factors != hyper.n_factors:
        raise ValueError(
            f"state has K={state.n_factors}, hyper has K={hyper.n_factors}"
        )
    for j in range(data.n_items):
        want = int(data.categories[j]) - 1
        if state.intercepts[j].size != want:
            raise ValueError(
                f"item {j}: {state.intercepts[j].size} intercepts for "
                f"{int(data.categories[j])} categories"
            )
    return (_Workspace(data), eng.pad_intercepts(state.intercepts),
            np.ascontiguousarray(state.theta.T))


def objective_value(data: ResponseData, state: ModelState,
                    hyper: Hyperparameters) -> float:
    """Objective as computed inside fit (identical code path to the trace)."""
    ws, d_pad, th_t = _prepare(data, state, hyper)
    return eng.full_objective(state.loadings, d_pad, ws.nt, th_t, ws.yt, ws.mask_f_t,
                              hyper)


def log_likelihood_value(data: ResponseData, state: ModelState) -> float:
    """Log-likelihood of the observed cells, by the kernel fit uses.

    Equals model.log_likelihood up to floating-point addition order.
    """
    ws, d_pad, th_t = _prepare(data, state)
    return float(np.sum(eng.item_loglik(state.loadings, d_pad, ws.nt, th_t, ws.yt,
                                        ws.mask_f_t)))


def _blocks(n: int, threads: int):
    return [b for b in np.array_split(np.arange(n), threads) if b.size > 0]


def _phase(worker, blocks, pool):
    """worker's outputs over the contiguous blocks, each concatenated in block order."""
    parts = _pool.run_tasks(pool, worker, [(b,) for b in blocks])
    return [np.concatenate(out) for out in zip(*parts)]


def random_init(data: ResponseData, hyper: Hyperparameters,
                seed: int) -> ModelState:
    """Draw a starting state from the same distributions as simulated truth.

    theta ~ N(0, sigma_theta); loadings uniform on [0.5, 2.0] with random
    sign; intercepts drawn from the simulation ranges, sorted decreasing.
    """
    from .simulate import draw_intercepts  # deferred: simulate imports us

    rng = np.random.default_rng(seed)
    n, j = data.n_respondents, data.n_items
    k = hyper.n_factors
    chol = np.linalg.cholesky(hyper.sigma_theta)
    theta = rng.standard_normal((n, k)) @ chol.T
    mags = rng.uniform(0.5, 2.0, size=(j, k))
    signs = np.where(rng.random((j, k)) < 0.5, -1.0, 1.0)
    intercepts = [draw_intercepts(rng, int(c)) for c in data.categories]
    return ModelState(theta=theta, loadings=mags * signs, intercepts=intercepts)


def fit(data: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
        init: ModelState | None = None) -> FitResult:
    """Run the alternating updates until the objective change is small.

    Within one outer iteration every theta row is updated against the
    current loadings/intercepts, then every item is updated against the
    new thetas.  The returned trace is non-decreasing up to roundoff.
    """
    t0 = time.perf_counter()
    if init is None:
        init = random_init(data, hyper, cfg.seed)
    ws, d_pad, th_t = _prepare(data, init, hyper)
    theta = init.theta.copy()
    loadings = init.loadings.copy()

    trace = [eng.full_objective(loadings, d_pad, ws.nt, th_t, ws.yt, ws.mask_f_t,
                                hyper)]
    if not np.isfinite(trace[0]):
        raise ValueError("objective is not finite at the starting state")

    # each respondent's and item's last accepted steps start their next
    # searches; rows are independent, so blocking cannot change a bit
    theta_step = np.full(theta.shape[0], eng.GAMMA0)
    a_step = np.full(loadings.shape[0], eng.GAMMA0)
    d_step = np.full(loadings.shape[0], eng.GAMMA0)
    converged = False
    n_iters = 0
    row_blocks = _blocks(theta.shape[0], cfg.threads)
    item_blocks = _blocks(loadings.shape[0], cfg.threads)

    # the workers read the loop's current arrays when a phase calls them
    def theta_worker(rows):
        return eng.theta_block(theta[rows], a_t, du[rows], dl[rows], ws.mask_f[rows],
                               hyper.sigma_theta_inv, theta_step[rows])

    def item_worker(items):
        a_new, a_s = eng.a_block(loadings[items], th_t, du_t[items], dl_t[items],
                                 ws.mask_f_t[items], hyper.lam, a_step[items])
        return (a_new, a_s, *eng.d_block(a_new, th_t, d_pad[items], ws.nt[items],
                                         ws.yt[items], ws.mask_f_t[items],
                                         hyper.sigma_d_sq, d_step[items]))

    with (ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1
          else nullcontext()) as pool:
        for _ in range(cfg.max_outer_iters):
            du, dl, du_t, dl_t = ws.gather_intercepts(d_pad)
            a_t = np.ascontiguousarray(loadings.T)
            theta, theta_step = _phase(theta_worker, row_blocks, pool)
            th_t = np.ascontiguousarray(theta.T)
            loadings, a_step, d_pad, d_step, ll_items = _phase(item_worker,
                                                               item_blocks, pool)
            obj = eng.objective(ll_items, loadings, d_pad, ws.nt, th_t, hyper)
            if not np.isfinite(obj):
                raise ValueError("objective became non-finite during fitting")
            trace.append(obj)
            n_iters += 1
            if abs(trace[-1] - trace[-2]) < cfg.obj_tol:
                converged = True
                break

    state = ModelState(
        theta=theta,
        loadings=loadings,
        intercepts=eng.unpad_intercepts(d_pad, ws.nt),
    )
    return FitResult(
        state=state,
        objective_trace=np.asarray(trace),
        n_iters=n_iters,
        converged=converged,
        elapsed_seconds=time.perf_counter() - t0,
    )


def _start(data: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
           s: int) -> FitResult:
    """Start s of fit_multistart: one fit from seed cfg.seed + s."""
    return fit(data, hyper, replace(cfg, seed=cfg.seed + s, n_starts=1))


def fit_multistart(data: ResponseData, hyper: Hyperparameters,
                   cfg: FitConfig, pool=None) -> FitResult:
    """Run fit from n_starts random initializations; keep the best objective.

    The starts run as tasks on `pool` (an enclosing call's process pool) or,
    by default, on a pool of their own; see sparsegrm._pool.  Ties go to the
    earliest start, so the result is bit-identical to a serial run.
    """
    with _pool.shared_pool(pool, cfg.n_starts, cfg.threads) as pool:
        results = _pool.run_tasks(pool, _start,
                                  [(data, hyper, cfg, s) for s in range(cfg.n_starts)])
    return max(results, key=lambda result: result.objective_trace[-1])


def _row_args(data: ResponseData, state: ModelState,
              hyper: Hyperparameters | None, phase: str, rows) -> tuple:
    """Engine arguments for the respondents or items of the index array rows.

    phase "theta" gives theta_block's arguments up to sinv; "a" gives
    a_block's up to mf (hyper may be None); "d" gives d_block's up to
    sigma_d_sq.  The gradient heads take the same.
    """
    ws, d_pad, th_t = _prepare(data, state, hyper)
    du, dl, du_t, dl_t = ws.gather_intercepts(d_pad)
    if phase == "theta":
        return (state.theta[rows], np.ascontiguousarray(state.loadings.T), du[rows],
                dl[rows], ws.mask_f[rows], hyper.sigma_theta_inv)
    if phase == "a":
        return state.loadings[rows], th_t, du_t[rows], dl_t[rows], ws.mask_f_t[rows]
    return (state.loadings[rows], th_t, d_pad[rows], ws.nt[rows], ws.yt[rows],
            ws.mask_f_t[rows], hyper.sigma_d_sq)


def update_theta(data: ResponseData, state: ModelState, hyper: Hyperparameters,
                 i: int) -> np.ndarray:
    """One line-searched gradient step for theta_i; state is not modified."""
    return eng.theta_block(*_row_args(data, state, hyper, "theta", [i]))[0][0]


def update_a(data: ResponseData, state: ModelState, hyper: Hyperparameters,
             j: int) -> np.ndarray:
    """One proximal gradient step for a_j; state is not modified."""
    return eng.a_block(*_row_args(data, state, hyper, "a", [j]), hyper.lam)[0][0]


def update_d(data: ResponseData, state: ModelState, hyper: Hyperparameters,
             j: int) -> np.ndarray:
    """One reparameterized gradient step for d_j; state is not modified."""
    out = eng.d_block(*_row_args(data, state, hyper, "d", [j]))[0]
    return out[0, : state.intercepts[j].size]
