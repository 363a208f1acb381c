"""Alternating block-maximization of the penalized objective.

Each outer iteration updates every factor-score row by a line-searched
gradient step, then every item's loading row by a line-searched proximal
gradient step (soft thresholding gives exact zeros) followed by an
intercept step in the order-preserving reparameterized space.  Iteration
stops when the objective change drops below ``obj_tol``.

Respondent and item updates inside a phase are independent, so they run
over contiguous blocks, one per thread.  The block arithmetic is written
so the result is bit-identical for any thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _engine as eng
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
    seed : int
        Seed for random initialization.
    n_starts : int
        Independent starts for fit_multistart (seeds seed, seed+1, ...).
    loading_zero_threshold : float
        |loading| cutoff used when reporting recovered structure.
    """

    max_outer_iters: int = 1000
    obj_tol: float = 5.0
    threads: int = 1
    seed: int = 0
    n_starts: int = 1
    loading_zero_threshold: float = 0.01

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        if self.obj_tol <= 0:
            raise ValueError("obj_tol must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")
        if self.loading_zero_threshold < 0:
            raise ValueError("loading_zero_threshold must be nonnegative")


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

    Both orientations of the response/mask arrays are kept contiguous:
    respondent-major for the theta phase, item-major for the item phase.
    """

    def __init__(self, data: ResponseData):
        self.y = data.responses
        self.mask_f = data.mask.astype(np.float64)
        self.nt = data.categories - 1
        self.d_max = int(self.nt.max())
        self.y_is_min = self.y == 0
        self.y_is_max = self.y == self.nt[None, :]
        self.yt = np.ascontiguousarray(self.y.T)
        self.mask_f_t = np.ascontiguousarray(self.mask_f.T)
        self.y_is_min_t = np.ascontiguousarray(self.y_is_min.T)
        self.y_is_max_t = np.ascontiguousarray(self.y_is_max.T)
        self.idx_u_t = np.clip(self.yt - 1, 0, self.d_max - 1)
        self.idx_l_t = np.clip(self.yt, 0, self.d_max - 1)

    def item_cells(self):
        """Item-major (y_is_min, y_is_max, mask, idx_u, idx_l) for a full pass."""
        return (self.y_is_min_t, self.y_is_max_t, self.mask_f_t, self.idx_u_t,
                self.idx_l_t)

    def gather_intercepts(self, d_pad):
        """Per-cell upper/lower intercepts in both orientations."""
        du_t = np.take_along_axis(d_pad, self.idx_u_t, axis=1)
        dl_t = np.take_along_axis(d_pad, self.idx_l_t, axis=1)
        du = np.ascontiguousarray(du_t.T)
        dl = np.ascontiguousarray(dl_t.T)
        return du, dl, du_t, dl_t


def _check_state_shapes(data: ResponseData, state: ModelState,
                        hyper: Hyperparameters) -> None:
    if state.n_respondents != data.n_respondents:
        raise ValueError(
            f"state has {state.n_respondents} respondents, data has "
            f"{data.n_respondents}"
        )
    if state.n_items != data.n_items:
        raise ValueError(
            f"state has {state.n_items} items, data has {data.n_items}"
        )
    if state.n_factors != hyper.n_factors:
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


def objective_value(data: ResponseData, state: ModelState,
                    hyper: Hyperparameters) -> float:
    """Objective as computed inside fit (identical code path to the trace)."""
    _check_state_shapes(data, state, hyper)
    ws = _Workspace(data)
    d_pad, nt = eng.pad_intercepts(state.intercepts)
    th_t = np.ascontiguousarray(state.theta.T)
    return eng.full_objective(
        state.loadings, d_pad, nt, th_t, *ws.item_cells(), hyper.sigma_theta_inv,
        hyper.log_det_sigma_theta, hyper.lam, hyper.sigma_d_sq,
    )


def log_likelihood_value(data: ResponseData, state: ModelState) -> float:
    """Log-likelihood of the observed cells, by the kernel fit uses.

    Equals model.log_likelihood up to floating-point addition order.
    """
    ws = _Workspace(data)
    d_pad, _ = eng.pad_intercepts(state.intercepts)
    return eng.log_likelihood(state.loadings, d_pad,
                              np.ascontiguousarray(state.theta.T), *ws.item_cells())


def _blocks(n: int, threads: int):
    return [b for b in np.array_split(np.arange(n), threads) if b.size > 0]


def _run_blocks(worker, blocks, threads):
    if threads == 1 or len(blocks) == 1:
        return [worker(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(worker, blocks))


def _theta_phase(theta, ws: _Workspace, a_t, du, dl, sinv, threads):
    out = np.empty_like(theta)

    def worker(rows):
        return eng.theta_block(
            theta[rows], a_t, du[rows], dl[rows], ws.y_is_min[rows],
            ws.y_is_max[rows], ws.mask_f[rows], sinv,
        )

    blocks = _blocks(theta.shape[0], threads)
    for rows, res in zip(blocks, _run_blocks(worker, blocks, threads)):
        out[rows] = res
    return out


def _item_phase(loadings, d_pad, ws: _Workspace, th_t, du_t, dl_t, lam,
                sigma_d_sq, threads):
    a_out = np.empty_like(loadings)
    d_out = np.empty_like(d_pad)

    def worker(items):
        a_new = eng.a_block(
            loadings[items], th_t, du_t[items], dl_t[items],
            ws.y_is_min_t[items], ws.y_is_max_t[items], ws.mask_f_t[items],
            lam,
        )
        d_new = eng.d_block(
            a_new, th_t, d_pad[items], ws.nt[items], ws.yt[items],
            ws.y_is_min_t[items], ws.y_is_max_t[items], ws.mask_f_t[items],
            ws.idx_u_t[items], ws.idx_l_t[items], sigma_d_sq,
        )
        return a_new, d_new

    blocks = _blocks(loadings.shape[0], threads)
    for items, (a_new, d_new) in zip(blocks, _run_blocks(worker, blocks, threads)):
        a_out[items] = a_new
        d_out[items] = d_new
    return a_out, d_out


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
    _check_state_shapes(data, init, hyper)

    ws = _Workspace(data)
    sinv = hyper.sigma_theta_inv
    theta = init.theta.copy()
    loadings = init.loadings.copy()
    d_pad, nt = eng.pad_intercepts(init.intercepts)

    def current_objective(th_t):
        return eng.full_objective(
            loadings, d_pad, nt, th_t, *ws.item_cells(), sinv,
            hyper.log_det_sigma_theta, hyper.lam, hyper.sigma_d_sq,
        )

    trace = [current_objective(np.ascontiguousarray(theta.T))]
    if not np.isfinite(trace[0]):
        raise ValueError("objective is not finite at the starting state")

    converged = False
    n_iters = 0
    for _ in range(cfg.max_outer_iters):
        du, dl, du_t, dl_t = ws.gather_intercepts(d_pad)
        a_t = np.ascontiguousarray(loadings.T)
        theta = _theta_phase(theta, ws, a_t, du, dl, sinv, cfg.threads)
        th_t = np.ascontiguousarray(theta.T)
        loadings, d_pad = _item_phase(
            loadings, d_pad, ws, th_t, du_t, dl_t, hyper.lam,
            hyper.sigma_d_sq, cfg.threads,
        )
        obj = current_objective(th_t)
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
        intercepts=eng.unpad_intercepts(d_pad, nt),
    )
    return FitResult(
        state=state,
        objective_trace=np.asarray(trace),
        n_iters=n_iters,
        converged=converged,
        elapsed_seconds=time.perf_counter() - t0,
    )


def fit_multistart(data: ResponseData, hyper: Hyperparameters,
                   cfg: FitConfig) -> FitResult:
    """Run fit from n_starts random initializations; keep the best objective."""
    best = None
    for s in range(cfg.n_starts):
        result = fit(data, hyper, replace(cfg, seed=cfg.seed + s, n_starts=1))
        if best is None or result.objective_trace[-1] > best.objective_trace[-1]:
            best = result
    return best


# The single-index updates keep their cfg argument for callers; the line
# search runs on the engine's constants.
def update_theta(data: ResponseData, state: ModelState, hyper: Hyperparameters,
                 cfg: FitConfig, i: int) -> np.ndarray:
    """One line-searched gradient step for theta_i; state is not modified."""
    _check_state_shapes(data, state, hyper)
    ws = _Workspace(data)
    d_pad, _ = eng.pad_intercepts(state.intercepts)
    du, dl, _, _ = ws.gather_intercepts(d_pad)
    a_t = np.ascontiguousarray(state.loadings.T)
    rows = np.array([i])
    out = eng.theta_block(
        state.theta[rows], a_t, du[rows], dl[rows], ws.y_is_min[rows],
        ws.y_is_max[rows], ws.mask_f[rows], hyper.sigma_theta_inv,
    )
    return out[0]


def update_a(data: ResponseData, state: ModelState, hyper: Hyperparameters,
             cfg: FitConfig, j: int) -> np.ndarray:
    """One proximal gradient step for a_j; state is not modified."""
    _check_state_shapes(data, state, hyper)
    ws = _Workspace(data)
    d_pad, _ = eng.pad_intercepts(state.intercepts)
    _, _, du_t, dl_t = ws.gather_intercepts(d_pad)
    th_t = np.ascontiguousarray(state.theta.T)
    items = np.array([j])
    out = eng.a_block(
        state.loadings[items], th_t, du_t[items], dl_t[items],
        ws.y_is_min_t[items], ws.y_is_max_t[items], ws.mask_f_t[items],
        hyper.lam,
    )
    return out[0]


def update_d(data: ResponseData, state: ModelState, hyper: Hyperparameters,
             cfg: FitConfig, j: int) -> np.ndarray:
    """One reparameterized gradient step for d_j; state is not modified."""
    _check_state_shapes(data, state, hyper)
    ws = _Workspace(data)
    d_pad, nt = eng.pad_intercepts(state.intercepts)
    th_t = np.ascontiguousarray(state.theta.T)
    items = np.array([j])
    out = eng.d_block(
        state.loadings[items], th_t, d_pad[items], nt[items], ws.yt[items],
        ws.y_is_min_t[items], ws.y_is_max_t[items], ws.mask_f_t[items],
        ws.idx_u_t[items], ws.idx_l_t[items], hyper.sigma_d_sq,
    )
    return out[0, : state.intercepts[j].size]
