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

The first trace entry's pass, over the item phase's blocks, is the only
evaluation of every cell; after it, cells are evaluated only inside line
searches.  Each phase's head reads the cells (cu, cl) that the previous
phase's line searches accepted, kept in one item-major (J x N) pair per
fit, of which each block reads and writes its own part.  No head
re-evaluates a cell.

Respondent and item updates inside a phase are independent, so they run
over contiguous blocks of rows.  A block holds at most about BLOCK_CELLS
cells, so no array of the loop is larger than a block: each block gathers
its own cells' brackets from the J x (Dmax + 4) table of e^{-d} built once
per iteration.  Each fit keeps one set of arrays (_FitArrays: rows, steps,
item log-likelihoods, cells and bracket table), and each block reads its
rows and writes its results back in place; each phase's task builds a' or
theta' once from the rows that phase does not write.  A fit of more than
FORK_CELLS cells in the main process forks min(threads, usable CPUs) worker
processes when that is two or more (sparsegrm._pool; a fit run as a pool
task forks none), the arrays live in shared mappings, the block count is
rounded up to a multiple of the workers, and each phase hands every worker
one contiguous share of its blocks; between phases the parent refreshes the
bracket table and sums the objective.  Otherwise the blocks run in this
process, in order.  The block arithmetic is written so the result is
bit-identical for any thread count, worker count and block bound.
"""

from __future__ import annotations

import time
# ThreadPoolExecutor is unused here; perfbench's tracer patches this name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace

import numpy as np

from . import _engine as eng
from . import _pool
from .data import ResponseData, check_counts
from .model import (LOADING_RANGE, Hyperparameters, ModelState,
                    draw_intercepts, draw_theta)

# cells per update block: a block's float64 temporaries stay at 256 KiB or
# less, so the allocator reuses them instead of returning them to the system
# and faulting them in again; smaller blocks lose to per-call overhead
BLOCK_CELLS = 2 ** 15
# a fit of at most this many cells (N x J) runs its blocks in this process
# whatever threads says: below about one block's cells, forking and feeding
# worker processes costs more than a second core gains
FORK_CELLS = BLOCK_CELLS


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
        Block workers of a fit in the main process: min(threads, usable
        CPUs) forked worker processes update a phase's blocks (in this
        process below two, or for a fit of at most FORK_CELLS cells).  A fit
        run as a CV fold or multistart task on a pool worker forks none
        (sparsegrm._pool).  Results do not depend on it.
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
        check_counts(self, max_outer_iters=1, threads=1, seed=0, n_starts=1)
        # a chained comparison with nan is False, so this also rejects nan
        if not 0.0 < self.obj_tol < np.inf:
            raise ValueError(f"obj_tol must be finite and positive, got {self.obj_tol}")


@dataclass
class FitResult:
    """Fitted state plus the optimization record: hyper is what fit was
    called with, and n_iters counts the trace entries after the first."""

    state: ModelState
    objective_trace: np.ndarray
    hyper: Hyperparameters
    converged: bool
    elapsed_seconds: float

    @property
    def n_iters(self) -> int:
        return len(self.objective_trace) - 1


def soft_threshold(z, t):
    """Elementwise L1 proximal operator sign(z) * max(|z| - t, 0)."""
    if not 0.0 <= t < np.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {t}")
    return eng.soft_threshold(np.asarray(z, dtype=np.float64), t)


def objective_value(data: ResponseData, state: ModelState,
                    hyper: Hyperparameters) -> float:
    """Objective as computed inside fit (identical code path to the trace)."""
    f = _FitArrays(data, state, hyper)
    return eng.full_objective(f.loadings, f.d_pad, f.valid, f.theta, f.idx_t, hyper,
                              _blocks(*f.idx_t.shape, 1))


def log_likelihood_value(data: ResponseData, state: ModelState) -> float:
    """Log-likelihood of the observed cells, by the kernel fit uses.

    Equals model.log_likelihood up to floating-point addition order.
    """
    f = _FitArrays(data, state)
    return float(np.sum(eng.item_loglik(f.loadings, f.d_pad, f.valid, f.theta, f.idx_t,
                                        _blocks(*f.idx_t.shape, 1))))


def _blocks(rows: int, width: int, workers: int):
    """ceil(rows * width / BLOCK_CELLS) contiguous row slices, rounded up to a
    multiple of workers and at most one per row, whose sizes differ by at
    most one row."""
    n = min(rows, workers * -(-rows * width // (BLOCK_CELLS * workers)))
    return [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(rows), n)]


def random_init(data: ResponseData, hyper: Hyperparameters,
                seed: int) -> ModelState:
    """Draw a starting state as simulate.gen_true_params draws the truth.

    The same draws in the same order, except that every loading gets a
    random sign where the truth masks by its structure.
    """
    rng = np.random.default_rng(seed)
    theta = draw_theta(rng, data.n_respondents, hyper.sigma_theta)
    shape = (data.n_items, hyper.n_factors)
    mags = rng.uniform(*LOADING_RANGE, size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    intercepts = [draw_intercepts(rng, int(c)) for c in data.categories]
    return ModelState(theta=theta, loadings=mags * signs, intercepts=intercepts)


class _FitArrays:
    """The engine-facing form of a data set and a state: the data set's
    layout and the arrays of one fit, which every block reads and writes in
    place.

    valid (J x Dmax) marks the real columns of the zero-padded intercepts
    d_pad: item j has C_j - 1 of them.  yt holds the item-major categories,
    with the engine's category for an unobserved cell where data.mask is
    False (_engine.item_categories), so no phase reads the mask.  idx_t
    holds each cell's item-major flat index j * (Dmax + 4) + y into the
    J x (Dmax + 4) bracket table (_engine.cell_index), and idx its
    respondent-major transpose, which the theta phase reads.  theta and
    loadings are C-ordered copies, so a fit never writes its start.  The
    item-major cells cu_t, cl_t are allocated here and filled by a start
    pass (fit's full_objective).

    Raises unless state fits data (and hyper's factor count, when given).
    Built before a fit's workers fork: with shared, the arrays that change
    during the fit live in anonymous shared mappings (_pool.shared_array);
    the layout and hyper are read only, so each worker's inherited copy
    serves.
    """

    def __init__(self, data: ResponseData, state: ModelState,
                 hyper: Hyperparameters | None = None, shared: bool = False):
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
        state.check_categories(data.categories)
        share = _pool.shared_array if shared else (lambda a: a)
        nt = data.categories - 1
        dmax = int(nt.max())
        self.valid = np.arange(dmax)[None, :] < nt[:, None]
        self.yt = eng.item_categories(data.responses, data.mask, dmax)
        self.idx_t = eng.cell_index(self.yt, dmax)
        self.idx = np.ascontiguousarray(self.idx_t.T)
        self.hyper = hyper
        self.theta = share(np.array(state.theta, dtype=np.float64, order="C"))
        self.loadings = share(np.array(state.loadings, dtype=np.float64, order="C"))
        self.d_pad = share(eng.pad_intercepts(state.intercepts))
        self.cu_t, self.cl_t = (share(np.empty(self.idx_t.shape)) for _ in range(2))
        # the bracket table of the current intercepts
        self.table = share(eng.bracket_table(self.d_pad, self.valid))
        # each respondent's and item's last accepted steps start their next
        # searches; rows are independent, so blocking cannot change a bit
        n, j = self.idx.shape
        self.theta_step, self.a_step, self.d_step = (
            share(np.full(rows, eng.GAMMA0)) for rows in (n, j, j))
        self.ll_items = share(np.zeros(j))


# the fit arrays of a block worker process, bound once by _bind when the
# fit's pool forks it; a fit without workers hands its arrays to the tasks
_ARRAYS: _FitArrays | None = None


def _bind(arrays: _FitArrays) -> None:
    global _ARRAYS
    _ARRAYS = arrays


def _theta_args(f: _FitArrays, rows, a_t) -> tuple:
    """theta_block's arrays for the respondents rows against a' a_t: their
    theta rows, a_t, their brackets and C-contiguous copies of their columns
    of the cells (a row sum over a transposed view adds in another order)."""
    return (f.theta[rows], a_t, *eng.take_brackets(f.table, f.idx[rows]),
            *(np.ascontiguousarray(c[:, rows].T) for c in (f.cu_t, f.cl_t)))


def _item_args(f: _FitArrays, items, th_t) -> tuple:
    """a_block's arrays for the items against theta' th_t, then d_block's
    after the loadings and theta'.  Both take the items' rows of f's cells
    (views, for a fit's block slices), which their line searches write."""
    cu, cl = f.cu_t[items], f.cl_t[items]
    return ((f.loadings[items], th_t, *eng.take_brackets(f.table, f.idx_t[items]), cu, cl),
            (f.d_pad[items], f.valid[items], f.yt[items], cu, cl))


def _theta_blocks(f: _FitArrays, blocks) -> None:
    """Update the respondent rows of each block of blocks, in place, and
    write back their cells."""
    a_t = np.ascontiguousarray(f.loadings.T)
    for rows in blocks:
        *args, cu, cl = _theta_args(f, rows, a_t)
        f.theta[rows], f.theta_step[rows] = eng.theta_block(
            *args, cu, cl, f.hyper.sigma_theta_inv, f.theta_step[rows])
        f.cu_t[:, rows], f.cl_t[:, rows] = cu.T, cl.T


def _item_blocks(f: _FitArrays, blocks) -> None:
    """Update the loading, then the intercept rows of each block of blocks, in
    place; the line searches write the block's rows of the cells directly."""
    th_t = np.ascontiguousarray(f.theta.T)
    for items in blocks:
        a_args, d_args = _item_args(f, items, th_t)
        a_new, f.a_step[items] = eng.a_block(*a_args, f.hyper.lam, f.a_step[items])
        f.loadings[items] = a_new
        f.d_pad[items], f.d_step[items], f.ll_items[items] = eng.d_block(
            a_new, th_t, *d_args, f.hyper.sigma_d_sq, f.d_step[items])


def _bound(task, blocks) -> None:
    """task on a worker process's own fit arrays."""
    task(_ARRAYS, blocks)


def _phase(pool, task, f: _FitArrays, shares) -> None:
    """task(f, share) for every share of a phase's blocks: one pool task per
    share, or in this process when there is no pool or only one share."""
    if pool is None or len(shares) < 2:
        for blocks in shares:
            task(f, blocks)
    else:
        _pool.run_tasks(pool, _bound, [(task, blocks) for blocks in shares])


def _shares(blocks, n: int):
    """blocks cut into min(n, len(blocks)) contiguous runs of near-equal length."""
    cuts = np.array_split(np.arange(len(blocks)), min(n, len(blocks)))
    return [blocks[c[0]:c[-1] + 1] for c in cuts]


def fit(data: ResponseData, hyper: Hyperparameters, cfg: FitConfig,
        init: ModelState | None = None) -> FitResult:
    """Run the alternating updates until the objective change is small.

    Within one outer iteration every theta row is updated against the
    current loadings/intercepts, then every item is updated against the
    new thetas.  The returned trace is non-decreasing up to roundoff, and
    the result's hyper is the hyper passed in.
    """
    t0 = time.perf_counter()
    if init is None:
        init = random_init(data, hyper, cfg.seed)
    workers = _pool.pool_workers(cfg.threads) if data.responses.size > FORK_CELLS else 0
    f = _FitArrays(data, init, hyper, shared=workers > 0)
    n = max(workers, 1)
    row_blocks, item_blocks = (_blocks(*shape, n) for shape in (f.idx.shape, f.idx_t.shape))

    # f.cu_t, f.cl_t: the item-major cells at the current iterate
    trace = [eng.full_objective(f.loadings, f.d_pad, f.valid, f.theta, f.idx_t, hyper,
                                item_blocks, (f.cu_t, f.cl_t))]
    if not np.isfinite(trace[0]):
        raise ValueError("objective is not finite at the starting state")
    row_shares, item_shares = _shares(row_blocks, n), _shares(item_blocks, n)

    with _pool.task_pool(workers, _bind, (f,)) as pool:
        for _ in range(cfg.max_outer_iters):
            f.table[...] = eng.bracket_table(f.d_pad, f.valid)
            _phase(pool, _theta_blocks, f, row_shares)
            _phase(pool, _item_blocks, f, item_shares)
            obj = eng.objective(f.ll_items, f.loadings, f.d_pad, f.valid, f.theta, hyper)
            if not np.isfinite(obj):
                raise ValueError("objective became non-finite during fitting")
            trace.append(obj)
            if abs(trace[-1] - trace[-2]) < cfg.obj_tol:
                break

    # a result in a shared mapping would be written by any later fork that
    # writes it, so it leaves the fit as a private copy
    own = np.array if workers else (lambda a: a)
    state = ModelState(
        theta=own(f.theta),
        loadings=own(f.loadings),
        intercepts=eng.unpad_intercepts(f.d_pad, f.valid),
    )
    return FitResult(
        state=state,
        objective_trace=np.asarray(trace),
        hyper=hyper,
        converged=abs(trace[-1] - trace[-2]) < cfg.obj_tol,
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
    with _pool.shared_pool(pool, cfg.n_starts) as pool:
        results = _pool.run_tasks(pool, _start,
                                  [(data, hyper, cfg, s) for s in range(cfg.n_starts)])
    return max(results, key=lambda result: result.objective_trace[-1])


def _row_args(data: ResponseData, state: ModelState,
              hyper: Hyperparameters | None, phase: str, rows) -> tuple:
    """Engine arguments for the respondents or items of the index array rows.

    phase "theta" gives theta_block's arguments up to sinv; "a" gives
    a_block's before lam (hyper may be None); "d" gives d_block's up to
    sigma_d_sq.  The arrays among them are the ones a fit's block at these
    rows gets (_theta_args, _item_args), after fit's start pass without the
    priors (item_loglik) has filled the cells, which the gradient heads read.
    """
    f = _FitArrays(data, state, hyper)
    eng.item_loglik(f.loadings, f.d_pad, f.valid, f.theta, f.idx_t,
                    _blocks(*f.idx_t.shape, 1), (f.cu_t, f.cl_t))
    if phase == "theta":
        return (*_theta_args(f, rows, np.ascontiguousarray(f.loadings.T)),
                hyper.sigma_theta_inv)
    a_args, d_args = _item_args(f, rows, np.ascontiguousarray(f.theta.T))
    return a_args if phase == "a" else (*a_args[:2], *d_args, hyper.sigma_d_sq)


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
