import multiprocessing
import os
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.special import expit

from sparsegrm import _engine as eng
from sparsegrm import _pool, optimizer
from sparsegrm.data import ResponseData
from sparsegrm.gradients import grad_a_loglik, grad_d, grad_delta, grad_theta
from sparsegrm.model import Hyperparameters, ModelState, objective
from sparsegrm.optimizer import (FitConfig, _row_args, fit, fit_multistart,
                                 log_likelihood_value, objective_value,
                                 random_init, soft_threshold, update_a,
                                 update_d, update_theta)
from sparsegrm.simulate import SimDesign, gen_true_params, sample_responses


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fit's process pool needs the fork start method")


@pytest.fixture
def fork_any_fit(monkeypatch):
    """Fits of any cell count fork their workers, as fits above FORK_CELLS do."""
    monkeypatch.setattr(optimizer, "FORK_CELLS", 0)


def sim_small(seed=0, n=40, j=8, k=2, c=3, missing=0.0):
    props = (0.5, 0.5, 0.0) if k == 2 else (0.6, 0.2, 0.2)
    design = SimDesign(n_respondents=n, n_items=j, n_factors=k,
                       n_categories=c, rho=0.2, seed=seed,
                       q_proportions=props)
    truth, _ = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=seed + 1)
    if missing > 0:
        rng = np.random.default_rng(seed + 2)
        mask = rng.random((n, j)) > missing
        data = ResponseData(responses=np.where(mask, data.responses, 0),
                            mask=mask, categories=list(data.categories))
    hyper = Hyperparameters(sigma_theta=np.eye(k), lam=2.0)
    return data, hyper


def grid_min(z, t, step=1e-4, span=5.0):
    grid = np.arange(-span, span + step, step)
    vals = 0.5 * (grid - z) ** 2 + t * np.abs(grid)
    return grid[np.argmin(vals)]


def test_soft_threshold_matches_grid_search():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 2))
        assert abs(soft_threshold(z, t) - grid_min(z, t)) < 2e-4


def test_soft_threshold_known_values():
    assert soft_threshold(2.0, 0.5) == 1.5
    assert soft_threshold(-2.0, 0.5) == -1.5
    assert soft_threshold(0.3, 0.5) == 0.0
    assert soft_threshold(-0.3, 0.5) == 0.0
    np.testing.assert_array_equal(soft_threshold(np.array([1.0, -1.0]), 1.0),
                                  np.zeros(2))


def test_soft_threshold_rejects_negative_threshold():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_soft_threshold_rejects_a_non_finite_threshold(t):
    # nan < 0 is False, so a sign check alone returned nan
    with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
        soft_threshold(1.0, t)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(obj_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(threads=0)
    with pytest.raises(ValueError):
        FitConfig(n_starts=0)
    with pytest.raises(ValueError, match="max_outer_iters must be at least 1, got 0"):
        FitConfig(max_outer_iters=0)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        FitConfig(seed=-1)
    # float counts used to pass here and fail inside fit with a TypeError
    # (or, for threads, run); a numpy integer is an integer
    for field, value in [("max_outer_iters", 3.0), ("n_starts", 2.0), ("seed", 1.5),
                         ("threads", 2.5)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            FitConfig(**{field: value})
    assert FitConfig(threads=np.int64(2), seed=np.uint64(7)).threads == 2
    # nan <= 0 is False, so a sign check alone let nan run every fit to
    # max_outer_iters, and inf stopped every fit after one iteration
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="obj_tol must be finite and positive"):
            FitConfig(obj_tol=value)


def test_fit_trace_monotone_and_converged():
    data, hyper = sim_small(seed=3)
    cfg = FitConfig(obj_tol=1e-2, seed=1)
    result = fit(data, hyper, cfg)
    trace = result.objective_trace
    assert result.converged
    assert np.all(np.diff(trace) >= -1e-8)
    assert result.n_iters == trace.size - 1
    assert abs(trace[-1] - trace[-2]) < 1e-2
    assert result.hyper is hyper


def test_fit_trace_head_is_initial_objective():
    data, hyper = sim_small(seed=4)
    cfg = FitConfig(seed=2, max_outer_iters=3, obj_tol=1e-8)
    init = random_init(data, hyper, seed=7)
    result = fit(data, hyper, cfg, init=init)
    assert result.objective_trace[0] == objective_value(data, init, hyper)


def test_objective_value_equals_trace_exactly():
    data, hyper = sim_small(seed=5)
    cfg = FitConfig(obj_tol=1e-2, seed=0)
    result = fit(data, hyper, cfg)
    assert objective_value(data, result.state, hyper) == result.objective_trace[-1]


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_every_trace_entry_equals_objective_value(threads):
    # entries after the first are summed from the intercept step's accepted
    # row log-likelihoods, not from a separate pass over the cells
    data, hyper, _ = sim_ragged(2, (0.5, 0.5, 0.0))
    init = random_init(data, hyper, seed=5)
    cfg = FitConfig(max_outer_iters=6, obj_tol=1e-12, threads=threads)
    trace = fit(data, hyper, cfg, init=init).objective_trace
    assert trace.size == cfg.max_outer_iters + 1
    assert trace[0] == objective_value(data, init, hyper)
    for t in range(1, cfg.max_outer_iters + 1):
        state = fit(data, hyper, replace(cfg, max_outer_iters=t), init=init).state
        assert trace[t] == objective_value(data, state, hyper)


def test_objective_value_matches_reference_sum():
    data, hyper = sim_small(seed=6, missing=0.2)
    state = random_init(data, hyper, seed=3)
    fast = objective_value(data, state, hyper)
    slow = objective(data, state, hyper)
    assert fast == pytest.approx(slow, rel=1e-10, abs=1e-7)


def test_fit_max_iters_cap():
    data, hyper = sim_small(seed=7)
    cfg = FitConfig(max_outer_iters=2, obj_tol=1e-12, seed=0)
    result = fit(data, hyper, cfg)
    assert not result.converged
    assert result.n_iters == 2


def test_fit_intercepts_strictly_decreasing():
    data, hyper = sim_small(seed=8, c=4)
    result = fit(data, hyper, FitConfig(obj_tol=1e-2, seed=0))
    for d_j in result.state.intercepts:
        assert np.all(np.diff(d_j) < 0)


def test_fit_rejects_shape_mismatch():
    data, hyper = sim_small(seed=9)
    init = random_init(data, hyper, seed=0)
    bad = Hyperparameters(sigma_theta=np.eye(3), lam=1.0)
    with pytest.raises(ValueError):
        fit(data, bad, FitConfig(seed=0), init=init)
    fewer_items = ModelState(theta=init.theta, loadings=init.loadings[1:],
                             intercepts=init.intercepts[1:])
    with pytest.raises(ValueError, match="state has 7 items, data has 8"):
        fit(data, hyper, FitConfig(seed=0), init=fewer_items)
    data4, hyper4 = sim_small(seed=9, c=4)
    init4 = random_init(data4, hyper4, seed=0)
    short = ModelState(theta=init4.theta, loadings=init4.loadings,
                       intercepts=[np.array([0.5, -0.5]), *init4.intercepts[1:]])
    with pytest.raises(ValueError, match="item 0: 2 intercepts for 4 categories"):
        fit(data4, hyper4, FitConfig(seed=0), init=short)
    # finite but huge: every cell's predictor overflows, so the objective is
    # not finite (the overflow warns first, hence the errstate)
    huge = ModelState(theta=np.full_like(init.theta, 1e200),
                      loadings=np.full_like(init.loadings, 1e200),
                      intercepts=init.intercepts)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="objective is not finite at the starting state"):
        fit(data, hyper, FitConfig(seed=0), init=huge)


def test_random_init_reproducible():
    data, hyper = sim_small(seed=10)
    a = random_init(data, hyper, seed=5)
    b = random_init(data, hyper, seed=5)
    c = random_init(data, hyper, seed=6)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.loadings, b.loadings)
    assert not np.array_equal(a.loadings, c.loadings)
    for d_j in a.intercepts:
        assert np.all(np.diff(d_j) < 0)


def test_fit_multistart_maximizes_over_starts():
    data, hyper = sim_small(seed=11)
    cfg = FitConfig(seed=0, n_starts=3, obj_tol=1e-1)
    best = fit_multistart(data, hyper, cfg)
    singles = [fit(data, hyper, FitConfig(seed=s, obj_tol=1e-1))
               for s in range(3)]
    finals = [r.objective_trace[-1] for r in singles]
    assert best.objective_trace[-1] == max(finals)


def test_fit_reproducible_for_fixed_seed():
    data, hyper = sim_small(seed=12)
    cfg = FitConfig(seed=4, obj_tol=1e-1)
    a = fit(data, hyper, cfg)
    b = fit(data, hyper, cfg)
    assert np.array_equal(a.state.theta, b.state.theta)
    assert np.array_equal(a.state.loadings, b.state.loadings)
    assert np.array_equal(a.objective_trace, b.objective_trace)


@pytest.mark.usefixtures("fork_any_fit")
def test_fit_thread_count_does_not_change_result():
    data, hyper = sim_small(seed=13)
    results = [fit(data, hyper, FitConfig(seed=0, obj_tol=1e-1, threads=t))
               for t in (1, 2, 4)]
    for other in results[1:]:
        assert np.array_equal(results[0].state.theta, other.state.theta)
        assert np.array_equal(results[0].state.loadings, other.state.loadings)
        assert np.array_equal(results[0].objective_trace,
                              other.objective_trace)
        for d_a, d_b in zip(results[0].state.intercepts,
                            other.state.intercepts):
            assert np.array_equal(d_a, d_b)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 3])
def test_cell_bounded_blocks_are_bit_identical(monkeypatch, threads):
    # every reduction runs along a row, so cutting the phases into many
    # blocks, the item phase into one item each, moves no bit; on 3 workers
    # the respondent blocks round up to a multiple of 3
    data, hyper, _ = sim_ragged(2, (0.5, 0.5, 0.0))
    cfg = FitConfig(seed=4, max_outer_iters=25, obj_tol=1e-3)
    assert len(optimizer._blocks(data.n_respondents, data.n_items, 1)) == 1
    whole = fit(data, hyper, cfg)
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 64)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 3)
    workers = max(_pool.pool_workers(threads), 1)
    rows, items = {1: (38, 20), 3: (39, 20)}[workers]
    assert len(optimizer._blocks(data.n_respondents, data.n_items, workers)) == rows
    assert len(optimizer._blocks(data.n_items, data.n_respondents, workers)) == items
    bounded = fit(data, hyper, replace(cfg, threads=threads))
    assert whole.n_iters > 5
    np.testing.assert_array_equal(bounded.objective_trace, whole.objective_trace)
    np.testing.assert_array_equal(bounded.state.theta, whole.state.theta)
    np.testing.assert_array_equal(bounded.state.loadings, whole.state.loadings)
    for d_bounded, d_whole in zip(bounded.state.intercepts, whole.state.intercepts):
        np.testing.assert_array_equal(d_bounded, d_whole)


@pytest.mark.parametrize("k,props", [(1, (1.0, 0.0, 0.0)), (3, (0.6, 0.2, 0.2)),
                                     (5, (0.6, 0.2, 0.2))])
def test_cells_are_bit_equal_across_orientations(monkeypatch, k, props):
    # fit hands the cells a respondent block's line search accepted to the
    # item phase's heads, and the item phase's to the next respondent heads;
    # outer_sum multiplies the same pairs in the same k order either way.
    # The respondent-major cells are evaluated here as the theta line search
    # evaluates them, the item-major ones by the start pass of _row_args
    data, hyper, _ = sim_ragged(k, props)
    init = random_init(data, hyper, seed=k)
    moved = fit(data, hyper, FitConfig(seed=k, max_outer_iters=2, obj_tol=1e-9),
                init=init).state
    for state in (init, moved):
        items = _row_args(data, state, hyper, "a", np.arange(data.n_items))[4:6]
        f = optimizer._FitArrays(data, state, hyper)
        a_t = np.ascontiguousarray(f.loadings.T)
        n_blocks = []
        for bound in (64, 700, 2 ** 15):
            monkeypatch.setattr(optimizer, "BLOCK_CELLS", bound)
            blocks = optimizer._blocks(data.n_respondents, data.n_items, 1)
            n_blocks.append(len(blocks))
            for rows in blocks:
                cells = eng.cell_loglik(eng.exp_neg(eng.outer_sum(f.theta[rows], a_t)),
                                        *eng.take_brackets(f.table, f.idx[rows]))[1:]
                for got, want in zip(cells, items):
                    np.testing.assert_array_equal(got.T, want[:, rows])
        assert n_blocks == [38, 4, 1]

    # at iteration 1 from init, every theta block gets each array _row_args
    # builds at init for its rows, and every loading block each array it
    # builds for its items at init with the theta rows the theta blocks
    # returned, bit for bit
    seen = {"theta_block": [], "a_block": []}

    def spy(name):
        block = getattr(eng, name)

        def run(*args):
            copies = [np.copy(arg) for arg in args]
            out = block(*args)
            seen[name].append((copies, out[0]))
            return out

        return run

    for name in seen:
        monkeypatch.setattr(eng, name, spy(name))
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 700)
    fit(data, hyper, FitConfig(max_outer_iters=1, obj_tol=1e-9), init=init)
    row_blocks = optimizer._blocks(data.n_respondents, data.n_items, 1)
    item_blocks = optimizer._blocks(data.n_items, data.n_respondents, 1)
    assert (len(seen["theta_block"]), len(seen["a_block"])) == (4, 4)
    mid = ModelState(theta=np.concatenate([out for _, out in seen["theta_block"]]),
                     loadings=init.loadings, intercepts=init.intercepts)
    for phase, state, blocks, calls in (("theta", init, row_blocks, seen["theta_block"]),
                                        ("a", mid, item_blocks, seen["a_block"])):
        for rows, (args, _) in zip(blocks, calls):
            want = _row_args(data, state, hyper, phase, np.arange(rows.start, rows.stop))
            assert len(want) == {"theta": 7, "a": 6}[phase]
            for got, arrays in zip(args, want):
                np.testing.assert_array_equal(got, arrays)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_hands_each_block_the_cells_at_its_rows(monkeypatch, threads):
    # a head reads the cells it is given; during a fit they must be the ones
    # a fresh evaluation at the block's rows gives, bit for bit
    data, hyper, _ = sim_ragged(3, (0.6, 0.2, 0.2))
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 500)
    # the blocks may run in the fit's worker processes, so they count their
    # checks in a shared mapping made before the workers fork
    checked = multiprocessing.Value("l", 0)

    def check(name, fresh, at):
        block = getattr(eng, name)

        def run(*args):
            for got, want in zip(args[at:at + 2], fresh(*args)):
                np.testing.assert_array_equal(got, want)
            with checked.get_lock():
                checked.value += 1
            return block(*args)

        monkeypatch.setattr(eng, name, run)

    def against(x, vt, eu, el, *_):
        return eng.cell_loglik(eng.exp_neg(eng.outer_sum(x, vt)), eu, el)[1:]

    def intercepts(a, th_t, d, valid, yt, *_):
        brackets = eng.take_brackets(eng.bracket_table(d, valid), eng.cell_index(yt, d.shape[1]))
        return eng.cell_loglik(eng.exp_neg(eng.outer_sum(a, th_t)), *brackets)[1:]

    check("theta_block", against, 4)
    check("a_block", against, 4)
    check("d_block", intercepts, 5)
    result = fit(data, hyper, FitConfig(seed=1, max_outer_iters=4, obj_tol=1e-9,
                                        threads=threads))
    # the fit's blocks: a multiple of its workers (none at threads=1)
    workers = max(_pool.pool_workers(threads), 1)
    rows = len(optimizer._blocks(data.n_respondents, data.n_items, workers))
    items = len(optimizer._blocks(data.n_items, data.n_respondents, workers))
    assert rows > 2 and items > 2
    assert rows % workers == items % workers == 0
    assert checked.value == result.n_iters * (rows + 2 * items)


@pytest.mark.usefixtures("fork_any_fit")
def test_threads_share_the_cells_without_losing_a_write(monkeypatch):
    # respondent blocks write their columns of the shared cells and item
    # blocks their rows, and every block its rows, steps and log-likelihoods,
    # from the fit's worker processes; with six workers, whatever the CPU
    # count, and blocks of a few cells, a lost or misplaced write would move
    # bits
    data, hyper, _ = sim_ragged(2, (0.5, 0.5, 0.0))
    cfg = FitConfig(seed=5, max_outer_iters=4, obj_tol=1e-9)
    serial = fit(data, hyper, cfg)
    monkeypatch.setattr(optimizer, "BLOCK_CELLS", 64)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 6)
    shared = fit(data, hyper, replace(cfg, threads=6))
    np.testing.assert_array_equal(shared.objective_trace, serial.objective_trace)
    np.testing.assert_array_equal(shared.state.theta, serial.state.theta)
    np.testing.assert_array_equal(shared.state.loadings, serial.state.loadings)
    for d_shared, d_serial in zip(shared.state.intercepts, serial.state.intercepts):
        np.testing.assert_array_equal(d_shared, d_serial)


def test_outer_iterations_evaluate_cells_only_in_line_searches(monkeypatch):
    # after the starting pass no head evaluates a cell: each reads the cells
    # the previous phase's line searches accepted
    data, hyper, _ = sim_ragged(2, (0.5, 0.5, 0.0))
    inside, calls = [0], []
    search, kernel = eng.line_search, eng.cell_loglik

    def counted_search(*args, **kwargs):
        inside[0] += 1
        try:
            return search(*args, **kwargs)
        finally:
            inside[0] -= 1

    def spied_kernel(*args):
        calls.append(inside[0] > 0)
        return kernel(*args)

    monkeypatch.setattr(eng, "line_search", counted_search)
    monkeypatch.setattr(eng, "cell_loglik", spied_kernel)
    result = fit(data, hyper, FitConfig(seed=0, max_outer_iters=3, obj_tol=1e-9))
    assert result.n_iters == 3
    # the starting pass, then at least one search evaluation per phase
    assert calls[0] is False
    assert all(calls[1:]) and len(calls) >= 1 + 3 * 3


def test_large_lambda_zeroes_all_loadings():
    data, _ = sim_small(seed=14)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=1e4)
    result = fit(data, hyper, FitConfig(seed=0, obj_tol=1e-1))
    assert np.all(result.state.loadings == 0.0)


def test_lambda_zero_fit_runs():
    data, _ = sim_small(seed=15)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    result = fit(data, hyper, FitConfig(seed=0, max_outer_iters=5,
                                        obj_tol=1e-6))
    assert np.all(np.diff(result.objective_trace) >= -1e-8)


def test_single_index_updates_do_not_decrease_objective():
    data, hyper = sim_small(seed=16, c=4)
    state = random_init(data, hyper, seed=1)
    base = objective_value(data, state, hyper)

    new_theta = update_theta(data, state, hyper, i=3)
    probe = state.copy()
    probe.theta[3] = new_theta
    assert objective_value(data, probe, hyper) >= base - 1e-8

    new_a = update_a(data, state, hyper, j=2)
    probe = state.copy()
    probe.loadings[2] = new_a
    assert objective_value(data, probe, hyper) >= base - 1e-8

    new_d = update_d(data, state, hyper, j=2)
    probe = state.copy()
    probe.intercepts[2] = new_d
    assert np.all(np.diff(new_d) < 0)
    assert objective_value(data, probe, hyper) >= base - 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_intercept_step_rejects_unusable_proposals(seed):
    # From intercepts (1e5, -1e5) most proposals underflow exp; at seed 1 an
    # accepted exp term also vanished against d_1 in rounding, tying d.
    design = SimDesign(n_respondents=2000, n_items=1, n_factors=1,
                       n_categories=3, rho=0.0, q_proportions=(1.0, 0.0, 0.0),
                       seed=seed)
    truth, _ = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=seed + 1)
    state = ModelState(theta=truth.theta, loadings=truth.loadings,
                       intercepts=[np.array([1e5, -1e5])])
    hyper = Hyperparameters(sigma_theta=np.eye(1), lam=0.0)
    new_d = update_d(data, state, hyper, 0)
    assert np.all(np.isfinite(new_d))
    assert np.all(np.diff(new_d) < 0)
    probe = state.copy()
    probe.intercepts[0] = new_d
    assert objective_value(data, probe, hyper) >= objective_value(data, state, hyper)


def d_block(data, state, hyper, step=None):
    """The engine's intercept step over every item, from per-item start steps.

    Returns the new padded intercepts and their accepted steps.
    """
    items = np.arange(data.n_items)
    return eng.d_block(*_row_args(data, state, hyper, "d", items), step)[:2]


def sim_ragged(k, props):
    """20 items with 2 to 7 categories, 20% of cells missing; (data, hyper, rng)."""
    design = SimDesign(n_respondents=120, n_items=20, n_factors=k, n_categories=7,
                       rho=0.2, q_proportions=props, seed=k)
    truth, _ = gen_true_params(design)
    full = sample_responses(truth, design.n_categories, seed=k + 1)
    categories = np.arange(20) % 6 + 2
    rng = np.random.default_rng(k + 2)
    mask = rng.random(full.responses.shape) > 0.2
    data = ResponseData(
        responses=np.where(mask, np.minimum(full.responses, categories - 1), 0),
        mask=mask, categories=categories)
    return data, Hyperparameters(sigma_theta=np.eye(k), lam=2.0), rng


RAGGED_CASES = [(1, (1.0, 0.0, 0.0)), (2, (0.5, 0.5, 0.0)), (3, (0.6, 0.2, 0.2))]


@pytest.mark.parametrize("k,props", RAGGED_CASES)
def test_intercept_warm_start_matches_cold_search(k, props):
    data, hyper, rng = sim_ragged(k, props)
    init = random_init(data, hyper, seed=k)
    moved = fit(data, hyper, FitConfig(seed=k, max_outer_iters=3, obj_tol=1e-9),
                init=init).state
    for state in (init, moved):
        cold, cold_steps = d_block(data, state, hyper)
        for _ in range(5):
            start = eng.GAMMA0 * eng.SHRINK ** rng.integers(0, eng.MAX_BACKTRACKS + 1,
                                                            size=data.n_items)
            warm, steps = d_block(data, state, hyper, start)
            np.testing.assert_array_equal(warm, cold)
            np.testing.assert_array_equal(steps, cold_steps)


@pytest.mark.parametrize("start", [eng.GAMMA0, 2.0 ** -10, eng.GAMMA_FLOOR])
def test_intercept_row_that_exhausts_the_grid_keeps_its_start(start):
    # A gap of 2e8 makes the delta-space gradient so large that even the
    # smallest step drives exp(delta_2) to 0 and ties the intercepts.
    data, hyper = sim_small(seed=18, c=3)
    state = random_init(data, hyper, seed=0)
    state.intercepts[1] = np.array([1e8, -1e8])
    d, steps = d_block(data, state, hyper, np.full(data.n_items, start))
    np.testing.assert_array_equal(d[1], state.intercepts[1])
    assert steps[1] == eng.GAMMA_FLOOR
    assert np.all(np.isfinite(d))


def a_block(data, state, hyper, step=None):
    """The engine's loading step over every item, from per-item start steps.

    Returns (rows, steps, ok, pending): ok(gamma) is the engine's own
    acceptance test for every item row at the per-row steps gamma, and
    pending marks the rows the line search was asked to move.
    """
    args = _row_args(data, state, hyper, "a", np.arange(data.n_items))
    with mock.patch.object(eng, "line_search", wraps=eng.line_search) as spy:
        rows, steps = eng.a_block(*args, hyper.lam, step)
    x0, ll0, _, _, penalty, loglik, propose, mapping_sq, pending, _ = spy.call_args.args
    idx = np.arange(data.n_items)

    def ok(gamma):
        cand = propose(idx, gamma)
        return loglik(idx, cand)[0] - penalty(cand) >= (
            ll0 - penalty(x0)
            + eng.SUFFICIENT_INCREASE * gamma * mapping_sq(idx, gamma, cand))

    return rows, steps, ok, pending


@pytest.mark.parametrize("k,props", RAGGED_CASES)
def test_loading_warm_start_matches_cold_search(k, props):
    data, hyper, rng = sim_ragged(k, props)
    init = random_init(data, hyper, seed=k)
    moved = fit(data, hyper, FitConfig(seed=k, max_outer_iters=3, obj_tol=1e-9),
                init=init).state
    grid = eng.GAMMA0 * eng.SHRINK ** np.arange(eng.MAX_BACKTRACKS + 1.0)
    for state in (init, moved):
        cold, cold_steps, ok, pending = a_block(data, state, hyper)
        # accepted[:, i]: grid step i accepted; closed downwards when every
        # accepted step's smaller neighbour is accepted too
        accepted = np.stack([ok(np.full(data.n_items, g)) for g in grid], axis=1)
        closed = pending & np.all(~accepted[:, :-1] | accepted[:, 1:], axis=1)
        assert closed.sum() >= data.n_items // 2
        for _ in range(5):
            start = grid[rng.integers(0, grid.size, size=data.n_items)]
            warm, steps, _, _ = a_block(data, state, hyper, start)
            np.testing.assert_array_equal(warm[closed], cold[closed])
            np.testing.assert_array_equal(steps[closed], cold_steps[closed])
            np.testing.assert_array_equal(warm[~pending], state.loadings[~pending])
            np.testing.assert_array_equal(steps[~pending], start[~pending])


@pytest.mark.parametrize("start", [eng.GAMMA0, 2.0 ** -10, eng.GAMMA_FLOOR])
def test_loading_row_that_exhausts_the_grid_keeps_its_start(start):
    # Against factor scores of order 1e5 a zero loading row's gradient is so
    # large that even the smallest step saturates every cell of the item.
    data, hyper = sim_small(seed=18, c=3)
    state = random_init(data, hyper, seed=0)
    state.theta *= 1e5
    state.loadings[1] = 0.0
    a, steps, _, pending = a_block(data, state, hyper, np.full(data.n_items, start))
    assert pending[1]
    np.testing.assert_array_equal(a[1], 0.0)
    assert steps[1] == eng.GAMMA_FLOOR
    assert np.all(np.isfinite(a))


def test_loading_row_near_a_kkt_point_does_not_exhaust_the_grid():
    # At a KKT point ||g||^2 >= lam^2 * nnz while the gain of every step goes
    # to 0, so a sufficient-increase test on the smooth gradient g rejects
    # the whole grid there; the gradient-mapping test still accepts steps up
    # to about the inverse curvature.  Each row runs its own cold search.
    design = SimDesign(n_respondents=100, n_items=10, n_factors=3, n_categories=4,
                       rho=0.1, seed=11)
    truth, _ = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=12)
    hyper = Hyperparameters(sigma_theta=np.eye(3), lam=5.0)
    state = fit(data, hyper, FitConfig(obj_tol=1e-3, seed=3)).state
    evals = []
    for j in range(data.n_items):
        one = ModelState(theta=state.theta, loadings=state.loadings[j:j + 1],
                         intercepts=[state.intercepts[j]])
        row = ResponseData(responses=data.responses[:, j:j + 1],
                           mask=data.mask[:, j:j + 1], categories=[data.categories[j]])
        with mock.patch.object(eng, "cell_loglik", wraps=eng.cell_loglik) as spy:
            _, steps, _, _ = a_block(row, one, hyper)
        evals.append(spy.call_count - 1)  # less _row_args' evaluation at the start
        assert steps[0] != eng.GAMMA_FLOOR
    assert max(evals) < eng.MAX_BACKTRACKS + 1
    assert np.mean(evals) <= 6


@pytest.mark.usefixtures("fork_any_fit")
@needs_fork
def test_fit_opens_one_process_pool(monkeypatch):
    # one pool per fit at threads=2 on two or more usable CPUs; none at
    # threads=1 or on one usable CPU
    data, hyper = sim_small(seed=19)
    cfg = FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-9)
    with mock.patch.object(_pool, "ProcessPoolExecutor",
                           wraps=_pool.ProcessPoolExecutor) as pool:
        for cpus in (2, 3):
            monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
            fit(data, hyper, replace(cfg, threads=2))
            assert pool.call_count == cpus - 1
            assert pool.call_args[0] == (2,)
        fit(data, hyper, cfg)
        assert pool.call_count == 2
        monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
        fit(data, hyper, replace(cfg, threads=2))
        assert pool.call_count == 2


@needs_fork
def test_fit_of_at_most_fork_cells_runs_in_process(monkeypatch):
    # a fit forks its workers only above FORK_CELLS cells (N x J); at or
    # below it, a fit at threads=2 on two CPUs runs here, one block per
    # phase as its cells ask whatever threads says, with the same bits
    data, hyper = sim_small(seed=19)
    assert data.n_respondents * data.n_items == 320 < optimizer.FORK_CELLS
    cfg = FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-9)
    serial = fit(data, hyper, cfg)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    with mock.patch.object(_pool, "ProcessPoolExecutor",
                           wraps=_pool.ProcessPoolExecutor) as pool:
        for bound, pools in ((optimizer.FORK_CELLS, 0), (320, 0), (319, 1)):
            monkeypatch.setattr(optimizer, "FORK_CELLS", bound)
            with mock.patch.object(eng, "theta_block", wraps=eng.theta_block) as blocks:
                result = fit(data, hyper, replace(cfg, threads=2))
            assert pool.call_count == pools
            # forked, the blocks run in the workers, where the spy sees none
            assert blocks.call_count == (0 if pools else result.n_iters)
            np.testing.assert_array_equal(result.objective_trace, serial.objective_trace)
            np.testing.assert_array_equal(result.state.theta, serial.state.theta)
            np.testing.assert_array_equal(result.state.loadings, serial.state.loadings)
            for d_result, d_serial in zip(result.state.intercepts, serial.state.intercepts):
                np.testing.assert_array_equal(d_result, d_serial)


def test_blocks_count_cells_and_round_up_to_a_multiple_of_the_workers():
    # the inventory shape (N=4000, J=70): 9 blocks of at most BLOCK_CELLS
    # cells per phase in process, and 10 on 2 workers, 5 for each
    for shape in ((4000, 70), (70, 4000)):
        assert len(optimizer._blocks(*shape, 1)) == 9
        shares = optimizer._shares(optimizer._blocks(*shape, 2), 2)
        assert [len(share) for share in shares] == [5, 5]
    assert len(optimizer._blocks(3, 40000, 2)) == 3  # at most one block per row


@pytest.mark.usefixtures("fork_any_fit")
def test_fit_on_one_usable_cpu_forks_nothing_and_equals_one_thread(monkeypatch):
    data, hyper, _ = sim_ragged(2, (0.5, 0.5, 0.0))
    cfg = FitConfig(seed=6, max_outer_iters=5, obj_tol=1e-9)
    serial = fit(data, hyper, cfg)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    with mock.patch.object(_pool, "ProcessPoolExecutor") as pool:
        inprocess = fit(data, hyper, replace(cfg, threads=2))
    pool.assert_not_called()
    np.testing.assert_array_equal(inprocess.objective_trace, serial.objective_trace)
    np.testing.assert_array_equal(inprocess.state.theta, serial.state.theta)
    np.testing.assert_array_equal(inprocess.state.loadings, serial.state.loadings)
    for d_in, d_serial in zip(inprocess.state.intercepts, serial.state.intercepts):
        np.testing.assert_array_equal(d_in, d_serial)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("k,order", [(1, "C"), (2, "F")])
def test_fit_never_writes_its_start(monkeypatch, threads, k, order):
    # at K=1, or from an F-ordered theta, theta' is contiguous as it stands;
    # the fit writes its own copy, so a second fit from the same start, and
    # a fit from the C-ordered start, give the same bits
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    data, hyper, _ = sim_ragged(k, (1.0, 0.0, 0.0) if k == 1 else (0.5, 0.5, 0.0))
    start = random_init(data, hyper, seed=7)
    init = ModelState(theta=np.asarray(start.theta, order=order),
                      loadings=np.asarray(start.loadings, order=order),
                      intercepts=start.intercepts)
    theta, loadings = init.theta.copy(), init.loadings.copy()
    cfg = FitConfig(max_outer_iters=4, obj_tol=1e-9, threads=threads)
    first, second = (fit(data, hyper, cfg, init=init) for _ in range(2))
    np.testing.assert_array_equal(init.theta, theta)
    np.testing.assert_array_equal(init.loadings, loadings)
    want = fit(data, hyper, replace(cfg, threads=1), init=start)
    for got in (first, second):
        np.testing.assert_array_equal(got.objective_trace, want.objective_trace)
        np.testing.assert_array_equal(got.state.theta, want.state.theta)
        np.testing.assert_array_equal(got.state.loadings, want.state.loadings)
        for d_got, d_want in zip(got.state.intercepts, want.state.intercepts):
            np.testing.assert_array_equal(d_got, d_want)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2])
def test_non_finite_objective_during_fitting_is_raised_by_the_parent(monkeypatch,
                                                                     threads):
    # the parent sums each iteration's objective, so a NaN there stops the
    # fit at iteration 1, whether or not the blocks ran on worker processes
    data, hyper = sim_small(seed=20)
    calls = []
    real = eng.objective

    def nan_after_start(*args):
        calls.append(os.getpid())
        value = real(*args)
        return value if len(calls) == 1 else np.nan

    monkeypatch.setattr(eng, "objective", nan_after_start)
    with pytest.raises(ValueError, match="^objective became non-finite during fitting$"):
        fit(data, hyper, FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-9,
                                   threads=threads))
    # the starting pass, then iteration 1, both in this process
    assert calls == [os.getpid()] * 2


def test_kernel_sigmoid_is_exact_at_infinite_intercepts_and_propagates_nan():
    # in exp form the brackets +inf and -inf are 0.0 and +inf; e^{-z} is
    # clipped finite and positive, so their products are exactly 0.0 and
    # +inf at any z, and the cells exactly 1.0 and 0.0
    table = eng.bracket_table(np.array([[0.0], [np.nan]]), np.array([[False], [True]]))
    np.testing.assert_array_equal(table[0], [0.0, np.inf, np.inf, 0.0, np.inf])
    assert np.isnan(table[1, 1])
    z = np.array([-np.inf, -1e300, -800.0, -3.0, 0.0, 2.5, 800.0, 1e300, np.inf, np.nan])
    ez = eng.exp_neg(z)
    assert np.all((ez[:-1] > 0.0) & np.isfinite(ez[:-1])) and np.isnan(ez[-1])
    cu, cl = eng.adjacent_cums(ez, np.full(z.size, table[0, 0]), np.full(z.size, table[0, 1]))
    np.testing.assert_array_equal(cu[:-1], 1.0)
    np.testing.assert_array_equal(cl[:-1], 0.0)
    assert np.isnan(cu[-1]) and np.isnan(cl[-1])
    # a NaN intercept's bracket is NaN, and so is its cell
    cu, cl = eng.adjacent_cums(np.ones(2), np.array([table[1, 1], 1.0]),
                               np.array([1.0, table[1, 1]]))
    assert np.isnan(cu[0]) and cu[1] == 0.5 and cl[0] == 0.5 and np.isnan(cl[1])


def test_kernel_sigmoid_agrees_with_expit():
    # at d = 0 (a bracket of exactly 1.0) the cells are the sigmoid of the
    # clipped z; past +-Z_CLIP they are the cells of +-Z_CLIP
    z = np.linspace(-745.0, 745.0, 298_001)
    one = np.ones_like(z)
    got = eng.adjacent_cums(eng.exp_neg(z), one, one)[0]
    want = expit(np.clip(z, -eng.Z_CLIP, eng.Z_CLIP))
    ulps = np.abs(got - want) / np.spacing(want)
    # numpy's exp is within about 1 ulp, and 1 / (1 + t) passes that on,
    # doubled at worst where the reciprocal lands in the lower binade;
    # where exp(-x) passes 2**53, 1 + exp(-x) rounds to an even integer
    assert ulps.max() <= 4.0
    assert ulps[np.abs(z + 36.9) > 1.0].max() <= 2.0


def test_kernel_sigmoid_is_within_4_ulp_of_an_extended_precision_oracle():
    # sigma(z + d) as 1 / (1 + e^{-z} e^{-d}) never rounds z + d, so it stays
    # within a few ulp of the exact sigmoid where z + d itself would not be
    # exact; the oracle is the long double sigmoid of the exact sum
    rng = np.random.default_rng(4)
    z = np.concatenate([np.linspace(-700.0, 700.0, 280_001),
                        rng.uniform(-700.0, 700.0, 200_000), rng.uniform(-60.0, 60.0, 200_000)])
    ez = eng.exp_neg(z)
    for d in (0.75, -3.2, 5.5, -0.001, 12.0):
        ed = eng.bracket_table(np.array([[d]]), np.ones((1, 1), dtype=bool))[0, 1]
        got = eng.adjacent_cums(ez, np.full(z.size, ed), np.zeros(z.size))[0]
        x = z.astype(np.longdouble) + np.longdouble(d)
        want = 1.0 / (1.0 + np.exp(-x))
        ulps = np.abs(got - want) / np.spacing(want.astype(np.float64))
        assert ulps.max() <= 4.0, d


def test_kernel_past_the_clip_gives_the_cells_of_the_clip():
    # a z beyond +-Z_CLIP gives exactly the cells of +-Z_CLIP; a finite d
    # whose e^{-d} overflows gives the bracket of -inf, and one whose e^{-d}
    # underflows the bracket of +inf
    d = np.array([[5.5, 0.75, -0.001, -3.2, -660.0, -709.0]])
    brackets = eng.bracket_table(d, np.ones(d.shape, dtype=bool))[0]
    eu, el = brackets[:, None], brackets[1:2, None]
    for edge, beyond in ((eng.Z_CLIP, [700.5, 709.9, 800.0, 1e300, np.inf]),
                         (-eng.Z_CLIP, [-700.5, -709.9, -800.0, -1e300, -np.inf])):
        want = eng.adjacent_cums(eng.exp_neg(np.array([edge])), eu, el)
        got = eng.adjacent_cums(eng.exp_neg(np.array(beyond)), eu, el)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, np.broadcast_to(w, g.shape))
    table = eng.bracket_table(np.array([[750.0, -710.0, -1e5]]), np.ones((1, 3), dtype=bool))
    # the brackets of +inf and -inf, from an item with no real intercept
    edges = eng.bracket_table(np.zeros((1, 1)), np.zeros((1, 1), dtype=bool))[0, :2]
    np.testing.assert_array_equal(table[0, 1:4], edges[[0, 1, 1]])
    ez = eng.exp_neg(np.array([-1e300, -700.0, -5.0, 0.0, 5.0, 700.0, 1e300]))
    for e, edge in zip(table[0, 1:4], edges[[0, 1, 1]]):
        np.testing.assert_array_equal(eng.adjacent_cums(ez, e, e),
                                      eng.adjacent_cums(ez, edge, edge))


def plain_exp_neg(z):
    """exp_neg without its clip: e^{-z} as numpy's exp gives it."""
    with np.errstate(over="ignore"):
        return np.exp(-z)


def plain_adjacent_cums(ez, eu, el):
    """adjacent_cums in plain expressions, without its in-place steps."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 1.0 / (1.0 + ez * eu), 1.0 / (1.0 + ez * el)


def test_kernel_sigmoid_clamps_keep_every_bit():
    # exp_neg clips z to +-Z_CLIP; that may move no bit, sign or NaN of the
    # unclipped product kernel inside the clip, nor past it wherever the
    # unclipped cells are already exact at 1.0; where the unclipped kernel
    # meets inf * 0 at a bracket of 0 or +inf, the clip gives the exact cell
    def kernels(z, eu, el):
        z, eu, el = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (z, eu, el)))
        return (eng.adjacent_cums(eng.exp_neg(z), eu.copy(), el.copy()),
                plain_adjacent_cums(plain_exp_neg(z), eu, el))

    def check(z, eu, el):
        for g, w in zip(*kernels(z, eu, el)):
            assert np.array_equal(g, w, equal_nan=True)
            np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
            np.testing.assert_array_equal(np.signbit(g), np.signbit(w))

    d = np.array([[3.0, 0.75, 0.0, -2.5, -660.0, 700.0]])
    finite = eng.bracket_table(d, np.ones(d.shape, dtype=bool))[0, 1:7, None]
    zero, inf = 0.0, np.inf  # the brackets of +inf and -inf
    z = np.linspace(-eng.Z_CLIP, eng.Z_CLIP, 32_001)
    # inside the clip: finite, +inf and -inf brackets in every pairing
    for eu in (finite, zero):
        check(z, eu, inf)
        check(z, eu, finite[::-1])
    check(z, zero, zero)
    check(z, inf, inf)
    # past +Z_CLIP the unclipped e^{-z} falls to 0.0 and every cell with a
    # bracket up to e^{660} or of 0 is 1.0 either way
    check(np.linspace(eng.Z_CLIP, 800.0, 20_001), finite[:5], finite[:5])
    check(np.array([745.0, 800.0, 1e300, np.inf]), zero, finite[:5])
    # NaN and +-0 against finite and infinite brackets
    special = np.array([np.nan, 0.0, -0.0])[:, None]
    check(special, np.array([finite[2, 0], finite[1, 0], zero, inf]),
          np.array([finite[2, 0], finite[3, 0], inf, zero]))
    # beyond exp's range the unclipped kernel meets inf * 0 and gives NaN,
    # the clipped one the exact cells of the infinite brackets
    beyond = np.array([-1e300, -800.0, -710.0, 746.0, 800.0, 1e300])
    (cu, cl), (pu, pl) = kernels(beyond, np.where(beyond < 0, zero, inf), inf)
    assert np.isnan(np.where(beyond < 0, pu, pl)).all()
    np.testing.assert_array_equal(cu, np.where(beyond < 0, 1.0, 0.0))
    np.testing.assert_array_equal(cl, 0.0)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_is_bit_identical_to_the_plain_kernel_sigmoid(monkeypatch, threads):
    # ragged items and unobserved cells give many brackets of 0 and +inf; the
    # in-place kernel with its clip must give the fit of the unclipped,
    # plainly written product kernel
    data, hyper, _ = sim_ragged(3, (0.6, 0.2, 0.2))
    cfg = FitConfig(seed=5, max_outer_iters=8, obj_tol=1e-9, threads=threads)
    clipped = fit(data, hyper, cfg)
    monkeypatch.setattr(eng, "exp_neg", plain_exp_neg)
    monkeypatch.setattr(eng, "adjacent_cums", plain_adjacent_cums)
    plain = fit(data, hyper, cfg)
    assert clipped.n_iters == 8
    np.testing.assert_array_equal(clipped.objective_trace, plain.objective_trace)
    np.testing.assert_array_equal(clipped.state.theta, plain.state.theta)
    np.testing.assert_array_equal(clipped.state.loadings, plain.state.loadings)
    for d_clipped, d_plain in zip(clipped.state.intercepts, plain.state.intercepts):
        np.testing.assert_array_equal(d_clipped, d_plain)


@pytest.mark.usefixtures("fork_any_fit")
@pytest.mark.parametrize("threads", [1, 2])
def test_fit_with_overflowing_cells_warns_on_no_thread(threads):
    # factor scores scaled by 400 put cells at z + d far below -710, and
    # intercepts scaled by 20 reach below -10, so even from z clipped to
    # -Z_CLIP the kernel's product e^-z e^-d overflows; numpy's error state
    # is per thread, so the kernel must set it in the worker that computes,
    # not in the caller
    data, hyper = sim_small(seed=20)
    init = random_init(data, hyper, seed=0)
    init.theta *= 400.0
    init.intercepts = [20.0 * d for d in init.intercepts]
    z = init.theta @ init.loadings.T
    assert (z.min() + max(d.max() for d in init.intercepts)) < -710.0
    assert -eng.Z_CLIP + min(d.min() for d in init.intercepts) < -710.0
    cfg = FitConfig(max_outer_iters=3, obj_tol=1e-9, threads=threads)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = fit(data, hyper, cfg, init=init)
    assert np.isfinite(result.objective_trace).all()


def test_missing_cells_read_brackets_that_add_exactly_zero():
    # an unobserved cell's category reads the bracket (+inf, -inf), 0.0 and
    # +inf in exp form, on items with one intercept and with Dmax of them;
    # its cells are exactly (1.0, 0.0) at any z, so it adds exactly 0.0 to
    # the row log-likelihood, the loading or factor-score gradient and the
    # intercept gradient
    d_pad = eng.pad_intercepts([np.array([0.4]), np.array([2.0, 0.5, -0.3, -1.8]),
                                np.array([1.1, -0.6])])
    nt = np.array([1, 4, 2])
    valid = np.arange(4)[None, :] < nt[:, None]
    zs = np.array([-1e300, -700.0, -30.0, 0.0, 30.0, 700.0, 1e300])
    n = 4 * zs.size
    rng = np.random.default_rng(3)
    responses = rng.integers(0, nt + 1, size=(n, nt.size))
    # every item has observed and unobserved cells at every z
    mask = (np.arange(n)[:, None] + np.arange(nt.size)[None, :]) % 2 == 0
    yt = eng.item_categories(responses, mask, d_pad.shape[1])
    missing = ~mask.T
    eu, el = eng.take_brackets(eng.bracket_table(d_pad, valid), eng.cell_index(yt, 4))
    np.testing.assert_array_equal(eu[missing], 0.0)
    np.testing.assert_array_equal(el[missing], np.inf)
    # an observed cell reads at least one finite, nonzero bracket
    finite = [(e > 0.0) & np.isfinite(e) for e in (eu[~missing], el[~missing])]
    assert np.all(finite[0] | finite[1])

    z = np.tile(np.repeat(zs, 4), (nt.size, 1))
    _, cu, cl = eng.cell_loglik(eng.exp_neg(z), eu, el)
    np.testing.assert_array_equal(cu[missing], 1.0)
    np.testing.assert_array_equal(cl[missing], 0.0)

    vt = rng.normal(size=(2, n))
    for j, i in np.argwhere(missing):
        one = (slice(j, j + 1), slice(i, i + 1))
        ll, den = eng.row_loglik(cu[one], cl[one])
        assert ll[0] == 0.0 and den[0, 0] == 1.0
        ll, g = eng.loglik_head(vt[:, i:i + 1], cu[one], cl[one])
        assert ll[0] == 0.0
        np.testing.assert_array_equal(g, 0.0)
        # no prior term at sigma_d_sq = inf: g_d is the cell's part alone
        g_d = eng.d_head(d_pad[j:j + 1], valid[j:j + 1], yt[one], cu[one], cl[one],
                         np.inf)[1]
        np.testing.assert_array_equal(g_d, 0.0)

    # the column of vt a row reads at its unobserved cells moves no bit of
    # the row's gradient
    for j in range(nt.size):
        row = slice(j, j + 1)
        vt_moved = np.where(missing[j], 1e3 * vt, vt)
        np.testing.assert_array_equal(eng.loglik_head(vt_moved, cu[row], cl[row])[1],
                                      eng.loglik_head(vt, cu[row], cl[row])[1])


def test_fully_missing_rows_shrink_theta_to_zero():
    data, _ = sim_small(seed=17, n=30)
    mask = data.mask.copy()
    mask[[4, 11]] = False
    blocked = ResponseData(responses=np.where(mask, data.responses, 0),
                           mask=mask, categories=list(data.categories))
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=2.0)
    result = fit(blocked, hyper, FitConfig(seed=0, obj_tol=1e-4))
    for i in (4, 11):
        assert np.linalg.norm(result.state.theta[i]) < 1e-3


@pytest.mark.parametrize("n_rows,item0,message", [
    (6, [1.0, 0.0, -1.0], "item 0: 3 intercepts"),
    (6, [0.5], "item 0: 1 intercepts"),
    (5, [0.5, -0.5], "5 respondents"),
], ids=["long-intercepts", "short-intercepts", "fewer-rows"])
def test_single_row_and_likelihood_calls_check_state_shapes(n_rows, item0, message):
    # 3 categories per item need 2 intercepts each.  Unchecked, the kernel
    # scored a 3-vector with its surplus entry (-22.13 where the reference
    # gives -22.60) and zero-padded a 1-vector (-13.83; the reference raises).
    rng = np.random.default_rng(0)
    data = ResponseData(responses=rng.integers(0, 3, size=(6, 2)),
                        mask=np.ones((6, 2), dtype=bool), categories=[3, 3])
    state = ModelState(theta=rng.normal(size=(n_rows, 1)),
                       loadings=rng.normal(size=(2, 1)),
                       intercepts=[np.array(item0), np.array([0.5, -0.5])])
    hyper = Hyperparameters(sigma_theta=np.eye(1), lam=1.0)
    calls = [lambda: log_likelihood_value(data, state),
             lambda: grad_a_loglik(data, state, 1)]
    calls += [lambda f=f: f(data, state, hyper, 1)
              for f in (grad_theta, grad_d, grad_delta, update_theta, update_a,
                        update_d)]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
