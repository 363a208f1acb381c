from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from sparsegrm import _engine as eng
from sparsegrm import optimizer
from sparsegrm.data import ResponseData
from sparsegrm.gradients import grad_a_loglik, grad_d, grad_delta, grad_theta
from sparsegrm.model import Hyperparameters, ModelState, objective
from sparsegrm.optimizer import (FitConfig, _row_args, fit, fit_multistart,
                                 log_likelihood_value, objective_value,
                                 random_init, soft_threshold, update_a,
                                 update_d, update_theta)
from sparsegrm.simulate import SimDesign, gen_true_params, sample_responses


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


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(obj_tol=0.0)
    with pytest.raises(ValueError):
        FitConfig(threads=0)
    with pytest.raises(ValueError):
        FitConfig(n_starts=0)
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
    x0, ll0, penalty, loglik, propose, mapping_sq, pending, _ = spy.call_args.args
    idx = np.arange(data.n_items)

    def ok(gamma):
        cand = propose(idx, gamma)
        return loglik(idx, cand) - penalty(idx, cand) >= (
            ll0 - penalty(idx, x0)
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
        evals.append(spy.call_count - 1)  # less the head's evaluation
        assert steps[0] != eng.GAMMA_FLOOR
    assert max(evals) < eng.MAX_BACKTRACKS + 1
    assert np.mean(evals) <= 6


def test_fit_opens_one_thread_pool():
    data, hyper = sim_small(seed=19)
    with mock.patch.object(optimizer, "ThreadPoolExecutor",
                           wraps=optimizer.ThreadPoolExecutor) as pool:
        fit(data, hyper, FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-9,
                                   threads=2))
        assert pool.call_count == 1
        fit(data, hyper, FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-9))
        assert pool.call_count == 1


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
