"""Property tests of the vectorized engine: the kernel and the gradient
heads against the per-cell reference, the line search's walk over its
step grid, the exclusion of missing cells and the ordering of intercepts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsegrm import _engine as eng
from sparsegrm.data import ResponseData
from sparsegrm.gradients import grad_a_loglik, grad_delta, grad_theta, to_d, to_delta
from sparsegrm.model import (Hyperparameters, ModelState, category_prob,
                             log_likelihood, log_prior_d, log_prior_theta)
from sparsegrm.optimizer import (_row_args, log_likelihood_value, update_a, update_d,
                                 update_theta)
from sparsegrm.simulate import gen_sigma


@st.composite
def tiny_instances(draw):
    """Random (data, state) with one fully missing row and one fully missing item."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    j = draw(st.integers(2, 5))
    categories = np.array(draw(st.lists(st.integers(2, 7), min_size=j, max_size=j)))
    missing = draw(st.floats(0.0, 0.6))
    empty_row = draw(st.integers(0, n - 1))
    empty_item = draw(st.integers(0, j - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    mask = rng.random((n, j)) >= missing
    mask[empty_row, :] = False
    mask[:, empty_item] = False
    responses = rng.integers(0, categories[None, :], size=(n, j))
    data = ResponseData(responses=responses, mask=mask, categories=categories)
    intercepts = [rng.uniform(-3.0, 3.0) - np.cumsum(rng.uniform(0.05, 2.0, size=c - 1))
                  for c in categories]
    state = ModelState(theta=rng.normal(0.0, 1.5, size=(n, k)),
                       loadings=rng.normal(0.0, 1.5, size=(j, k)),
                       intercepts=intercepts)
    return data, state


@settings(derandomize=True, deadline=None)
@given(tiny_instances())
def test_kernel_log_likelihood_matches_per_cell_reference(instance):
    data, state = instance
    assert log_likelihood_value(data, state) == pytest.approx(
        log_likelihood(data, state), rel=1e-12)


def _central_diff(f, x, eps=1e-5):
    g = np.zeros_like(x)
    for c in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[c] += eps
        lo[c] -= eps
        g[c] = (f(hi) - f(lo)) / (2 * eps)
    return g


def _with(state, part, index, value):
    probe = state.copy()
    getattr(probe, part)[index] = value
    return probe


@settings(derandomize=True, deadline=None)
@given(tiny_instances())
def test_gradient_heads_match_central_differences_of_per_cell_reference(instance):
    data, state = instance
    # a central difference of log P carries a rounding error of about
    # 1e-16 / (P * eps); with eps = 1e-5 it stays near 1e-7 while every
    # observed cell has P > 1e-4, and would swamp the tolerance near the floor
    assume(min((category_prob(state.theta[i], state.loadings[j], state.intercepts[j],
                              int(data.responses[i, j]))
                for i, j in zip(*np.nonzero(data.mask))), default=1.0) > 1e-4)
    hyper = Hyperparameters(sigma_theta=gen_sigma(state.n_factors, 0.3), lam=1.0,
                            sigma_d_sq=4.0)

    def check(analytic, f, x):
        np.testing.assert_allclose(analytic, _central_diff(f, x), rtol=1e-5, atol=1e-6)

    for i in range(data.n_respondents):
        check(grad_theta(data, state, hyper, i),
              lambda x: (log_likelihood(data, _with(state, "theta", i, x))
                         + log_prior_theta(x, hyper)),
              state.theta[i])
    for j in range(data.n_items):
        check(grad_a_loglik(data, state, j),
              lambda x: log_likelihood(data, _with(state, "loadings", j, x)),
              state.loadings[j])
        check(grad_delta(data, state, hyper, j),
              lambda x: (log_likelihood(data, _with(state, "intercepts", j, to_d(x)))
                         + log_prior_d(to_d(x), hyper.sigma_d_sq)),
              to_delta(state.intercepts[j]))


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, eng.MAX_BACKTRACKS + 1),
                          st.integers(0, eng.MAX_BACKTRACKS)),
                min_size=1, max_size=8))
def test_line_search_walks_the_grid_once_from_each_start(rows):
    # row r accepts exactly the steps up to GAMMA0 * SHRINK**k[r]; none when
    # k[r] is past the grid
    k, s = (np.array(col) for col in zip(*rows))
    largest = eng.GAMMA0 * eng.SHRINK ** k.astype(np.float64)
    evals = np.zeros(k.size, dtype=np.int64)

    def propose(idx, gamma):
        evals[idx] += 1
        return gamma[:, None]

    def loglik(idx, cand):
        return np.where(cand[:, 0] <= largest[idx], np.inf, -np.inf)

    def penalty(idx, x):
        return np.zeros(x.shape[0])

    start = eng.GAMMA0 * eng.SHRINK ** s.astype(np.float64)
    out, steps, _ = eng.line_search(np.zeros((k.size, 1)), np.zeros(k.size), penalty,
                                    loglik, propose, lambda idx, gamma, cand: 1.0,
                                    step=start)
    found = k <= eng.MAX_BACKTRACKS
    np.testing.assert_array_equal(out[:, 0], np.where(found, largest, 0.0))
    np.testing.assert_array_equal(steps, np.where(found, largest, eng.GAMMA_FLOOR))
    # from an accepted start: up to the largest accepted step, then the
    # rejected one above it; from a rejected start: down to the first accepted
    want = np.where(s >= k, s - k + 1 + (k > 0), k - s + found)
    np.testing.assert_array_equal(evals, want)


def _theta_block(data, state, step=None):
    """theta_block over every respondent, with the line search's arguments.

    Returns (rows, steps, ok) where ok(gamma) is the engine's own acceptance
    test for every row at the per-row steps gamma.
    """
    hyper = Hyperparameters(sigma_theta=np.eye(state.n_factors), lam=0.0)
    args = _row_args(data, state, hyper, "theta", np.arange(data.n_respondents))
    with mock.patch.object(eng, "line_search", wraps=eng.line_search) as spy:
        rows, steps = eng.theta_block(*args, step)
    x0, ll0, penalty, loglik, propose, mapping_sq = spy.call_args.args
    idx = np.arange(data.n_respondents)

    def ok(gamma):
        cand = propose(idx, gamma)
        return loglik(idx, cand) - penalty(idx, cand) >= (
            ll0 - penalty(idx, x0)
            + eng.SUFFICIENT_INCREASE * gamma * mapping_sq(idx, gamma, cand))

    return rows, steps, ok


@settings(derandomize=True, deadline=None)
@given(tiny_instances(), st.data())
def test_theta_warm_start_matches_cold_search(instance, draws):
    data, state = instance
    exps = draws.draw(st.lists(st.integers(0, eng.MAX_BACKTRACKS),
                               min_size=data.n_respondents,
                               max_size=data.n_respondents))
    start = eng.GAMMA0 * eng.SHRINK ** np.array(exps, dtype=np.float64)
    cold, _, _ = _theta_block(data, state)
    rows, steps, ok = _theta_block(data, state, start)
    np.testing.assert_array_equal(rows, cold)
    assert np.all(steps <= eng.GAMMA0)
    kept = (steps == eng.GAMMA_FLOOR) & np.all(rows == state.theta, axis=1)
    assert np.all(ok(steps) | kept)
    doubled = steps / eng.SHRINK
    assert np.all((doubled > eng.GAMMA0) | ~ok(doubled))


@settings(derandomize=True, deadline=None)
@given(tiny_instances(), st.data())
def test_missing_cells_are_excluded_exactly(instance, draws):
    # unobserved cells are stored as category 0 and read the intercept
    # bracket's first two columns; the mask alone must keep them out
    data, state = instance
    hyper = Hyperparameters(sigma_theta=np.eye(state.n_factors), lam=1.0)
    row = int(np.flatnonzero(~data.mask.any(axis=1))[0])
    item = int(np.flatnonzero(~data.mask.any(axis=0))[0])
    scale = draws.draw(st.sampled_from([1.0, 30.0]))
    rng = np.random.default_rng(draws.draw(st.integers(0, 2**32 - 1)))
    moved_item = state.copy()
    moved_item.loadings[item] = scale * rng.normal(size=state.n_factors)
    moved_item.intercepts[item] = scale * (rng.uniform(-3.0, 3.0) - np.cumsum(
        rng.uniform(0.05, 2.0, size=state.intercepts[item].size)))
    moved_row = state.copy()
    moved_row.theta[row] = scale * rng.normal(size=state.n_factors)

    assert log_likelihood_value(data, moved_item) == log_likelihood_value(data, state)
    for i in range(data.n_respondents):
        np.testing.assert_array_equal(update_theta(data, moved_item, hyper, i),
                                      update_theta(data, state, hyper, i))
    for j in range(data.n_items):
        np.testing.assert_array_equal(update_a(data, moved_row, hyper, j),
                                      update_a(data, state, hyper, j))
        np.testing.assert_array_equal(update_d(data, moved_row, hyper, j),
                                      update_d(data, state, hyper, j))


@settings(derandomize=True, deadline=None)
@given(tiny_instances(), st.data())
def test_intercept_step_keeps_intercepts_ordered(instance, draws):
    data, state = instance
    exps = draws.draw(st.lists(st.integers(0, eng.MAX_BACKTRACKS),
                               min_size=data.n_items, max_size=data.n_items))
    start = eng.GAMMA0 * eng.SHRINK ** np.array(exps, dtype=np.float64)
    hyper = Hyperparameters(sigma_theta=np.eye(state.n_factors), lam=0.0,
                            sigma_d_sq=4.0)
    rows = eng.d_block(*_row_args(data, state, hyper, "d", np.arange(data.n_items)),
                       start)[0]
    real = np.arange(rows.shape[1])[None, :] < (data.categories - 1)[:, None]
    assert np.all(np.isfinite(rows))
    assert np.all(rows[~real] == 0.0)
    assert np.all((np.diff(rows, axis=1) < 0.0) | ~real[:, 1:])
