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


GRID = eng.MAX_BACKTRACKS + 1
# which of the grid steps GAMMA0 * SHRINK**i a row accepts: the nested
# pattern of a concave row (every step up to GAMMA0 * SHRINK**k, none when k
# is past the grid) or any pattern at all, as soft-thresholded loading rows
# can produce
acceptance = st.one_of(
    st.integers(0, GRID).map(lambda k: tuple(i >= k for i in range(GRID))),
    st.lists(st.booleans(), min_size=GRID, max_size=GRID).map(tuple))


def _walk(accepts, s):
    """line_search's rule for one row started at GAMMA0 * SHRINK**s: the
    exponent of its returned step (GRID when it runs out of grid) and its
    number of evaluations.  From an accepted start the row walks up while
    accepted, and also evaluates the rejected step above (unless at GAMMA0);
    from a rejected start it walks down to its first accepted step."""
    if accepts[s]:
        i = s
        while i > 0 and accepts[i - 1]:
            i -= 1
        return i, s - i + 1 + (i > 0)
    i = next((i for i in range(s + 1, GRID) if accepts[i]), GRID)
    return i, min(i, eng.MAX_BACKTRACKS) - s + 1


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(acceptance, st.integers(0, eng.MAX_BACKTRACKS), st.booleans()),
                min_size=1, max_size=8),
       st.booleans())
def test_line_search_walks_the_grid_once_from_each_start(rows, pass_pending):
    accepts, s, pending = (np.array(col) for col in zip(*rows))
    if not pass_pending:
        pending[:] = True
    grid = eng.GAMMA0 * eng.SHRINK ** np.arange(GRID, dtype=np.float64)
    evals = np.zeros(s.size, dtype=np.int64)

    def propose(idx, gamma):
        evals[idx] += 1
        return gamma[:, None]

    def loglik(idx, cand):
        # an accepted step i reads the log-likelihood 1 + i; a rejected one
        # -1 - i, or NaN at odd i.  The candidate stands in for its cells.
        i = np.rint(np.log(cand[:, 0] / eng.GAMMA0) / np.log(eng.SHRINK)).astype(np.int64)
        ok = accepts[idx, i]
        return np.where(ok, 1.0 + i, np.where(i % 2, np.nan, -1.0 - i)), cand, -cand

    def penalty(x):
        return np.zeros(x.shape[0])

    start = grid[s]
    cu, cl = np.zeros((s.size, 1)), np.zeros((s.size, 1))
    out, steps, ll = eng.line_search(np.zeros((s.size, 1)), np.zeros(s.size), cu, cl,
                                     penalty, loglik, propose,
                                     lambda idx, gamma, cand: 1.0,
                                     pending=pending if pass_pending else None,
                                     step=start)
    for r in range(s.size):
        if not pending[r]:
            # a row not pending keeps its row, cells and start step
            want_x, want_step, want_ll, want_evals = 0.0, start[r], 0.0, 0
        else:
            i, want_evals = _walk(accepts[r], s[r])
            found = i < GRID
            want_x = grid[i] if found else 0.0
            want_step = grid[i] if found else eng.GAMMA_FLOOR
            want_ll = 1.0 + i if found else 0.0
        assert (out[r, 0], steps[r], ll[r], evals[r]) == (
            want_x, want_step, want_ll, want_evals), r
        # each row's cells are its accepted candidate's, or its start's
        assert (cu[r, 0], cl[r, 0]) == (want_x, -want_x), r


def _theta_block(data, state, step=None):
    """theta_block over every respondent, with the line search's arguments.

    Returns (rows, steps, ok) where ok(gamma) is the engine's own acceptance
    test for every row at the per-row steps gamma.
    """
    hyper = Hyperparameters(sigma_theta=np.eye(state.n_factors), lam=0.0)
    args = _row_args(data, state, hyper, "theta", np.arange(data.n_respondents))
    with mock.patch.object(eng, "line_search", wraps=eng.line_search) as spy:
        rows, steps = eng.theta_block(*args, step)
    x0, ll0, _, _, penalty, loglik, propose, mapping_sq = spy.call_args.args
    idx = np.arange(data.n_respondents)

    def ok(gamma):
        cand = propose(idx, gamma)
        return loglik(idx, cand)[0] - penalty(cand) >= (
            ll0 - penalty(x0)
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
    # unobserved cells read the bracket (+inf, -inf) whatever the intercepts,
    # loadings or factor scores of their row and item; no mask keeps them out
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
