import numpy as np
import pytest

from sparsegrm.data import ResponseData
from sparsegrm.gradients import (grad_a_loglik, grad_d, grad_delta,
                                 grad_theta, to_d, to_delta)
from sparsegrm.model import (PROB_FLOOR, Hyperparameters, ModelState,
                             category_prob, log_likelihood, log_prior_d,
                             log_prior_theta)
from sparsegrm.optimizer import random_init
from sparsegrm.simulate import SimDesign, gen_true_params, sample_responses


def random_instance(seed, n=6, j=4, k=2, categories=(2, 3, 4, 5),
                    missing=0.2):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, k))
    loadings = rng.normal(size=(j, k))
    intercepts = [np.sort(rng.normal(size=c - 1))[::-1].copy()
                  for c in categories]
    for d in intercepts:
        if d.size > 1 and np.min(-np.diff(d)) < 1e-3:
            d -= np.arange(d.size) * 0.5
    state = ModelState(theta=theta, loadings=loadings, intercepts=intercepts)
    sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
    hyper = Hyperparameters(sigma_theta=sigma, lam=0.7)
    responses = np.zeros((n, j), dtype=np.int64)
    for col, c in enumerate(categories):
        responses[:, col] = rng.integers(0, c, size=n)
    mask = rng.random((n, j)) > missing
    mask[0] = True
    responses[~mask] = 0
    data = ResponseData(responses=responses, mask=mask,
                        categories=list(categories))
    return data, state, hyper


def central_diff(f, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2 * eps)
    return g


def theta_objective_part(data, state, hyper, i, theta_i):
    probe = state.copy()
    probe.theta[i] = theta_i
    return log_likelihood(data, probe) + log_prior_theta(theta_i, hyper)


def a_loglik_part(data, state, j, a_j):
    probe = state.copy()
    probe.loadings[j] = a_j
    return log_likelihood(data, probe)


def d_objective_part(data, state, hyper, j, d_j):
    probe = state.copy()
    probe.intercepts[j] = np.asarray(d_j, dtype=np.float64)
    return log_likelihood(data, probe) + log_prior_d(d_j, hyper.sigma_d_sq)


@pytest.mark.parametrize("seed", range(4))
def test_grad_theta_matches_finite_difference(seed):
    data, state, hyper = random_instance(seed)
    for i in range(data.n_respondents):
        g = grad_theta(data, state, hyper, i)
        fd = central_diff(
            lambda x, i=i: theta_objective_part(data, state, hyper, i, x),
            state.theta[i])
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_grad_a_matches_finite_difference(seed):
    data, state, _ = random_instance(seed)
    for j in range(data.n_items):
        g = grad_a_loglik(data, state, j)
        fd = central_diff(lambda x, j=j: a_loglik_part(data, state, j, x),
                          state.loadings[j])
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_grad_d_matches_finite_difference(seed):
    data, state, hyper = random_instance(seed)
    for j in range(data.n_items):
        g = grad_d(data, state, hyper, j)
        fd = central_diff(
            lambda x, j=j: d_objective_part(data, state, hyper, j, x),
            state.intercepts[j])
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_grad_delta_matches_finite_difference(seed):
    data, state, hyper = random_instance(seed)
    for j in range(data.n_items):
        delta = to_delta(state.intercepts[j])
        g = grad_delta(data, state, hyper, j)

        def value(dl, j=j):
            return d_objective_part(data, state, hyper, j, to_d(dl))

        fd = central_diff(value, delta)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_delta_round_trip():
    d = np.array([2.0, 0.5, -1.25])
    np.testing.assert_allclose(to_d(to_delta(d)), d, rtol=0, atol=1e-14)
    delta = np.array([0.3, -2.0, 1.1])
    np.testing.assert_allclose(to_delta(to_d(delta)), delta, rtol=1e-12)


def test_to_d_always_decreasing():
    rng = np.random.default_rng(2)
    for _ in range(20):
        delta = rng.normal(scale=3.0, size=4)
        d = to_d(delta)
        assert np.all(np.diff(d) < 0)


def test_to_delta_rejects_unordered():
    with pytest.raises(ValueError):
        to_delta(np.array([0.0, 1.0]))


def test_boundary_categories_use_exact_constants():
    # For a binary item the extreme categories involve P(0) = 1 and P(2) = 0,
    # whose P(1 - P) factors must vanish exactly rather than approximately.
    data = ResponseData(responses=np.array([[0], [1]]),
                        mask=np.ones((2, 1), dtype=bool), categories=[2])
    state = ModelState(theta=np.array([[0.4], [-0.4]]),
                       loadings=np.array([[1.3]]),
                       intercepts=[np.array([0.2])])
    hyper = Hyperparameters(sigma_theta=np.eye(1), lam=1.0)
    for i in range(2):
        g = grad_theta(data, state, hyper, i)
        fd = central_diff(
            lambda x, i=i: theta_objective_part(data, state, hyper, i, x),
            state.theta[i])
        np.testing.assert_allclose(g, fd, rtol=1e-7)


def test_masked_cells_do_not_contribute():
    data, state, hyper = random_instance(3)
    blocked = ResponseData(responses=data.responses.copy(),
                           mask=np.zeros_like(data.mask),
                           categories=list(data.categories))
    g = grad_theta(blocked, state, hyper, 0)
    np.testing.assert_allclose(g, -hyper.sigma_theta_inv @ state.theta[0],
                               rtol=1e-12)
    assert np.array_equal(grad_a_loglik(blocked, state, 1), np.zeros(2))


def test_gradients_are_flat_at_floored_cells():
    # Factor scores scaled by 100 push many cells' category probabilities
    # under PROB_FLOOR, where log P is the constant log(PROB_FLOOR); their
    # gradient weights must vanish like their central differences do.
    design = SimDesign(n_respondents=40, n_items=8, n_factors=2, n_categories=3,
                       rho=0.2, seed=18, q_proportions=(0.5, 0.5, 0.0))
    truth, _ = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=19)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=2.0)
    state = random_init(data, hyper, seed=0)
    state.theta *= 100.0
    floored = [(i, j) for i, j in np.argwhere(data.mask)
               if category_prob(state.theta[i], state.loadings[j], state.intercepts[j],
                                int(data.responses[i, j])) == PROB_FLOOR]
    assert len(floored) >= 20

    def check(g, f, x):
        np.testing.assert_allclose(g, central_diff(f, x, eps=1e-5), rtol=1e-6,
                                   atol=1e-2)

    for i in range(data.n_respondents):
        check(grad_theta(data, state, hyper, i),
              lambda x, i=i: theta_objective_part(data, state, hyper, i, x),
              state.theta[i])
    for j in range(data.n_items):
        check(grad_a_loglik(data, state, j),
              lambda x, j=j: a_loglik_part(data, state, j, x), state.loadings[j])
        check(grad_delta(data, state, hyper, j),
              lambda x, j=j: d_objective_part(data, state, hyper, j, to_d(x)),
              to_delta(state.intercepts[j]))
