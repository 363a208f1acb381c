import math
import warnings

import numpy as np
import pytest

from sparsegrm.data import ResponseData
from sparsegrm.model import (Hyperparameters, ModelState, category_prob,
                             cumulative_probs, inverse_logit, log_likelihood,
                             log_prior_a, log_prior_d, log_prior_theta,
                             objective)


def tiny_state():
    theta = np.array([[0.5, -0.2], [-1.0, 0.3], [0.1, 0.0]])
    loadings = np.array([[1.0, 0.0], [0.5, 0.8]])
    intercepts = [np.array([0.7]), np.array([1.2, -0.4, -1.1])]
    return ModelState(theta=theta, loadings=loadings, intercepts=intercepts)


def tiny_data():
    responses = np.array([[0, 3], [1, 0], [0, 2]])
    mask = np.array([[True, True], [True, False], [False, True]])
    return ResponseData(responses=responses, mask=mask, categories=[2, 4])


def test_inverse_logit_matches_closed_form():
    for z in (-3.0, -0.5, 0.0, 1.2):
        assert inverse_logit(z) == pytest.approx(1.0 / (1.0 + math.exp(-z)),
                                                 rel=1e-14)
    z = np.array([-800.0, -np.inf, -3.0, 0.0, 1.2, np.nan, np.inf, 800.0])
    # exp(800) overflows; the function ignores that in its own errstate,
    # whatever the caller's
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        got = inverse_logit(z)
        in_place = z.copy()
        assert inverse_logit(in_place, out=in_place) is in_place
    np.testing.assert_array_equal(in_place, got)
    for i in (2, 3, 4):
        assert got[i] == pytest.approx(1.0 / (1.0 + math.exp(-z[i])), rel=1e-14)
    assert got[0] == 0.0 and got[1] == 0.0
    assert got[6] == 1.0 and got[7] == 1.0
    assert np.isnan(got[5])


def test_cumulative_probs_known_values():
    # Zero linear predictor with intercepts (1, 0, -1) gives logistic values
    # at those intercepts, bracketed by the exact boundary constants.
    cum = cumulative_probs(np.zeros(2), np.zeros(2), np.array([1.0, 0.0, -1.0]))
    expected = np.array([1.0, 0.7310585786300049, 0.5, 0.2689414213699951, 0.0])
    np.testing.assert_allclose(cum, expected, rtol=0, atol=1e-15)
    assert cum[0] == 1.0 and cum[-1] == 0.0


def test_cumulative_probs_requires_decreasing_intercepts():
    with pytest.raises(ValueError):
        cumulative_probs(np.zeros(1), np.zeros(1), np.array([0.0, 0.0]))


def test_category_probs_sum_to_one():
    rng = np.random.default_rng(7)
    theta = rng.normal(size=3)
    a = rng.normal(size=3)
    d = np.array([2.0, 0.5, -1.5])
    total = sum(category_prob(theta, a, d, c) for c in range(4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_category_prob_binary_item():
    with pytest.raises(ValueError, match="category 2 out of range for 2 categories"):
        category_prob(np.array([0.0]), np.array([0.0]), np.array([0.3]), 2)
    p1 = category_prob(np.array([0.0]), np.array([0.0]), np.array([0.3]), 1)
    assert p1 == pytest.approx(inverse_logit(0.3), rel=1e-14)
    p0 = category_prob(np.array([0.0]), np.array([0.0]), np.array([0.3]), 0)
    assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


def test_log_likelihood_masked_cells_contribute_zero():
    state = tiny_state()
    data = tiny_data()
    full_mask = ResponseData(responses=data.responses,
                             mask=np.ones_like(data.mask),
                             categories=list(data.categories))
    ll_masked = log_likelihood(data, state)
    # Recompute by summing only over observed cells of the fully observed
    # version one cell at a time.
    manual = 0.0
    for i in range(3):
        for j in range(2):
            if data.mask[i, j]:
                p = category_prob(state.theta[i], state.loadings[j],
                                  state.intercepts[j], data.responses[i, j])
                manual += math.log(p)
    assert ll_masked == pytest.approx(manual, rel=1e-13)
    assert ll_masked != pytest.approx(log_likelihood(full_mask, state),
                                      rel=1e-13)


def test_log_prior_theta_matches_gaussian_density():
    theta_i = np.array([0.3, -0.4])
    sigma = np.array([[1.0, 0.1], [0.1, 1.0]])
    hyper = Hyperparameters(sigma_theta=sigma, lam=1.0)
    quad = theta_i @ np.linalg.inv(sigma) @ theta_i
    expected = -0.5 * (2 * math.log(2 * math.pi)
                       + math.log(np.linalg.det(sigma)) + quad)
    assert log_prior_theta(theta_i, hyper) == pytest.approx(expected, rel=1e-12)


def test_log_prior_a_laplace_form():
    a_j = np.array([0.5, -0.25])
    expected = 2 * math.log(2.0 / 2.0) - 2.0 * 0.75
    assert log_prior_a(a_j, 2.0) == pytest.approx(expected, rel=1e-12)


def test_log_prior_a_requires_positive_lambda():
    with pytest.raises(ValueError):
        log_prior_a(np.zeros(2), 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_log_priors_reject_a_non_finite_scale(value):
    # nan <= 0 is False, so a sign check alone returned nan
    with pytest.raises(ValueError, match="lam must be finite and positive"):
        log_prior_a(np.zeros(2), value)
    with pytest.raises(ValueError, match="sigma_d_sq must be finite and positive"):
        log_prior_d(np.zeros(2), value)


def test_log_prior_d_normal_form():
    var = 100.0 ** 2
    expected = sum(-0.5 * (math.log(2 * math.pi * var) + v * v / var)
                   for v in (1.0, -1.0))
    got = log_prior_d(np.array([1.0, -1.0]), var)
    assert got == pytest.approx(expected, rel=1e-12)


def test_objective_sums_terms():
    state = tiny_state()
    data = tiny_data()
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=1.5)
    total = objective(data, state, hyper)
    parts = log_likelihood(data, state)
    for i in range(3):
        parts += log_prior_theta(state.theta[i], hyper)
    for j in range(2):
        parts += log_prior_a(state.loadings[j], hyper.lam)
        parts += log_prior_d(state.intercepts[j], hyper.sigma_d_sq)
    assert total == pytest.approx(parts, rel=1e-13)


def test_objective_lambda_zero_drops_loading_prior():
    state = tiny_state()
    data = tiny_data()
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    total = objective(data, state, hyper)
    parts = log_likelihood(data, state)
    for i in range(3):
        parts += log_prior_theta(state.theta[i], hyper)
    for j in range(2):
        parts += log_prior_d(state.intercepts[j], hyper.sigma_d_sq)
    assert total == pytest.approx(parts, rel=1e-13)


def test_hyperparameters_validation():
    with pytest.raises(ValueError):
        Hyperparameters(sigma_theta=np.array([[1.0, 2.0], [2.0, 1.0]]),
                        lam=1.0)
    with pytest.raises(ValueError):
        Hyperparameters(sigma_theta=np.eye(2), lam=-0.5)
    with pytest.raises(ValueError):
        Hyperparameters(sigma_theta=np.eye(2), lam=1.0, sigma_d_sq=0.0)
    # det(-I) = 1 passes the determinant's sign check; the Cholesky
    # factorization rejects it
    with pytest.raises(ValueError, match="positive definite"):
        Hyperparameters(sigma_theta=-np.eye(2), lam=1.0)
    # the 6 x 6 Hilbert matrix is symmetric positive definite, but too
    # ill-conditioned for its computed inverse to pass the 1e-10 check
    hilbert = 1.0 / (np.arange(1, 7)[:, None] + np.arange(6)[None, :])
    for sigma, message in [(np.zeros((2, 3)), "sigma_theta must be square"),
                           (np.array([[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"),
                           (hilbert, "inverse inconsistent beyond 1e-10")]:
        with pytest.raises(ValueError, match=message):
            Hyperparameters(sigma_theta=sigma, lam=1.0)


def test_hyperparameters_reject_empty_sigma_theta():
    with pytest.raises(ValueError, match="sigma_theta must be at least 1 x 1"):
        Hyperparameters(np.zeros((0, 0)), lam=1.0)


@pytest.mark.parametrize("field", ["lam", "sigma_d_sq"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hyperparameters_reject_non_finite_values(field, value):
    # nan < 0 is False, so a sign check alone let lam = nan through to a fit
    # that reported convergence at a nan objective
    kwargs = {"lam": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Hyperparameters(sigma_theta=np.eye(2), **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_hyperparameters_reject_a_non_finite_sigma_theta(value):
    # a nan entry used to be reported as an asymmetric sigma_theta
    for sigma in ([[value]], [[1.0, value], [value, 1.0]]):
        with pytest.raises(ValueError, match="sigma_theta must be finite"):
            Hyperparameters(sigma_theta=sigma, lam=1.0)


def test_model_state_validation():
    with pytest.raises(ValueError):
        ModelState(theta=np.zeros((2, 2)), loadings=np.zeros((1, 3)),
                   intercepts=[np.array([0.0])])
    with pytest.raises(ValueError):
        ModelState(theta=np.zeros((2, 2)), loadings=np.zeros((1, 2)),
                   intercepts=[np.array([0.0, 0.5])])
    good = dict(theta=np.zeros((2, 2)), loadings=np.zeros((1, 2)),
                intercepts=[np.array([0.5, 0.0])])
    for change, message in [
            (dict(theta=np.zeros(2)), "theta must be 2-D, got ndim=1"),
            (dict(loadings=np.zeros(2)), "loadings must be 2-D, got ndim=1"),
            (dict(intercepts=[np.array([0.0])] * 2), "2 intercept vectors for 1 items"),
            (dict(theta=np.array([[0.0, np.nan], [0.0, 0.0]])),
             "theta and loadings must be finite"),
            (dict(loadings=np.array([[np.inf, 0.0]])), "theta and loadings must be finite"),
            (dict(intercepts=[np.array([])]), r"intercepts\[0\] must be a nonempty 1-D"),
            (dict(intercepts=[np.array([0.5, np.nan])]), r"intercepts\[0\] must be finite")]:
        with pytest.raises(ValueError, match=message):
            ModelState(**{**good, **change})


def test_model_state_copy_is_deep():
    state = tiny_state()
    other = state.copy()
    other.theta[0, 0] = 99.0
    other.intercepts[1][0] = 99.0
    assert state.theta[0, 0] == 0.5
    assert state.intercepts[1][0] == 1.2
