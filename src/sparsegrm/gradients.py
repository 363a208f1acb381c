"""Intercept reparameterization and single-row views of the engine's gradients.

The grad_* functions run the engine's gradient heads (``theta_head``,
``loglik_head``, ``d_head``), the code every fit runs, on one respondent
or item.

To keep the intercept ordering d_j1 > ... > d_j,C_j-1 during unconstrained
updates, d_j is mapped to

    delta_j = (d_j1, log(d_j1 - d_j2), ..., log(d_j,C_j-2 - d_j,C_j-1)),

whose inverse d_jc = delta_j1 - sum_{c'=2}^{c} exp(delta_jc') is strictly
decreasing for any finite delta_j.
"""

from __future__ import annotations

import numpy as np

from . import _engine as eng
from .data import ResponseData
from .model import Hyperparameters, ModelState
from .optimizer import _row_args


def to_delta(d_j) -> np.ndarray:
    """Map a strictly decreasing intercept vector to unconstrained space."""
    d_j = np.asarray(d_j, dtype=np.float64)
    if d_j.size > 1 and not np.all(np.diff(d_j) < 0):
        raise ValueError(f"intercepts must be strictly decreasing: {d_j}")
    return eng.to_delta(d_j[None, :], np.ones((1, d_j.size), dtype=bool))[0]


def to_d(delta_j) -> np.ndarray:
    """Inverse of :func:`to_delta`; always yields a decreasing vector."""
    delta_j = np.asarray(delta_j, dtype=np.float64)
    return eng.to_d(delta_j[None, :], np.ones((1, delta_j.size), dtype=bool))[0]


def grad_theta(data: ResponseData, state: ModelState, hyper: Hyperparameters,
               i: int) -> np.ndarray:
    """Gradient of the objective with respect to theta_i."""
    th, a_t, _, _, cu, cl, sinv = _row_args(data, state, hyper, "theta", [i])
    return eng.theta_head(th, a_t, cu, cl, sinv)[1][0]


def grad_a_loglik(data: ResponseData, state: ModelState, j: int) -> np.ndarray:
    """Gradient of the log-likelihood with respect to a_j.

    The Laplace prior is excluded; the proximal step absorbs it.
    """
    _, th_t, _, _, cu, cl = _row_args(data, state, None, "a", [j])
    return eng.loglik_head(th_t, cu, cl)[1][0]


def _intercept_grads(data, state, hyper, j):
    """Objective gradients of item j in d and in delta space."""
    # d_head takes d_block's arguments after the loadings and theta'
    _, g_d, _, g_delta = eng.d_head(*_row_args(data, state, hyper, "d", [j])[2:])
    n = state.intercepts[j].size
    return g_d[0, :n], g_delta[0, :n]


def grad_d(data: ResponseData, state: ModelState, hyper: Hyperparameters,
           j: int) -> np.ndarray:
    """Gradient of the objective with respect to the raw intercepts d_j."""
    return _intercept_grads(data, state, hyper, j)[0]


def grad_delta(data: ResponseData, state: ModelState, hyper: Hyperparameters,
               j: int) -> np.ndarray:
    """Gradient of the objective with respect to delta_j.

    Chain rule through the inverse map: the first component collects all
    d-gradients, and component c' >= 2 collects -exp(delta_jc') times the
    trailing sum over c >= c'.
    """
    return _intercept_grads(data, state, hyper, j)[1]
