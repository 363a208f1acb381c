"""Vectorized block updates shared by the optimizer.

Everything here is written so results are bit-identical no matter how
respondents or items are partitioned into blocks (the thread-count
determinism contract).  Two rules make that hold:

* no matrix-matrix products in the update path (BLAS kernels change
  summation order with operand shape); inner products over factors are
  accumulated with an explicit loop over k, which fixes the order of
  additions per cell;
* every reduction runs along the last axis of a row-contiguous array, so
  each row's result never depends on which other rows share the block.

Every block evaluates its cells through one kernel, :func:`cell_loglik`,
and steps through one backtracking routine, :func:`line_search`; the
factor-score, loading and intercept updates differ only in the row value
and the proposal they hand to it.

Intercept vectors of unequal length are carried in a zero-padded J x Dmax
matrix together with the per-item count of real entries.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .model import PROB_FLOOR

# Backtracking line search: try GAMMA0, multiply by SHRINK up to
# MAX_BACKTRACKS times, accept when the row value gains at least
# SUFFICIENT_INCREASE * gamma * ||grad||^2.
GAMMA0 = 1.0
SHRINK = 0.5
MAX_BACKTRACKS = 30
SUFFICIENT_INCREASE = 1e-4

# row selector for "every row of the block" (a view, not a copy)
_ALL = np.s_[:]


def pad_intercepts(intercepts):
    """Stack per-item intercept vectors into (J x Dmax pad, length vector)."""
    nt = np.array([d.size for d in intercepts], dtype=np.int64)
    d_pad = np.zeros((len(intercepts), int(nt.max())), dtype=np.float64)
    for j, d in enumerate(intercepts):
        d_pad[j, : d.size] = d
    return d_pad, nt


def unpad_intercepts(d_pad, nt):
    return [d_pad[j, : int(nt[j])].copy() for j in range(d_pad.shape[0])]


def outer_sum(u, vt):
    """Sum over k of u[:, k, None] * vt[k, None, :], accumulated in k order.

    Equals u @ vt but with a deterministic per-cell addition order that does
    not depend on array shapes.
    """
    out = np.zeros((u.shape[0], vt.shape[1]), dtype=np.float64)
    for k in range(u.shape[1]):
        out += u[:, k, None] * vt[k][None, :]
    return out


def quad_form_rows(x, s):
    """Row-wise quadratic form x_i' S x_i with a fixed (k, l) addition order."""
    q = np.zeros(x.shape[0], dtype=np.float64)
    for k in range(s.shape[0]):
        for l in range(s.shape[1]):
            q += x[:, k] * (s[k, l] * x[:, l])
    return q


def row_norm_sq(g):
    return (g * g).sum(axis=1)


def soft_threshold(z, t):
    """L1 proximal operator sign(z) * max(|z| - t, 0); t broadcasts against z."""
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


# ---------------------------------------------------------------------------
# cell kernel and line search


def adjacent_cums(z, du, dl, y_is_min, y_is_max):
    """Upper/lower cumulative probabilities for each cell's own category."""
    cu = np.where(y_is_min, 1.0, expit(z + du))
    cl = np.where(y_is_max, 0.0, expit(z + dl))
    return cu, cl


def cell_loglik(z, du, dl, y_is_min, y_is_max, mf):
    """Row sums of masked log category probabilities, plus (cu, cl, den).

    z is the linear predictor per cell, du/dl the intercepts bracketing the
    cell's category, mf the 0/1 cell mask; den = max(cu - cl, PROB_FLOOR)
    is the cell's category probability.
    """
    cu, cl = adjacent_cums(z, du, dl, y_is_min, y_is_max)
    den = np.maximum(cu - cl, PROB_FLOOR)
    return (np.log(den) * mf).sum(axis=1), cu, cl, den


def _loglik_grad(cu, cl, den, mf, vt):
    """Row gradient of the log-likelihood with respect to the row's factor vector."""
    w = ((cu * (1.0 - cu)) - (cl * (1.0 - cl))) / den * mf
    g = np.empty((w.shape[0], vt.shape[0]), dtype=np.float64)
    for k in range(vt.shape[0]):
        g[:, k] = (w * vt[k][None, :]).sum(axis=1)
    return g


def line_search(x0, gn2, f0, propose, value, pending=None):
    """Row-wise backtracking ascent from x0; returns the updated rows.

    propose(idx, gamma) returns candidate rows for the pending rows idx at
    their step sizes and value(idx, cand) their row values.  A row takes
    its first candidate whose value is at least f0 + SUFFICIENT_INCREASE *
    gamma * gn2 (a NaN value never is).  Rows not pending at the start, and
    rows that run out of attempts, keep their x0 row.
    """
    out = x0.copy()
    gamma = np.full(x0.shape[0], GAMMA0)
    if pending is None:
        pending = np.ones(x0.shape[0], dtype=bool)
    for _ in range(MAX_BACKTRACKS + 1):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            break
        cand = propose(idx, gamma[idx])
        ok = value(idx, cand) >= f0[idx] + SUFFICIENT_INCREASE * gamma[idx] * gn2[idx]
        acc = idx[ok]
        out[acc] = cand[ok]
        pending[acc] = False
        gamma[idx[~ok]] *= SHRINK
    return out


# ---------------------------------------------------------------------------
# respondent phase


def theta_block(th_rows, a_t, du, dl, y_is_min, y_is_max, mf, sinv):
    """One line-searched gradient step for each respondent row in the block."""

    def cells(rows, th):
        return cell_loglik(outer_sum(th, a_t), du[rows], dl[rows],
                           y_is_min[rows], y_is_max[rows], mf[rows])

    def prior(th):
        return 0.5 * quad_form_rows(th, sinv)

    ll, cu, cl, den = cells(_ALL, th_rows)
    g = _loglik_grad(cu, cl, den, mf, a_t) - outer_sum(th_rows, sinv.T)
    return line_search(
        th_rows, row_norm_sq(g), ll - prior(th_rows),
        lambda idx, gamma: th_rows[idx] + gamma[:, None] * g[idx],
        lambda idx, th: cells(idx, th)[0] - prior(th),
    )


# ---------------------------------------------------------------------------
# item phase: loadings


def a_block(a_rows, th_t, du, dl, y_is_min, y_is_max, mf, lam):
    """One line-searched proximal gradient step per item row in the block.

    The acceptance value is the column log-likelihood minus lam * ||a||_1,
    evaluated at the post-threshold point; the sufficient-increase test uses
    the smooth-part gradient norm.
    """

    def cells(rows, a):
        return cell_loglik(outer_sum(a, th_t), du[rows], dl[rows],
                           y_is_min[rows], y_is_max[rows], mf[rows])

    def penalty(a):
        return lam * np.abs(a).sum(axis=1)

    ll, cu, cl, den = cells(_ALL, a_rows)
    g = _loglik_grad(cu, cl, den, mf, th_t)
    pending = np.ones(a_rows.shape[0], dtype=bool)
    if lam > 0:
        # rows pinned at zero by the threshold stay zero at every step size
        pending &= ~(np.all(a_rows == 0.0, axis=1) & np.all(np.abs(g) <= lam, axis=1))
    return line_search(
        a_rows, row_norm_sq(g), ll - penalty(a_rows),
        lambda idx, gamma: soft_threshold(a_rows[idx] + gamma[:, None] * g[idx],
                                          (lam * gamma)[:, None]),
        lambda idx, a: cells(idx, a)[0] - penalty(a),
        pending,
    )


# ---------------------------------------------------------------------------
# item phase: intercepts


def d_block(a_rows, th_t, d_rows, nt_rows, yt, y_is_min, y_is_max, mf, idx_u,
            idx_l, sigma_d_sq):
    """One line-searched gradient step in delta space per item row.

    Returns a padded intercept block whose rows stay strictly decreasing;
    proposals whose mapped intercepts are not finite and strictly decreasing
    come back as NaN rows, which the line search rejects.
    """
    d_max = d_rows.shape[1]
    valid = np.arange(d_max)[None, :] < nt_rows[:, None]
    z = outer_sum(a_rows, th_t)

    def cells(rows, d):
        return cell_loglik(z[rows], np.take_along_axis(d, idx_u[rows], axis=1),
                           np.take_along_axis(d, idx_l[rows], axis=1),
                           y_is_min[rows], y_is_max[rows], mf[rows])

    def prior(rows, d):
        return 0.5 * (np.where(valid[rows], d, 0.0) ** 2).sum(axis=1) / sigma_d_sq

    def propose(idx, gamma):
        step = delta[idx] + gamma[:, None] * g_delta[idx]
        # d_1 = delta_1, d_c = delta_1 - sum_{c' <= c} exp(delta_c')
        drop = np.cumsum(np.exp(step[:, 1:]), axis=1)
        d = np.where(valid[idx], np.concatenate([step[:, :1], step[:, :1] - drop], axis=1),
                     0.0)
        # exp terms that overflow, underflow to 0, or vanish against d_1 in
        # rounding leave d non-finite or not strictly decreasing
        usable = np.isfinite(d).all(axis=1) & (
            (np.diff(d, axis=1) < 0.0) | ~valid[idx, 1:]).all(axis=1)
        return np.where(usable[:, None], d, np.nan)

    ll, cu, cl, den = cells(_ALL, d_rows)

    up_w = cu * (1.0 - cu) / den
    dn_w = cl * (1.0 - cl) / den
    g_d = np.zeros_like(d_rows)
    for m in range(d_max):
        up = np.where((yt == m + 1) & (mf > 0), up_w, 0.0).sum(axis=1)
        dn = np.where((yt == m) & (mf > 0) & ((m + 1) <= nt_rows[:, None]),
                      dn_w, 0.0).sum(axis=1)
        g_d[:, m] = up - dn
    g_d -= np.where(valid, d_rows, 0.0) / sigma_d_sq
    g_d = np.where(valid, g_d, 0.0)

    # delta = (d_1, log(d_1 - d_2), ...), zero at padded positions
    delta = np.empty_like(d_rows)
    delta[:, 0] = d_rows[:, 0]
    delta[:, 1:] = np.log(np.where(valid[:, 1:], d_rows[:, :-1] - d_rows[:, 1:], 1.0))
    trail = np.cumsum(g_d[:, ::-1], axis=1)[:, ::-1]
    g_delta = np.empty_like(g_d)
    g_delta[:, 0] = trail[:, 0]
    g_delta[:, 1:] = -np.exp(delta[:, 1:]) * trail[:, 1:]
    g_delta = np.where(valid, g_delta, 0.0)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return line_search(d_rows, row_norm_sq(g_delta), ll - prior(_ALL, d_rows),
                           propose, lambda idx, d: cells(idx, d)[0] - prior(idx, d))


# ---------------------------------------------------------------------------
# full objective


def log_likelihood(a, d_pad, th_t, y_is_min, y_is_max, mf, idx_u, idx_l):
    """Masked log-likelihood over an item-major (J x N) data set."""
    ll, _, _, _ = cell_loglik(outer_sum(a, th_t),
                              np.take_along_axis(d_pad, idx_u, axis=1),
                              np.take_along_axis(d_pad, idx_l, axis=1),
                              y_is_min, y_is_max, mf)
    return float(np.sum(ll))


def full_objective(a, d_pad, nt, th_t, y_is_min, y_is_max, mf, idx_u, idx_l,
                   sinv, log_det, lam, sigma_d_sq):
    """Objective over the whole data set in one deterministic global pass.

    Layout is item-major (J x N).  Matches the per-cell reference
    implementation up to floating-point addition order.
    """
    n = th_t.shape[1]
    k = th_t.shape[0]
    valid = np.arange(d_pad.shape[1])[None, :] < nt[:, None]

    ll = log_likelihood(a, d_pad, th_t, y_is_min, y_is_max, mf, idx_u, idx_l)

    quad = quad_form_rows(np.ascontiguousarray(th_t.T), sinv)
    prior_theta = n * (-0.5 * k * np.log(2.0 * np.pi) - 0.5 * log_det) \
        - 0.5 * float(np.sum(quad))

    if lam > 0:
        prior_a = a.size * np.log(lam / 2.0) - lam * float(np.sum(np.abs(a)))
    else:
        prior_a = 0.0

    n_thresh = float(np.sum(nt))
    quad_d = float(np.sum((np.where(valid, d_pad, 0.0) ** 2).sum(axis=1)))
    prior_d = -0.5 * n_thresh * np.log(2.0 * np.pi * sigma_d_sq) \
        - 0.5 * quad_d / sigma_d_sq

    return float(ll + prior_theta + prior_a + prior_d)
