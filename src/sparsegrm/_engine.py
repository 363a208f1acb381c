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
and the proposal they hand to it.  Each block's gradient comes from its
head (:func:`theta_head`, :func:`loglik_head`, :func:`d_head`).

Intercept vectors of unequal length are stored in a zero-padded J x Dmax
matrix together with the per-item count of real entries.  The kernel reads
them through :func:`bracket_intercepts`, which widens item j's row to
[+inf, d_1, ..., d_{C_j-1}, -inf, ..., -inf]: category y lies between
columns y and y + 1, which states P(Y >= 0) = 1 and P(Y >= C_j) = 0 as
intercepts.  expit(+inf) and expit(-inf) are exactly 1.0 and 0.0, so the
lowest and highest categories need no case of their own.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .model import PROB_FLOOR

# Backtracking line search on the step grid GAMMA0 * SHRINK**i, i = 0..
# MAX_BACKTRACKS: a step is accepted when the row value gains at least
# SUFFICIENT_INCREASE * gamma * ||grad||^2.  Each row starts at its own step
# (GAMMA0 for a cold search, the row's last accepted step when warm) and
# keeps the largest accepted step reachable from there; see line_search.
GAMMA0 = 1.0
SHRINK = 0.5
MAX_BACKTRACKS = 30
SUFFICIENT_INCREASE = 1e-4
GAMMA_FLOOR = GAMMA0 * SHRINK ** MAX_BACKTRACKS

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


def bracket_intercepts(d_rows, nt_rows, yt):
    """Upper and lower intercepts (du, dl) of each cell's category.

    d_rows is a zero-padded intercept block with nt_rows real entries per
    row, yt the categories of the rows' cells.  du and dl are columns y and
    y + 1 of the bracket table (module docstring); unobserved cells are
    stored as category 0, so every index is in range.
    """
    real = np.arange(d_rows.shape[1])[None, :] < nt_rows[:, None]
    edge = np.full((d_rows.shape[0], 1), np.inf)
    table = np.concatenate([edge, np.where(real, d_rows, -np.inf), -edge], axis=1)
    return (np.take_along_axis(table, yt, axis=1),
            np.take_along_axis(table[:, 1:], yt, axis=1))


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
# cell kernel, gradient heads and line search


def adjacent_cums(z, du, dl):
    """Upper/lower cumulative probabilities for each cell's own category."""
    return expit(z + du), expit(z + dl)


def cell_loglik(z, du, dl, mf):
    """Row sums of masked log category probabilities, plus (cu, cl, den).

    z is the linear predictor per cell, du/dl the intercepts bracketing the
    cell's category, mf the 0/1 cell mask; den = max(cu - cl, PROB_FLOOR)
    is the cell's category probability.
    """
    cu, cl = adjacent_cums(z, du, dl)
    den = np.maximum(cu - cl, PROB_FLOOR)
    return (np.log(den) * mf).sum(axis=1), cu, cl, den


def loglik_head(x_rows, vt, du, dl, mf):
    """Row log-likelihoods and their gradients with respect to each row.

    A row is a factor-score row against the loadings (vt = a') or a loading
    row against the factor scores (vt = theta'); the gradient weight of a
    cell is w = [cu(1 - cu) - cl(1 - cl)] / den.
    """
    ll, cu, cl, den = cell_loglik(outer_sum(x_rows, vt), du, dl, mf)
    w = ((cu * (1.0 - cu)) - (cl * (1.0 - cl))) / den * mf
    g = np.empty((w.shape[0], vt.shape[0]), dtype=np.float64)
    for k in range(vt.shape[0]):
        g[:, k] = (w * vt[k][None, :]).sum(axis=1)
    return ll, g


def theta_head(th_rows, a_t, du, dl, mf, sinv):
    """Row log-likelihoods and objective gradients of factor-score rows."""
    ll, g = loglik_head(th_rows, a_t, du, dl, mf)
    return ll, g - outer_sum(th_rows, sinv.T)


def d_head(a_rows, th_t, d_rows, nt_rows, yt, mf, sigma_d_sq):
    """Row log-likelihoods and objective gradients of intercept rows.

    Returns (ll, g_d, delta, g_delta, z): the gradients in d and in delta =
    (d_1, log(d_1 - d_2), ...), delta (0 where padded) and the cells' z.
    """
    valid = np.arange(d_rows.shape[1])[None, :] < nt_rows[:, None]
    z = outer_sum(a_rows, th_t)
    ll, cu, cl, den = cell_loglik(z, *bracket_intercepts(d_rows, nt_rows, yt), mf)

    up_w = cu * (1.0 - cu) / den
    dn_w = cl * (1.0 - cl) / den
    g_d = np.zeros_like(d_rows)
    for m in range(d_rows.shape[1]):
        up = np.where((yt == m + 1) & (mf > 0), up_w, 0.0).sum(axis=1)
        dn = np.where((yt == m) & (mf > 0), dn_w, 0.0).sum(axis=1)
        g_d[:, m] = up - dn
    g_d -= np.where(valid, d_rows, 0.0) / sigma_d_sq
    g_d = np.where(valid, g_d, 0.0)

    delta = np.empty_like(d_rows)
    delta[:, 0] = d_rows[:, 0]
    delta[:, 1:] = np.log(np.where(valid[:, 1:], d_rows[:, :-1] - d_rows[:, 1:], 1.0))
    trail = np.cumsum(g_d[:, ::-1], axis=1)[:, ::-1]
    g_delta = np.empty_like(g_d)
    g_delta[:, 0] = trail[:, 0]
    g_delta[:, 1:] = -np.exp(delta[:, 1:]) * trail[:, 1:]
    return ll, g_d, delta, np.where(valid, g_delta, 0.0), z


def line_search(x0, gn2, f0, propose, value, pending=None, step=None):
    """Row-wise backtracking ascent from x0; returns (rows, accepted steps).

    propose(idx, gamma) returns candidate rows for the pending rows idx at
    their step sizes and value(idx, cand) their row values.  A step is
    accepted when the value is at least f0 + SUFFICIENT_INCREASE * gamma *
    gn2 (a NaN value never is).  Each row starts at its entry of step
    (default GAMMA0), a point of the grid GAMMA0 * SHRINK**i.  If that step
    is accepted, the row divides it by SHRINK while the result is accepted
    and at most GAMMA0, and keeps the last accepted step; otherwise it
    multiplies it by SHRINK until a step is accepted.  A start at GAMMA0 is
    the plain backtracking search.  Wherever a row's accepted steps on the
    grid are closed downwards, every start gives the same row: the one at
    its largest accepted step.

    Rows not pending at the start keep x0 and their start step; rows that
    run out of grid keep x0 and report GAMMA_FLOOR.
    """
    out = x0.copy()
    gamma = np.full(x0.shape[0], GAMMA0) if step is None else step.copy()
    step = gamma.copy()  # the row's last accepted step, once it has one
    # +1 once a row's start is accepted (growing), -1 once it is rejected
    heading = np.zeros(x0.shape[0], dtype=np.int8)
    if pending is None:
        pending = np.ones(x0.shape[0], dtype=bool)
    # every row visits the grid in one direction, so at most its size
    for _ in range(MAX_BACKTRACKS + 1):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            break
        cand = propose(idx, gamma[idx])
        ok = value(idx, cand) >= f0[idx] + SUFFICIENT_INCREASE * gamma[idx] * gn2[idx]
        acc, rej = idx[ok], idx[~ok]
        out[acc] = cand[ok]
        step[acc] = gamma[acc]
        # a growing row stops at its first rejection, a shrinking row at its
        # first acceptance
        pending[idx] = False
        grow, shrink = acc[heading[acc] >= 0], rej[heading[rej] <= 0]
        heading[grow], heading[shrink] = 1, -1
        gamma[grow] /= SHRINK
        gamma[shrink] *= SHRINK
        pending[grow] = gamma[grow] <= GAMMA0
        pending[shrink] = gamma[shrink] >= GAMMA_FLOOR
        step[shrink[gamma[shrink] < GAMMA_FLOOR]] = GAMMA_FLOOR
    return out, step


# ---------------------------------------------------------------------------
# respondent phase


def theta_block(th_rows, a_t, du, dl, mf, sinv, step=None):
    """One line-searched gradient step per respondent row in the block.

    step holds each row's start step (default GAMMA0); returns the new rows
    and their accepted steps.  Away from the probability floor the row
    objective is strictly concave, so its accepted steps are closed
    downwards and every start gives the row a cold search gives.
    """

    def cells(rows, th):
        return cell_loglik(outer_sum(th, a_t), du[rows], dl[rows], mf[rows])

    def prior(th):
        return 0.5 * quad_form_rows(th, sinv)

    ll, g = theta_head(th_rows, a_t, du, dl, mf, sinv)
    return line_search(
        th_rows, row_norm_sq(g), ll - prior(th_rows),
        lambda idx, gamma: th_rows[idx] + gamma[:, None] * g[idx],
        lambda idx, th: cells(idx, th)[0] - prior(th),
        step=step,
    )


# ---------------------------------------------------------------------------
# item phase: loadings


def a_block(a_rows, th_t, du, dl, mf, lam):
    """One line-searched proximal gradient step per item row in the block.

    The acceptance value is the column log-likelihood minus lam * ||a||_1,
    evaluated at the post-threshold point; the sufficient-increase test uses
    the smooth-part gradient norm.  The search always starts at GAMMA0:
    through the threshold, acceptance need not be monotone in the step, so
    a warm start could end on a different step than the cold search.
    """

    def cells(rows, a):
        return cell_loglik(outer_sum(a, th_t), du[rows], dl[rows], mf[rows])

    def penalty(a):
        return lam * np.abs(a).sum(axis=1)

    ll, g = loglik_head(a_rows, th_t, du, dl, mf)
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
    )[0]


# ---------------------------------------------------------------------------
# item phase: intercepts


def d_block(a_rows, th_t, d_rows, nt_rows, yt, mf, sigma_d_sq, step=None):
    """One line-searched gradient step in delta space per item row.

    step holds each row's start step (default GAMMA0).  Returns a padded
    intercept block whose rows stay strictly decreasing, and the accepted
    steps; proposals whose mapped intercepts are not finite and strictly
    decreasing come back as NaN rows, which the line search rejects.  A
    warm start ends on the cold search's step except where the row's gain
    is at rounding level and acceptance is noise.
    """
    ll, _, delta, g_delta, z = d_head(a_rows, th_t, d_rows, nt_rows, yt, mf,
                                      sigma_d_sq)
    valid = np.arange(d_rows.shape[1])[None, :] < nt_rows[:, None]

    def cells(rows, d):
        return cell_loglik(z[rows], *bracket_intercepts(d, nt_rows[rows], yt[rows]),
                           mf[rows])

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

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return line_search(d_rows, row_norm_sq(g_delta), ll - prior(_ALL, d_rows),
                           propose, lambda idx, d: cells(idx, d)[0] - prior(idx, d),
                           step=step)


# ---------------------------------------------------------------------------
# full objective


def log_likelihood(a, d_pad, nt, th_t, yt, mf):
    """Masked log-likelihood over an item-major (J x N) data set."""
    ll, _, _, _ = cell_loglik(outer_sum(a, th_t), *bracket_intercepts(d_pad, nt, yt),
                              mf)
    return float(np.sum(ll))


def full_objective(a, d_pad, nt, th_t, yt, mf, sinv, log_det, lam, sigma_d_sq):
    """Objective over the whole data set in one deterministic global pass.

    Layout is item-major (J x N).  Matches the per-cell reference
    implementation up to floating-point addition order.
    """
    n = th_t.shape[1]
    k = th_t.shape[0]
    valid = np.arange(d_pad.shape[1])[None, :] < nt[:, None]

    ll = log_likelihood(a, d_pad, nt, th_t, yt, mf)

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
