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
factor-score, loading and intercept updates differ only in the penalty,
the proposal and the gradient mapping they hand to it.  Each block's gradient comes from its
head (:func:`theta_head`, :func:`loglik_head`, :func:`d_head`).

Intercept vectors of unequal length are stored in a zero-padded J x Dmax
matrix together with the per-item count of real entries.  The kernel reads
them through :func:`bracket_intercepts`, which widens item j's row to
[+inf, d_1, ..., d_{C_j-1}, -inf, ..., -inf]: category y lies between
columns y and y + 1, which states P(Y >= 0) = 1 and P(Y >= C_j) = 0 as
intercepts.  expit(+inf) and expit(-inf) are exactly 1.0 and 0.0, so the
lowest and highest categories need no case of their own.  Padded entries
are exactly 0.0: pad_intercepts zero-fills them and d_block's proposals
keep them 0.0 (or reject the whole row), so the intercept prior's sums of
squares and its gradient need no mask.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .model import PROB_FLOOR

# Backtracking line search on the step grid GAMMA0 * SHRINK**i, i = 0..
# MAX_BACKTRACKS: a step gamma is accepted when the row value gains at least
# SUFFICIENT_INCREASE * gamma * ||G||^2, where G is the row's gradient
# mapping: the gradient itself for the smooth factor-score and intercept
# steps, (a+ - a) / gamma for the proximal loading step (the backtracking
# rule of Beck & Teboulle 2009, which small steps meet even at a KKT point,
# where the gradient itself stays large).  Each row starts at its own step
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
    """Stack per-item intercept vectors into a zero-padded J x Dmax block."""
    d_pad = np.zeros((len(intercepts), max(d.size for d in intercepts)))
    for j, d in enumerate(intercepts):
        d_pad[j, : d.size] = d
    return d_pad


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


def live_cells(den, mf):
    """mf with the cells whose probability is floored set to 0.

    Where cu - cl <= PROB_FLOOR, den is PROB_FLOOR and cell_loglik's
    log(den) is constant, so such a cell adds nothing to any gradient.
    """
    return mf * (den > PROB_FLOOR)


def loglik_head(x_rows, vt, du, dl, mf):
    """Row log-likelihoods and their gradients with respect to each row.

    A row is a factor-score row against the loadings (vt = a') or a loading
    row against the factor scores (vt = theta'); the gradient weight of a
    cell is w = [cu(1 - cu) - cl(1 - cl)] / den, and 0 where the cell's
    probability is floored (live_cells).
    """
    ll, cu, cl, den = cell_loglik(outer_sum(x_rows, vt), du, dl, mf)
    w = ((cu * (1.0 - cu)) - (cl * (1.0 - cl))) / den * live_cells(den, mf)
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
    Cells whose probability is floored have weight 0 (live_cells).
    """
    valid = np.arange(d_rows.shape[1])[None, :] < nt_rows[:, None]
    z = outer_sum(a_rows, th_t)
    ll, cu, cl, den = cell_loglik(z, *bracket_intercepts(d_rows, nt_rows, yt), mf)

    up_w = cu * (1.0 - cu) / den
    dn_w = cl * (1.0 - cl) / den
    live = live_cells(den, mf) > 0
    g_d = np.zeros_like(d_rows)
    for m in range(d_rows.shape[1]):
        up = np.where((yt == m + 1) & live, up_w, 0.0).sum(axis=1)
        dn = np.where((yt == m) & live, dn_w, 0.0).sum(axis=1)
        g_d[:, m] = up - dn
    g_d -= d_rows / sigma_d_sq
    g_d = np.where(valid, g_d, 0.0)

    delta = np.empty_like(d_rows)
    delta[:, 0] = d_rows[:, 0]
    delta[:, 1:] = np.log(np.where(valid[:, 1:], d_rows[:, :-1] - d_rows[:, 1:], 1.0))
    trail = np.cumsum(g_d[:, ::-1], axis=1)[:, ::-1]
    g_delta = np.empty_like(g_d)
    g_delta[:, 0] = trail[:, 0]
    g_delta[:, 1:] = -np.exp(delta[:, 1:]) * trail[:, 1:]
    return ll, g_d, delta, np.where(valid, g_delta, 0.0), z


def line_search(x0, ll0, penalty, loglik, propose, mapping_sq, pending=None,
                step=None):
    """Row-wise backtracking ascent from x0.

    Returns (rows, accepted steps, row log-likelihoods).  A row's value is
    loglik(idx, x) - penalty(idx, x) for the rows idx (penalty(_ALL, x0) at
    the start); ll0 is loglik at x0, which the block's head has computed.
    propose(idx, gamma) returns candidate rows for the pending rows idx at
    their step sizes and mapping_sq(idx, gamma, cand) the squared norms of
    their gradient mappings.  A step is accepted when the value gains at
    least SUFFICIENT_INCREASE * gamma * mapping_sq (a NaN value never
    does).  Each row starts at its entry of step (default GAMMA0), a point
    of the grid GAMMA0 * SHRINK**i.  If that step is accepted, the row
    divides it by SHRINK while the result is accepted and at most GAMMA0,
    and keeps the last accepted step; otherwise it multiplies it by SHRINK
    until a step is accepted.  A start at GAMMA0 is the plain backtracking
    search.  Wherever a row's accepted steps on the grid are closed
    downwards, every start gives the same row: the one at its largest
    accepted step.

    Rows not pending at the start keep x0, ll0 and their start step; rows
    that run out of grid keep x0 and ll0 and report GAMMA_FLOOR.  Every
    other row's log-likelihood is the one its accepted step was judged by.
    """
    out = x0.copy()
    ll = ll0.copy()
    f0 = ll0 - penalty(_ALL, x0)
    gamma = np.full(x0.shape[0], GAMMA0) if step is None else step.copy()
    step = gamma.copy()  # the row's last accepted step, once it has one
    # +1 once a row's start is accepted (growing), -1 once it is rejected
    heading = np.zeros(x0.shape[0], dtype=np.int8)
    pending = np.ones(x0.shape[0], dtype=bool) if pending is None else pending.copy()
    # every row visits the grid in one direction, so at most its size
    for _ in range(MAX_BACKTRACKS + 1):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            break
        cand = propose(idx, gamma[idx])
        cand_ll = loglik(idx, cand)
        ok = cand_ll - penalty(idx, cand) >= f0[idx] + (
            SUFFICIENT_INCREASE * gamma[idx] * mapping_sq(idx, gamma[idx], cand))
        acc, rej = idx[ok], idx[~ok]
        out[acc] = cand[ok]
        ll[acc] = cand_ll[ok]
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
    return out, step, ll


# ---------------------------------------------------------------------------
# respondent phase


def _loglik_against(vt, du, dl, mf):
    """line_search's loglik for rows x of the block rows idx against vt."""
    return lambda idx, x: cell_loglik(outer_sum(x, vt), du[idx], dl[idx], mf[idx])[0]


def theta_block(th_rows, a_t, du, dl, mf, sinv, step=None):
    """One line-searched gradient step per respondent row in the block.

    step holds each row's start step (default GAMMA0); returns the new rows
    and their accepted steps.  Away from the probability floor the row
    objective is strictly concave, so its accepted steps are closed
    downwards and every start gives the row a cold search gives.
    """
    ll, g = theta_head(th_rows, a_t, du, dl, mf, sinv)
    gn2 = row_norm_sq(g)
    return line_search(
        th_rows, ll, lambda idx, th: 0.5 * quad_form_rows(th, sinv),
        _loglik_against(a_t, du, dl, mf),
        lambda idx, gamma: th_rows[idx] + gamma[:, None] * g[idx],
        lambda idx, gamma, th: gn2[idx],
        step=step,
    )[:2]


# ---------------------------------------------------------------------------
# item phase: loadings


def a_block(a_rows, th_t, du, dl, mf, lam, step=None):
    """One line-searched proximal gradient step per item row in the block.

    step holds each row's start step (default GAMMA0); returns the new rows
    and their accepted steps.  The row value is the item's log-likelihood
    minus lam * ||a||_1 at the post-threshold point a+, and a step is
    accepted on the gradient mapping (a+ - a) / gamma, so a row at or near
    a KKT point still accepts every step up to about the inverse curvature
    of its smooth part.  Where a row's accepted steps are closed downwards,
    every start gives the row a cold search gives; through the threshold
    they need not be, and a warm start can then end on another step.
    """
    ll, g = loglik_head(a_rows, th_t, du, dl, mf)
    pending = np.ones(a_rows.shape[0], dtype=bool)
    if lam > 0:
        # rows pinned at zero by the threshold stay zero at every step size
        pending &= ~(np.all(a_rows == 0.0, axis=1) & np.all(np.abs(g) <= lam, axis=1))
    return line_search(
        a_rows, ll, lambda idx, a: lam * np.abs(a).sum(axis=1),
        _loglik_against(th_t, du, dl, mf),
        lambda idx, gamma: soft_threshold(a_rows[idx] + gamma[:, None] * g[idx],
                                          (lam * gamma)[:, None]),
        lambda idx, gamma, a: row_norm_sq((a - a_rows[idx]) / gamma[:, None]),
        pending, step,
    )[:2]


# ---------------------------------------------------------------------------
# item phase: intercepts


def d_block(a_rows, th_t, d_rows, nt_rows, yt, mf, sigma_d_sq, step=None):
    """One line-searched gradient step in delta space per item row.

    step holds each row's start step (default GAMMA0).  Returns a padded
    intercept block whose rows stay strictly decreasing, the accepted steps
    and each row's log-likelihood at the returned intercepts; proposals
    whose mapped intercepts are not finite and strictly decreasing come
    back as NaN rows, which the line search rejects.  A warm start ends on
    the cold search's step except where the row's gain is at rounding level
    and acceptance is noise.
    """
    ll, _, delta, g_delta, z = d_head(a_rows, th_t, d_rows, nt_rows, yt, mf,
                                      sigma_d_sq)
    valid = np.arange(d_rows.shape[1])[None, :] < nt_rows[:, None]
    gn2 = row_norm_sq(g_delta)

    def loglik(rows, d):
        return cell_loglik(z[rows], *bracket_intercepts(d, nt_rows[rows], yt[rows]),
                           mf[rows])[0]

    def prior(rows, d):
        return 0.5 * (d ** 2).sum(axis=1) / sigma_d_sq

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
        return line_search(d_rows, ll, prior, loglik, propose,
                           lambda idx, gamma, d: gn2[idx], step=step)


# ---------------------------------------------------------------------------
# full objective


def item_loglik(a, d_pad, nt, th_t, yt, mf):
    """Masked log-likelihood of each item row of an item-major (J x N) data set."""
    return cell_loglik(outer_sum(a, th_t), *bracket_intercepts(d_pad, nt, yt), mf)[0]


def objective(ll_items, a, d_pad, nt, th_t, hyper):
    """Objective from the items' row log-likelihoods and hyper's priors.

    ll_items holds each item's log-likelihood as item_loglik or d_block
    computes it; fit's trace and full_objective both sum them here, so an
    iterate's trace entry and its full_objective agree bit for bit.
    """
    n = th_t.shape[1]
    k = th_t.shape[0]
    lam, sigma_d_sq = hyper.lam, hyper.sigma_d_sq

    ll = float(np.sum(ll_items))

    quad = quad_form_rows(np.ascontiguousarray(th_t.T), hyper.sigma_theta_inv)
    prior_theta = n * (-0.5 * k * np.log(2.0 * np.pi)
                       - 0.5 * hyper.log_det_sigma_theta) - 0.5 * float(np.sum(quad))

    if lam > 0:
        prior_a = a.size * np.log(lam / 2.0) - lam * float(np.sum(np.abs(a)))
    else:
        prior_a = 0.0

    n_thresh = float(np.sum(nt))
    quad_d = float(np.sum((d_pad ** 2).sum(axis=1)))
    prior_d = -0.5 * n_thresh * np.log(2.0 * np.pi * sigma_d_sq) \
        - 0.5 * quad_d / sigma_d_sq

    return float(ll + prior_theta + prior_a + prior_d)


def full_objective(a, d_pad, nt, th_t, yt, mf, hyper):
    """Objective over the whole data set in one deterministic global pass.

    Layout is item-major (J x N).  Matches the per-cell reference
    implementation up to floating-point addition order; fit calls it at the
    start only, and takes later trace entries from d_block's row values.
    """
    return objective(item_loglik(a, d_pad, nt, th_t, yt, mf), a, d_pad, nt, th_t,
                     hyper)
