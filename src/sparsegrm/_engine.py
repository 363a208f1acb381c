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
the proposal and the gradient mapping they hand to it.  A block's head
(:func:`theta_head`, :func:`loglik_head`, :func:`d_head`) evaluates no
cell: it reads the cells (cu, cl) handed in for the block's rows, and the
line search leaves there the cells at the rows the block returns.  These
cross between respondent and item rows bit for bit, as outer_sum adds the
same products in the same k order in both.

Intercept vectors of unequal length are stored in a zero-padded J x Dmax
matrix; the J x Dmax boolean mask valid marks its real entries.  The kernel
reads them from :func:`bracket_table`, which widens item j's row to
[+inf, d_1, ..., d_{C_j-1}, -inf, ..., -inf, +inf, -inf]: category y lies
between columns y and y + 1, which states P(Y >= 0) = 1 and P(Y >= C_j) = 0
as intercepts, and the kernel's sigmoid (model.inverse_logit) is exactly 1.0
at +inf and 0.0 at -inf.  numpy's exp leaves its fast vector loop for
infinite and very large arguments, so :func:`adjacent_cums` clamps each
sigmoid argument where the result is already exact, keeping every bit.  An
unobserved cell has category Dmax + 2 (:func:`item_categories`), so its
cells are exactly (1.0, 0.0) and it adds 0.0 to every sum: no function takes
the missingness mask.  A cell reads both columns at one flat index
(:func:`cell_index`, :func:`take_brackets`).  optimizer._Workspace states
this layout once per data set (valid, categories, flat indices); only
d_block's candidate tables compute flat indices again.  Padded entries are
exactly 0.0: pad_intercepts zero-fills them and d_block's proposals keep
them 0.0 (or reject the whole row), so the intercept prior's sums of
squares and its gradient need no mask.
"""

from __future__ import annotations

import numpy as np

from .model import PROB_FLOOR, inverse_logit

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

def pad_intercepts(intercepts):
    """Stack per-item intercept vectors into a zero-padded J x Dmax block."""
    d_pad = np.zeros((len(intercepts), max(d.size for d in intercepts)))
    for j, d in enumerate(intercepts):
        d_pad[j, : d.size] = d
    return d_pad


def unpad_intercepts(d_pad, valid):
    return [row[real] for row, real in zip(d_pad, valid)]


def bracket_table(d_rows, valid_rows):
    """Bracket rows [+inf, d_1, ..., d_{C_j-1}, -inf, ..., -inf, +inf, -inf] of d_rows."""
    edge = np.full((d_rows.shape[0], 1), np.inf)
    real = np.where(valid_rows, d_rows, -np.inf)
    return np.concatenate([edge, real, -edge, edge, -edge], 1)


def item_categories(responses, mask, dmax):
    """Item-major (J x N) categories of the cells, dmax + 2 where mask is False."""
    return np.ascontiguousarray(np.where(mask, responses, dmax + 2).T)


def cell_index(yt, dmax):
    """Flat index r * (dmax + 4) + y of each cell into its rows' bracket table."""
    return yt + (dmax + 4) * np.arange(yt.shape[0])[:, None]


def take_brackets(table, idx):
    """Columns y and y + 1 (du, dl) of table at each cell's flat index idx."""
    return np.take(table, idx), np.take(table.ravel()[1:], idx)


def to_delta(d_rows, valid):
    """Rows of delta = (d_1, log(d_1 - d_2), ...), 0.0 where not valid."""
    gaps = np.where(valid[:, 1:], d_rows[:, :-1] - d_rows[:, 1:], 1.0)
    return np.concatenate([d_rows[:, :1], np.log(gaps)], axis=1)


def to_d(delta_rows, valid):
    """Inverse of to_delta: d_c = delta_1 - sum_{1 < c' <= c} exp(delta_c')."""
    head = delta_rows[:, :1]
    d = np.concatenate([head, head - np.cumsum(np.exp(delta_rows[:, 1:]), axis=1)], axis=1)
    return np.where(valid, d, 0.0)


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
    """Upper/lower cumulative probabilities of each cell's own category.

    Bit for bit inverse_logit(z + du) and inverse_logit(z + dl), with each
    argument clamped where the sigmoid is already exact, so that no +-inf
    (du is finite or +inf, dl finite or -inf) reaches exp.  The upper one is
    capped at 40: from 37 on, 1 + exp(-x) rounds to 1.0.  The lower one is
    raised to -700 and its cells below -700 set to 0.0 only when each of
    them is -inf; a finite one there needs exp's own result.
    """
    xu = np.add(z, du)
    cu = inverse_logit(np.minimum(xu, 40.0, out=xu), out=xu)
    xl = np.add(z, dl)
    low = xl < -700.0
    if np.count_nonzero(low) != np.count_nonzero(xl == -np.inf):
        return cu, inverse_logit(xl, out=xl)
    cl = inverse_logit(np.maximum(xl, -700.0, out=xl), out=xl)
    return cu, np.multiply(cl, ~low, out=cl)


def cell_loglik(z, du, dl):
    """Row log-likelihoods and cells (cu, cl) of predictors z and brackets du/dl."""
    cu, cl = adjacent_cums(z, du, dl)
    return row_loglik(cu, cl)[0], cu, cl


def row_loglik(cu, cl):
    """cell_loglik's row sums from the cells, plus den = max(cu - cl, PROB_FLOOR)."""
    den = np.maximum(cu - cl, PROB_FLOOR)
    return np.log(den).sum(axis=1), den


def live_cells(den):
    """False where cu - cl <= PROB_FLOOR: there den is floored and log(den)
    constant, so the cell adds nothing to any gradient."""
    return den > PROB_FLOOR


def loglik_head(vt, cu, cl):
    """Row log-likelihoods and their gradients with respect to each row.

    A row is a factor-score row against the loadings (vt = a') or a loading
    row against the factor scores (vt = theta'); the gradient weight of a
    cell is w = [cu(1 - cu) - cl(1 - cl)] / den: 0 where the cell's
    probability is floored (live_cells), and 0.0 at an unobserved cell.
    """
    ll, den = row_loglik(cu, cl)
    w = ((cu * (1.0 - cu)) - (cl * (1.0 - cl))) / den * live_cells(den)
    g = np.empty((w.shape[0], vt.shape[0]), dtype=np.float64)
    for k in range(vt.shape[0]):
        g[:, k] = (w * vt[k][None, :]).sum(axis=1)
    return ll, g


def theta_head(th_rows, a_t, cu, cl, sinv):
    """Row log-likelihoods and objective gradients of factor-score rows."""
    ll, g = loglik_head(a_t, cu, cl)
    return ll, g - outer_sum(th_rows, sinv.T)


def d_head(d_rows, valid, yt, cu, cl, sigma_d_sq):
    """Row log-likelihoods and objective gradients of intercept rows.

    Returns (ll, g_d, delta, g_delta): the gradients in d and in delta
    (to_delta; 0 where padded) and delta itself.  Cells whose probability
    is floored have weight 0 (live_cells); an unobserved cell's category
    names no intercept.
    """
    ll, den = row_loglik(cu, cl)

    up_w = cu * (1.0 - cu) / den
    dn_w = cl * (1.0 - cl) / den
    live = live_cells(den)
    g_d = np.zeros_like(d_rows)
    for m in range(d_rows.shape[1]):
        up = np.where((yt == m + 1) & live, up_w, 0.0).sum(axis=1)
        dn = np.where((yt == m) & live, dn_w, 0.0).sum(axis=1)
        g_d[:, m] = up - dn
    g_d = np.where(valid, g_d - d_rows / sigma_d_sq, 0.0)

    delta = to_delta(d_rows, valid)
    trail = np.cumsum(g_d[:, ::-1], axis=1)[:, ::-1]
    jac = np.concatenate([np.ones_like(delta[:, :1]), -np.exp(delta[:, 1:])], axis=1)
    return ll, g_d, delta, np.where(valid, trail * jac, 0.0)


def line_search(x0, ll0, cu, cl, penalty, loglik, propose, mapping_sq, pending=None,
                step=None):
    """Row-wise backtracking ascent from x0.

    Returns (rows, accepted steps, row log-likelihoods) and leaves in cu, cl
    (the cells at x0) the cells at the returned rows.  A row's value is its
    log-likelihood minus penalty(x); loglik(idx, x) returns cell_loglik's
    (row log-likelihoods, cu, cl) for the rows idx, and ll0 is the head's.
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

    Rows not pending at the start keep x0, ll0, their cells and their start
    step; rows that run out of grid keep them too but report GAMMA_FLOOR,
    which a searching row's step holds until the row accepts one.  Every
    other row's log-likelihood and cells are the ones its accepted step was
    judged by.  Besides out, ll and step, a pass carries only the rows still
    searching: their indices, next steps and directions.
    """
    out = x0.copy()
    ll = ll0.copy()
    f0 = ll0 - penalty(x0)
    step = np.full(x0.shape[0], GAMMA0) if step is None else step.copy()
    idx = np.arange(x0.shape[0]) if pending is None else np.flatnonzero(pending)
    gamma = step[idx]
    step[idx] = GAMMA_FLOOR
    grow = None  # True where the start was accepted, set by the first pass
    # every row visits the grid in one direction, so at most its size
    for _ in range(MAX_BACKTRACKS + 1):
        if idx.size == 0:
            break
        cand = propose(idx, gamma)
        cand_ll, cand_cu, cand_cl = loglik(idx, cand)
        ok = cand_ll - penalty(cand) >= f0[idx] + (
            SUFFICIENT_INCREASE * gamma * mapping_sq(idx, gamma, cand))
        acc = idx[ok]
        out[acc], ll[acc], step[acc] = cand[ok], cand_ll[ok], gamma[ok]
        cu[acc], cl[acc] = cand_cu[ok], cand_cl[ok]
        grow = ok if grow is None else grow
        # a growing row stops at its first rejection, a shrinking row at its
        # first acceptance or below the grid
        gamma = np.where(grow, gamma / SHRINK, gamma * SHRINK)
        in_grid = np.where(grow, gamma <= GAMMA0, gamma >= GAMMA_FLOOR)
        keep = (ok == grow) & in_grid
        idx, gamma, grow = idx[keep], gamma[keep], grow[keep]
    return out, step, ll


# ---------------------------------------------------------------------------
# respondent phase


def _loglik_against(vt, du, dl):
    """line_search's loglik for rows x of the block rows idx against vt."""
    return lambda idx, x: cell_loglik(outer_sum(x, vt), du[idx], dl[idx])


def theta_block(th_rows, a_t, du, dl, cu, cl, sinv, step=None):
    """One line-searched gradient step per respondent row in the block.

    step holds each row's start step (default GAMMA0); returns the new rows
    and their accepted steps.  Away from the probability floor the row
    objective is strictly concave, so its accepted steps are closed
    downwards and every start gives the row a cold search gives.
    """
    ll, g = theta_head(th_rows, a_t, cu, cl, sinv)
    gn2 = row_norm_sq(g)
    return line_search(
        th_rows, ll, cu, cl, lambda th: 0.5 * quad_form_rows(th, sinv),
        _loglik_against(a_t, du, dl),
        lambda idx, gamma: th_rows[idx] + gamma[:, None] * g[idx],
        lambda idx, gamma, th: gn2[idx], step=step)[:2]


# ---------------------------------------------------------------------------
# item phase: loadings


def a_block(a_rows, th_t, du, dl, cu, cl, lam, step=None):
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
    ll, g = loglik_head(th_t, cu, cl)
    pending = np.ones(a_rows.shape[0], dtype=bool)
    if lam > 0:
        # rows pinned at zero by the threshold stay zero at every step size
        pending &= ~(np.all(a_rows == 0.0, axis=1) & np.all(np.abs(g) <= lam, axis=1))
    return line_search(
        a_rows, ll, cu, cl, lambda a: lam * np.abs(a).sum(axis=1),
        _loglik_against(th_t, du, dl),
        lambda idx, gamma: soft_threshold(a_rows[idx] + gamma[:, None] * g[idx],
                                          (lam * gamma)[:, None]),
        lambda idx, gamma, a: row_norm_sq((a - a_rows[idx]) / gamma[:, None]),
        pending, step)[:2]


# ---------------------------------------------------------------------------
# item phase: intercepts


def d_block(a_rows, th_t, d_rows, valid, yt, cu, cl, sigma_d_sq, step=None):
    """One line-searched gradient step in delta space per item row.

    step holds each row's start step (default GAMMA0).  Returns a padded
    intercept block whose rows stay strictly decreasing, the accepted steps
    and each row's log-likelihood at the returned intercepts; proposals
    whose mapped intercepts are not finite and strictly decreasing come
    back as NaN rows, which the line search rejects.  A warm start ends on
    the cold search's step except where the row's gain is at rounding level
    and acceptance is noise.
    """
    ll, _, delta, g_delta = d_head(d_rows, valid, yt, cu, cl, sigma_d_sq)
    gn2 = row_norm_sq(g_delta)
    z = outer_sum(a_rows, th_t)

    def loglik(rows, d):
        table = bracket_table(d, valid[rows])
        return cell_loglik(z[rows], *take_brackets(table, cell_index(yt[rows], d.shape[1])))

    def propose(idx, gamma):
        d = to_d(delta[idx] + gamma[:, None] * g_delta[idx], valid[idx])
        # exp terms that overflow, underflow to 0, or vanish against d_1 in
        # rounding leave d non-finite or not strictly decreasing
        usable = np.isfinite(d).all(axis=1) & (
            (np.diff(d, axis=1) < 0.0) | ~valid[idx, 1:]).all(axis=1)
        return np.where(usable[:, None], d, np.nan)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return line_search(d_rows, ll, cu, cl,
                           lambda d: 0.5 * (d ** 2).sum(axis=1) / sigma_d_sq,
                           loglik, propose, lambda idx, gamma, d: gn2[idx], step=step)


# ---------------------------------------------------------------------------
# full objective


def item_loglik(a, d_pad, valid, th_t, idx_t):
    """cell_loglik of every cell of an item-major data set, at its flat indices idx_t."""
    return cell_loglik(outer_sum(a, th_t), *take_brackets(bracket_table(d_pad, valid), idx_t))


def objective(ll_items, a, d_pad, valid, th_t, hyper):
    """Objective from the items' row log-likelihoods and hyper's priors.

    ll_items holds each item's log-likelihood as item_loglik or d_block
    computes it; fit's trace and full_objective both sum them here, so an
    iterate's trace entry and its full_objective agree bit for bit.
    """
    k, n = th_t.shape
    lam, sigma_d_sq = hyper.lam, hyper.sigma_d_sq

    ll = float(np.sum(ll_items))

    quad = quad_form_rows(np.ascontiguousarray(th_t.T), hyper.sigma_theta_inv)
    prior_theta = n * (-0.5 * k * np.log(2.0 * np.pi)
                       - 0.5 * hyper.log_det_sigma_theta) - 0.5 * float(np.sum(quad))

    prior_a = (a.size * np.log(lam / 2.0) - lam * float(np.sum(np.abs(a)))
               if lam > 0 else 0.0)

    n_thresh = float(np.count_nonzero(valid))
    quad_d = float(np.sum((d_pad ** 2).sum(axis=1)))
    prior_d = -0.5 * n_thresh * np.log(2.0 * np.pi * sigma_d_sq) \
        - 0.5 * quad_d / sigma_d_sq

    return float(ll + prior_theta + prior_a + prior_d)


def full_objective(a, d_pad, valid, th_t, idx_t, hyper):
    """Objective and item-major cells (cu, cl) of the whole data set.

    One deterministic global pass (item_loglik).  Matches the per-cell
    reference implementation up to floating-point addition order; fit calls
    it at the start only, and takes later trace entries from d_block's row
    values.
    """
    ll, cu, cl = item_loglik(a, d_pad, valid, th_t, idx_t)
    return objective(ll, a, d_pad, valid, th_t, hyper), cu, cl
