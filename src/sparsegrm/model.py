"""Graded response model probabilities, priors, and the penalized objective.

The model is a multidimensional graded response model with cumulative
logits.  For respondent i and item j with C_j ordered categories,

    P(Y_ij >= c) = logit^{-1}(theta_i' a_j + d_jc),   c = 1, ..., C_j - 1,

with P(Y_ij >= 0) = 1 and P(Y_ij >= C_j) = 0, and category probabilities
obtained by differencing.  logit^{-1} is inverse_logit, the package's one
logistic: the kernel in _engine and the sampler in simulate call it too.
The objective adds a multivariate normal prior on each theta_i, an
elementwise Laplace prior on each loading vector a_j, and a wide normal
prior on each intercept vector d_j.

Simulated truth and random starts draw through the functions here:
theta ~ N(0, Sigma), loading magnitudes uniform on LOADING_RANGE, and
strictly ordered intercepts from disjoint uniform ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ResponseData

# Category probabilities are clamped below at this floor before logs and
# before dividing in gradient weights; adjacent cumulative probabilities
# can coincide to machine precision.
PROB_FLOOR = 1e-10

LOADING_RANGE = (0.5, 2.0)


@dataclass
class ModelState:
    """Free parameters of the model.

    Parameters
    ----------
    theta : ndarray
        N x K matrix of factor scores, one row per respondent.
    loadings : ndarray
        J x K matrix of loadings, one row per item.
    intercepts : list of ndarray
        Per-item intercept vectors d_j of length C_j - 1, each strictly
        decreasing.
    """

    theta: np.ndarray
    loadings: np.ndarray
    intercepts: list

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.loadings = np.asarray(self.loadings, dtype=np.float64)
        if self.theta.ndim != 2:
            raise ValueError(f"theta must be 2-D, got ndim={self.theta.ndim}")
        if self.loadings.ndim != 2:
            raise ValueError(f"loadings must be 2-D, got ndim={self.loadings.ndim}")
        if self.theta.shape[1] != self.loadings.shape[1]:
            raise ValueError(
                f"theta has K={self.theta.shape[1]} but loadings has "
                f"K={self.loadings.shape[1]}"
            )
        self.intercepts = [np.asarray(d, dtype=np.float64) for d in self.intercepts]
        if len(self.intercepts) != self.loadings.shape[0]:
            raise ValueError(
                f"{len(self.intercepts)} intercept vectors for "
                f"{self.loadings.shape[0]} items"
            )
        if not np.isfinite(self.theta).all() or not np.isfinite(self.loadings).all():
            raise ValueError("theta and loadings must be finite")
        for j, d in enumerate(self.intercepts):
            if d.ndim != 1 or d.size < 1:
                raise ValueError(f"intercepts[{j}] must be a nonempty 1-D vector")
            if not np.isfinite(d).all():
                raise ValueError(f"intercepts[{j}] must be finite")
            if d.size > 1 and not np.all(np.diff(d) < 0):
                raise ValueError(f"intercepts[{j}] must be strictly decreasing: {d}")

    def check_categories(self, categories) -> None:
        """Raise unless item j has categories[j] - 1 intercepts, for every j."""
        for j, c in enumerate(categories):
            if self.intercepts[j].size != c - 1:
                raise ValueError(f"item {j}: {self.intercepts[j].size} "
                                 f"intercepts for {int(c)} categories")

    @property
    def n_respondents(self) -> int:
        return self.theta.shape[0]

    @property
    def n_items(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_factors(self) -> int:
        return self.theta.shape[1]

    def copy(self) -> "ModelState":
        return ModelState(
            theta=self.theta.copy(),
            loadings=self.loadings.copy(),
            intercepts=[d.copy() for d in self.intercepts],
        )


@dataclass
class Hyperparameters:
    """Fixed prior settings.

    Parameters
    ----------
    sigma_theta : ndarray
        K x K symmetric positive definite covariance of the factor scores.
    lam : float
        Finite nonnegative Laplace rate on the loadings.  lam = 0 disables
        the sparsity penalty.
    sigma_d_sq : float
        Finite positive variance of the normal prior on each intercept
        (default 100**2).
    """

    sigma_theta: np.ndarray
    lam: float
    sigma_d_sq: float = 100.0 ** 2
    sigma_theta_inv: np.ndarray = field(init=False, repr=False)
    log_det_sigma_theta: float = field(init=False, repr=False)

    def __post_init__(self):
        self.sigma_theta = np.asarray(self.sigma_theta, dtype=np.float64)
        if self.sigma_theta.ndim != 2 or self.sigma_theta.shape[0] != self.sigma_theta.shape[1]:
            raise ValueError(f"sigma_theta must be square, got shape {self.sigma_theta.shape}")
        if self.sigma_theta.size == 0:
            raise ValueError("sigma_theta must be at least 1 x 1, got 0 x 0")
        if not np.all(np.isfinite(self.sigma_theta)):
            raise ValueError(f"sigma_theta must be finite, got {self.sigma_theta.tolist()}")
        if not np.allclose(self.sigma_theta, self.sigma_theta.T, atol=1e-10):
            raise ValueError("sigma_theta must be symmetric")
        sign, logdet = np.linalg.slogdet(self.sigma_theta)
        if sign <= 0:
            raise ValueError("sigma_theta must be positive definite")
        try:
            np.linalg.cholesky(self.sigma_theta)
        except np.linalg.LinAlgError:
            raise ValueError("sigma_theta must be positive definite")
        self.sigma_theta_inv = np.linalg.inv(self.sigma_theta)
        # inverse consistency check
        resid = self.sigma_theta @ self.sigma_theta_inv - np.eye(self.sigma_theta.shape[0])
        if np.abs(resid).max() > 1e-10:
            raise ValueError("sigma_theta inverse inconsistent beyond 1e-10")
        self.log_det_sigma_theta = float(logdet)
        self.lam = float(self.lam)
        self.sigma_d_sq = float(self.sigma_d_sq)
        # chained comparisons with nan are False, so these also reject nan
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0.0 < self.sigma_d_sq < np.inf:
            raise ValueError(
                f"sigma_d_sq must be finite and positive, got {self.sigma_d_sq}")

    @property
    def n_factors(self) -> int:
        return self.sigma_theta.shape[0]


def draw_theta(rng, n_respondents: int, sigma_theta) -> np.ndarray:
    """N x K factor scores drawn from N(0, sigma_theta)."""
    chol = np.linalg.cholesky(sigma_theta)
    return rng.standard_normal((n_respondents, chol.shape[0])) @ chol.T


def default_intercept_ranges(n_categories: int):
    """Disjoint decreasing uniform ranges for the intercept draws.

    Two categories get the single wide range (-1.5, 1.5).  Otherwise the
    C-1 ranges have half-width 0.375 around centers spaced 1.125 apart
    and centered on zero, which for four categories gives (0.75, 1.5),
    (-0.375, 0.375), and (-1.5, -0.75).
    """
    if n_categories < 2:
        raise ValueError(f"need at least 2 categories, got {n_categories}")
    if n_categories == 2:
        return [(-1.5, 1.5)]
    m = n_categories - 1
    centers = np.linspace(1.125 * (m - 1) / 2.0, -1.125 * (m - 1) / 2.0, m)
    return [(float(c) - 0.375, float(c) + 0.375) for c in centers]


def draw_intercepts(rng, n_categories: int) -> np.ndarray:
    """Draw one strictly decreasing intercept vector."""
    ranges = default_intercept_ranges(n_categories)
    d = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
    # ranges are disjoint except in the two-category case, where sorting
    # a single value is a no-op anyway
    return np.sort(d)[::-1].copy()


def inverse_logit(z, out=None):
    """1 / (1 + exp(-z)) on numpy's exp; in place when out is given (out may be z).

    Exactly 1.0 at +inf and 0.0 at -inf.  The errstate is set here because
    numpy's is per thread: a caller's misses pool workers.
    """
    with np.errstate(over="ignore"):
        x = np.exp(np.negative(z, out=out), out=out)
        return np.divide(1.0, np.add(x, 1.0, out=out), out=out)


def cumulative_probs(theta_i, a_j, d_j) -> np.ndarray:
    """Cumulative category probabilities P(Y >= c) for c = 0 ... C_j.

    The first entry is exactly 1 and the last exactly 0; interior entries
    are logit^{-1}(theta_i' a_j + d_jc) and non-increasing because d_j is
    strictly decreasing.
    """
    theta_i = np.asarray(theta_i, dtype=np.float64)
    a_j = np.asarray(a_j, dtype=np.float64)
    d_j = np.asarray(d_j, dtype=np.float64)
    if d_j.size > 1 and not np.all(np.diff(d_j) < 0):
        raise ValueError(f"intercepts must be strictly decreasing: {d_j}")
    z = float(theta_i @ a_j)
    out = np.empty(d_j.size + 2, dtype=np.float64)
    out[0] = 1.0
    out[1:-1] = inverse_logit(z + d_j)
    out[-1] = 0.0
    return out


def category_prob(theta_i, a_j, d_j, c: int) -> float:
    """P(Y = c), the difference of adjacent cumulative probabilities.

    Clamped below at PROB_FLOOR so downstream logs stay finite.
    """
    d_j = np.asarray(d_j, dtype=np.float64)
    n_cat = d_j.size + 1
    if not 0 <= c <= n_cat - 1:
        raise ValueError(f"category {c} out of range for {n_cat} categories")
    cum = cumulative_probs(theta_i, a_j, d_j)
    return float(max(cum[c] - cum[c + 1], PROB_FLOOR))


def log_likelihood(data: ResponseData, state: ModelState) -> float:
    """Sum of log category probabilities over observed cells.

    Missing cells contribute exactly zero.
    """
    total = 0.0
    for i in range(data.n_respondents):
        for j in range(data.n_items):
            if not data.mask[i, j]:
                continue
            p = category_prob(
                state.theta[i], state.loadings[j], state.intercepts[j],
                int(data.responses[i, j]),
            )
            total += np.log(p)
    return float(total)


def log_prior_theta(theta_i, hyper: Hyperparameters) -> float:
    """Multivariate normal log density of one factor-score vector."""
    theta_i = np.asarray(theta_i, dtype=np.float64)
    k = hyper.n_factors
    quad = float(theta_i @ hyper.sigma_theta_inv @ theta_i)
    return -0.5 * k * np.log(2.0 * np.pi) - 0.5 * hyper.log_det_sigma_theta - 0.5 * quad


def log_prior_a(a_j, lam: float) -> float:
    """Elementwise Laplace log density of one loading vector.

    K log(lam / 2) - lam * ||a_j||_1, defined for lam > 0.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    a_j = np.asarray(a_j, dtype=np.float64)
    return float(a_j.size * np.log(lam / 2.0) - lam * np.abs(a_j).sum())


def log_prior_d(d_j, sigma_d_sq: float) -> float:
    """Independent normal log density of one intercept vector."""
    if not 0.0 < sigma_d_sq < np.inf:
        raise ValueError(f"sigma_d_sq must be finite and positive, got {sigma_d_sq}")
    d_j = np.asarray(d_j, dtype=np.float64)
    m = d_j.size
    return float(-0.5 * m * np.log(2.0 * np.pi * sigma_d_sq)
                 - 0.5 * float(d_j @ d_j) / sigma_d_sq)


def objective(data: ResponseData, state: ModelState, hyper: Hyperparameters) -> float:
    """Log posterior kernel: likelihood plus the three prior blocks.

    With lam = 0 the loading prior is flat and its term is omitted.
    """
    total = log_likelihood(data, state)
    for i in range(state.n_respondents):
        total += log_prior_theta(state.theta[i], hyper)
    if hyper.lam > 0:
        for j in range(state.n_items):
            total += log_prior_a(state.loadings[j], hyper.lam)
    for j in range(state.n_items):
        total += log_prior_d(state.intercepts[j], hyper.sigma_d_sq)
    return float(total)
