"""Resolve column permutation and sign indeterminacy of loading estimates.

A factor solution is identified only up to reordering and sign-flipping
of the factor columns (applied jointly to loadings and scores).  The best
alignment against a reference minimizes the summed squared column
distances; the objective separates per matched column, so choosing the
optimal sign per column pair and then solving a linear assignment over
the resulting costs is exactly optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import ModelState


@dataclass
class Alignment:
    """Column mapping: aligned[:, t] = signs[t] * original[:, permutation[t]]."""

    permutation: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.permutation = np.asarray(self.permutation, dtype=np.int64)
        self.signs = np.asarray(self.signs, dtype=np.float64)
        if self.permutation.ndim != 1 or self.signs.shape != self.permutation.shape:
            raise ValueError("permutation and signs must be 1-D of equal length")
        if not np.array_equal(np.sort(self.permutation),
                              np.arange(self.permutation.size)):
            raise ValueError(f"not a permutation: {self.permutation}")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError(f"signs must be +-1: {self.signs}")

    def inverse(self) -> "Alignment":
        inv = np.argsort(self.permutation)
        return Alignment(permutation=inv, signs=self.signs[inv])


def _apply_to_columns(matrix: np.ndarray, alignment: Alignment) -> np.ndarray:
    return matrix[:, alignment.permutation] * alignment.signs[None, :]


def alignment_cost(a_hat, a_ref, alignment: Alignment) -> float:
    """Sum of squared column distances after applying the alignment."""
    diff = _apply_to_columns(np.asarray(a_hat, dtype=np.float64), alignment) \
        - np.asarray(a_ref, dtype=np.float64)
    return float((diff ** 2).sum())


def best_alignment(a_hat, a_ref) -> Alignment:
    """Signed permutation minimizing the summed squared column distances.

    Cost of matching source column s to target column t with the best
    sign is ||a_hat_s||^2 + ||a_ref_t||^2 - 2 |<a_hat_s, a_ref_t>|; the
    assignment over these costs is globally optimal.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
    a_ref = np.asarray(a_ref, dtype=np.float64)
    if a_hat.shape != a_ref.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a_ref.shape}")
    inner = a_hat.T @ a_ref
    sq_hat = (a_hat ** 2).sum(axis=0)
    sq_ref = (a_ref ** 2).sum(axis=0)
    cost = sq_hat[:, None] + sq_ref[None, :] - 2.0 * np.abs(inner)
    # imported here: scipy.optimize takes ~0.5 s to import, and fits never align
    from scipy.optimize import linear_sum_assignment
    src, tgt = linear_sum_assignment(cost)
    k = a_hat.shape[1]
    permutation = np.empty(k, dtype=np.int64)
    signs = np.empty(k, dtype=np.float64)
    for s, t in zip(src, tgt):
        permutation[t] = s
        signs[t] = 1.0 if inner[s, t] >= 0 else -1.0
    return Alignment(permutation=permutation, signs=signs)


def exhaustive_alignment(a_hat, a_ref) -> Alignment:
    """Brute force over all K! * 2^K signed permutations (testing fallback)."""
    a_hat = np.asarray(a_hat, dtype=np.float64)
    a_ref = np.asarray(a_ref, dtype=np.float64)
    if a_hat.shape != a_ref.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a_ref.shape}")
    k = a_hat.shape[1]
    best = None
    best_cost = np.inf
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1.0, -1.0), repeat=k):
            cand = Alignment(permutation=np.array(perm),
                             signs=np.array(signs))
            c = alignment_cost(a_hat, a_ref, cand)
            if c < best_cost:
                best_cost = c
                best = cand
    return best


def apply_alignment(state: ModelState, alignment: Alignment) -> ModelState:
    """Permute and sign-flip the factor columns of loadings and scores.

    Intercepts are untouched; inner products theta_i' a_j, and hence all
    response probabilities, are preserved exactly.
    """
    if alignment.permutation.size != state.n_factors:
        raise ValueError(
            f"alignment has {alignment.permutation.size} columns, state has "
            f"{state.n_factors}"
        )
    return ModelState(
        theta=_apply_to_columns(state.theta, alignment),
        loadings=_apply_to_columns(state.loadings, alignment),
        intercepts=[d.copy() for d in state.intercepts],
    )
