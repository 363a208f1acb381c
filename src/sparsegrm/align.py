"""Resolve column permutation and sign indeterminacy of loading estimates.

A factor solution is identified only up to reordering and sign-flipping
of the factor columns (applied jointly to loadings and scores).  The best
alignment against a reference minimizes the summed squared column
distances; the objective separates per matched column, so choosing the
optimal sign per column pair and then solving a linear assignment over
the resulting costs is exactly optimal.  The assignment is solved here,
with numpy alone, by the Hungarian method in O(K^3) (_assignment).
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


def _assignment(cost: np.ndarray) -> np.ndarray:
    """Row of each column of a square cost matrix under an assignment of
    least total cost.

    The Hungarian method (Kuhn 1955; Munkres 1957) as shortest augmenting
    paths with row and column potentials, in Crouse's form (IEEE Trans.
    Aerosp. Electron. Syst. 52(4), 2016): each row joins the matching by one
    Dijkstra search over the reduced costs, O(K^2), so the solve is O(K^3).
    Ties follow Crouse's scan order: among the open columns at the least
    distance the search takes the last free one, else the first; the scan
    starts at the last column, and a taken column's place goes to the scan's
    last.  So a constant matrix gives the identity, and a tie breaks as in
    any solver that follows Crouse's order (the tests check one).
    """
    k = len(cost)
    u, v = np.zeros(k), np.zeros(k)
    row_of, col_of, path = (np.full(k, -1) for _ in range(3))
    for row in range(k):
        dist, open_cols = np.full(k, np.inf), np.arange(k)[::-1]
        rows, cols, i, low = [], [], row, 0.0
        while True:  # Dijkstra from row until it reaches a free column
            rows.append(i)
            reduced = low + cost[i, open_cols] - u[i] - v[open_cols]
            closer = reduced < dist[open_cols]
            path[open_cols[closer]], dist[open_cols[closer]] = i, reduced[closer]
            low = dist[open_cols].min()
            ties = np.flatnonzero(dist[open_cols] == low)
            free = ties[row_of[open_cols[ties]] < 0]
            at = free[-1] if len(free) else ties[0]
            j = open_cols[at]
            cols.append(j)
            open_cols[at] = open_cols[-1]
            open_cols = open_cols[:-1]
            if row_of[j] < 0:
                break
            i = row_of[j]
        u[row] += low
        u[rows[1:]] += low - dist[col_of[rows[1:]]]
        v[cols] -= low - dist[cols]
        while True:  # augment along the path back to row
            i = path[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == row:
                break
    return row_of


def best_alignment(a_hat, a_ref) -> Alignment:
    """Signed permutation minimizing the summed squared column distances.

    Cost of matching source column s to target column t with the best
    sign is ||a_hat_s||^2 + ||a_ref_t||^2 - 2 |<a_hat_s, a_ref_t>|; the
    assignment over these costs (_assignment, O(K^3)) is globally optimal.
    Each matched pair takes sign +1 unless its inner product is negative.
    Where the least cost ties, as between equal or all-zero columns of
    a_hat, _assignment's scan order picks one of the tied alignments.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
    a_ref = np.asarray(a_ref, dtype=np.float64)
    if a_hat.shape != a_ref.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a_ref.shape}")
    inner = a_hat.T @ a_ref
    sq_hat = (a_hat ** 2).sum(axis=0)
    sq_ref = (a_ref ** 2).sum(axis=0)
    cost = sq_hat[:, None] + sq_ref[None, :] - 2.0 * np.abs(inner)
    if not np.all(np.isfinite(cost)):
        raise ValueError("alignment costs are not finite")
    permutation = _assignment(cost)
    signs = np.where(inner[permutation, np.arange(len(permutation))] >= 0, 1.0, -1.0)
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
