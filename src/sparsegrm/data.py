"""Response-matrix and parameter-matrix I/O, validation, and row splitting.

Responses live in a plain comma-separated table; missing cells are marked
with the token "NA" or left empty.  Parameter matrices round-trip
through the same delimited format at full double precision.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

MISSING_TOKEN = "NA"
# Most response categories an item may have: above any rating scale or 0-100
# slider, and small enough that the per-item arrays a fit sizes by the count
# stay small.
MAX_CATEGORIES = 1000


@dataclass
class ResponseData:
    """Integer item-response matrix with an observation mask.

    Parameters
    ----------
    responses : np.ndarray, shape (N, J)
        Integer responses; entry (i, j) lies in {0, ..., categories[j] - 1}
        wherever ``mask`` is 1.  Masked entries are stored as 0.
    mask : np.ndarray, shape (N, J)
        1 where the response was observed, 0 where it is missing.
    categories : np.ndarray, shape (J,)
        Number of response categories per item, each in 2..MAX_CATEGORIES.
    """

    responses: np.ndarray
    mask: np.ndarray
    categories: np.ndarray

    def __post_init__(self):
        responses = np.asarray(self.responses)
        self.mask = np.asarray(self.mask, dtype=bool)
        categories = np.atleast_1d(np.asarray(self.categories))
        if responses.ndim != 2:
            raise ValueError("responses must be a 2-D matrix")
        if self.mask.shape != responses.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != responses shape {responses.shape}"
            )
        if categories.shape != (responses.shape[1],):
            raise ValueError("categories must have one entry per item")
        if not np.all(categories == np.round(categories)):  # nan != nan
            raise ValueError(f"categories must be integers, got {categories}")
        if np.any(categories < 2):
            raise ValueError("every item needs at least 2 categories")
        if np.any(categories > MAX_CATEGORIES):
            j = int(np.argmax(categories > MAX_CATEGORIES))
            raise ValueError(f"item {j} has {categories[j]} categories; "
                             f"at most {MAX_CATEGORIES} are supported")
        self.categories = categories.astype(np.int64)
        # checked before the int cast, which would truncate 1.5 and warn on nan;
        # unobserved cells, which may hold anything, are stored as 0 (the engine
        # reads the mask, not these zeros: _engine.item_categories)
        responses = np.where(self.mask, responses, 0)
        bad = (responses < 0) | (responses >= self.categories)
        if responses.dtype.kind == "f":
            bad |= responses != np.round(responses)  # nan != nan
        if bad.any():
            i, j = np.argwhere(bad)[0]
            value, c = responses[i, j], int(self.categories[j])
            what = "outside" if value == np.round(value) else "not an integer in"
            raise ValueError(f"response {value} at row {i}, item {j} is {what} "
                             f"0..{c - 1}, the range of its {c} categories")
        self.responses = responses.astype(np.int64, copy=False)

    @property
    def n_respondents(self) -> int:
        return self.responses.shape[0]

    @property
    def n_items(self) -> int:
        return self.responses.shape[1]


@dataclass
class QMatrix:
    """Binary item-by-factor structure matrix."""

    entries: np.ndarray = field()

    def __post_init__(self):
        # checked before the int cast, which would truncate 0.5 to 0
        entries = np.asarray(self.entries)
        if entries.ndim != 2:
            raise ValueError("Q matrix must be 2-D")
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("Q matrix entries must be 0 or 1")
        self.entries = entries.astype(np.int64)


def check_counts(obj, **least) -> None:
    """Reject the first named field of obj that is not an integer (Python or
    numpy) of at least its given least value."""
    for name, lo in least.items():
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < lo:
            raise ValueError(f"{name} must be at least {lo}, got {value}")


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _parse_table(path: str, missing_token: str):
    """Parse a delimited text table into string cells, skipping comments.

    Returns the rows and the file's 1-based line number of each.
    """
    rows, lines = [], []
    with open(path, "r") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([cell.strip() for cell in line.split(",")])
            lines.append(ln)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    for ln, row in zip(lines, rows):
        if len(row) != width:
            raise ValueError(f"{path}: line {ln} has {len(row)} fields, expected {width}")
    # optional header: a first row none of whose fields is numeric or missing
    if not any(c in ("", missing_token) or _numeric(c) for c in rows[0]):
        rows, lines = rows[1:], lines[1:]
        if not rows:
            raise ValueError(f"{path}: only a header row present")
    return rows, lines


def load_responses(path: str, categories=None) -> ResponseData:
    """Load a response matrix from comma-separated text.

    Missing entries are cells equal to MISSING_TOKEN or left empty.
    Per-item category counts are inferred as (max observed value) + 1 with a
    floor of 2, unless ``categories`` overrides them (scalar or length-J).

    Raises
    ------
    ValueError
        For non-rectangular input, entries that are not finite integers
        within the int64 range, negative entries, entries at or above their
        item's given ``categories``, an item column with no observed values,
        or more than MAX_CATEGORIES categories for an item.
    """
    rows, lines = _parse_table(path, MISSING_TOKEN)
    n, j = len(rows), len(rows[0])
    responses = np.zeros((n, j), dtype=np.int64)
    mask = np.zeros((n, j), dtype=bool)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            if cell == "" or cell == MISSING_TOKEN:
                continue
            value = float(cell) if _numeric(cell) else np.nan
            # nan, inf, values past int64 and text fail the first test
            if not (abs(value) < 2.0 ** 63 and value == int(value)):
                raise ValueError(f"{path}: response {cell!r} on line {lines[r]} "
                                 f"(item {c}) is not an integer in the int64 range")
            if value < 0:
                raise ValueError(f"{path}: response {cell!r} on line {lines[r]} "
                                 f"(item {c}) is negative")
            responses[r, c] = int(value)
            mask[r, c] = True
    if not mask.any(axis=0).all():
        empty = int(np.flatnonzero(~mask.any(axis=0))[0])
        raise ValueError(f"{path}: item column {empty} has no observed values")
    if categories is None:
        cats = np.maximum(np.max(np.where(mask, responses, 0), axis=0) + 1, 2)
    else:
        cats = np.broadcast_to(categories, (j,))  # ResponseData checks and casts them
        over = mask & (responses >= cats)
        if over.any():
            r, c = np.argwhere(over)[0]
            raise ValueError(f"{path}: response {rows[r][c]!r} on line {lines[r]} (item "
                             f"{c}) is outside 0..{cats[c] - 1}, the range of its "
                             f"{cats[c]} categories")
    return ResponseData(responses=responses, mask=mask, categories=cats)


def save_responses(path: str, data: ResponseData, comments=()) -> None:
    """Write a response matrix in the format accepted by :func:`load_responses`."""
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for i in range(data.n_respondents):
            cells = [
                str(int(data.responses[i, j])) if data.mask[i, j] else MISSING_TOKEN
                for j in range(data.n_items)
            ]
            fh.write(",".join(cells) + "\n")


def split_row_indices(n_rows: int, train_fraction: float, seed: int):
    """Pick the sorted train/test row indices used by :func:`split_rows`."""
    if n_rows < 2:
        raise ValueError("need at least 2 respondents to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_rows)
    n_train = int(np.clip(round(n_rows * train_fraction), 1, n_rows - 1))
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def take_rows(data: ResponseData, rows) -> ResponseData:
    """Extract a row subset as a new ResponseData."""
    rows = np.asarray(rows, dtype=np.int64)
    return ResponseData(
        responses=data.responses[rows].copy(),
        mask=data.mask[rows].copy(),
        categories=data.categories.copy(),
    )


def split_rows(data: ResponseData, train_fraction: float, seed: int):
    """Randomly partition respondents into disjoint train/test subsets.

    The train subset gets round(N * train_fraction) rows, clipped so both
    subsets are nonempty.  Deterministic for a fixed seed.
    """
    train_rows, test_rows = split_row_indices(data.n_respondents, train_fraction, seed)
    return take_rows(data, train_rows), take_rows(data, test_rows)


def write_matrix(path: str, matrix, comments=()) -> None:
    """Write a real matrix as comma-separated text at full double precision.

    Optional ``comments`` lines are emitted first, prefixed with '#'.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size and not np.all(np.isfinite(matrix) | np.isnan(matrix)):
        raise ValueError("matrix contains non-finite entries")
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for row in matrix:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def _parse_matrix(path: str):
    """read_matrix's matrix and the file's line number of each of its rows."""
    rows, lines = _parse_table(path, missing_token="nan")
    parsed = []
    for ln, row in zip(lines, rows):
        try:
            parsed.append([float(c) if c != "" else np.nan for c in row])
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln} is not numeric") from exc
    return np.asarray(parsed, dtype=float), lines


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`.

    NaN cells are preserved (used as padding for ragged intercepts).
    """
    return _parse_matrix(path)[0]


def write_intercepts(path: str, intercepts, comments=()) -> None:
    """Write ragged per-item intercept vectors, NaN-padded to a rectangle."""
    width = max(np.asarray(d).size for d in intercepts)
    out = np.full((len(intercepts), width), np.nan)
    for j, d in enumerate(intercepts):
        d = np.asarray(d, dtype=float)
        out[j, : d.size] = d
    write_matrix(path, out, comments)


def read_intercepts(path: str) -> list:
    """Read intercept vectors written by :func:`write_intercepts`."""
    mat, lines = _parse_matrix(path)
    out = []
    for ln, row in zip(lines, mat):
        pad = np.isnan(row)
        n_real = int((~pad).sum())
        if pad[:n_real].any():
            raise ValueError(f"{path}: line {ln} has NaN before the padding tail")
        out.append(row[:n_real].copy())
    return out


def derive_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from one master seed.

    Uses SeedSequence stream splitting so concurrent consumers never share
    generator state.
    """
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]
