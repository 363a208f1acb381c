"""Property tests of the vectorized engine against the per-cell reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegrm.data import ResponseData
from sparsegrm.model import ModelState, log_likelihood
from sparsegrm.optimizer import log_likelihood_value


@st.composite
def tiny_instances(draw):
    """Random (data, state) with one fully missing row and one fully missing item."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    j = draw(st.integers(2, 5))
    categories = np.array(draw(st.lists(st.integers(2, 7), min_size=j, max_size=j)))
    missing = draw(st.floats(0.0, 0.6))
    empty_row = draw(st.integers(0, n - 1))
    empty_item = draw(st.integers(0, j - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    mask = rng.random((n, j)) >= missing
    mask[empty_row, :] = False
    mask[:, empty_item] = False
    responses = rng.integers(0, categories[None, :], size=(n, j))
    data = ResponseData(responses=responses, mask=mask, categories=categories)
    intercepts = [rng.uniform(-3.0, 3.0) - np.cumsum(rng.uniform(0.05, 2.0, size=c - 1))
                  for c in categories]
    state = ModelState(theta=rng.normal(0.0, 1.5, size=(n, k)),
                       loadings=rng.normal(0.0, 1.5, size=(j, k)),
                       intercepts=intercepts)
    return data, state


@settings(derandomize=True, deadline=None)
@given(tiny_instances())
def test_kernel_log_likelihood_matches_per_cell_reference(instance):
    data, state = instance
    assert log_likelihood_value(data, state) == pytest.approx(
        log_likelihood(data, state), rel=1e-12)
