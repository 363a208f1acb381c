import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import sparsegrm
from sparsegrm.align import (Alignment, _assignment, alignment_cost, apply_alignment,
                             best_alignment, exhaustive_alignment)
from sparsegrm.model import ModelState


def test_alignment_validation():
    with pytest.raises(ValueError):
        Alignment(permutation=np.array([0, 0]), signs=np.array([1, 1]))
    with pytest.raises(ValueError):
        Alignment(permutation=np.array([0, 1]), signs=np.array([1, 2]))
    with pytest.raises(ValueError):
        Alignment(permutation=np.array([0, 2]), signs=np.array([1, 1]))
    with pytest.raises(ValueError, match="permutation and signs must be 1-D of equal length"):
        Alignment(permutation=np.array([0, 1]), signs=np.array([1]))
    for align in (best_alignment, exhaustive_alignment):
        with pytest.raises(ValueError, match=r"shape mismatch: \(4, 2\) vs \(4, 3\)"):
            align(np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="alignment costs are not finite"):
        best_alignment(np.array([[np.nan, 1.0]]), np.ones((1, 2)))


def test_identity_alignment_on_identical_matrices():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(10, 3))
    alignment = best_alignment(a, a)
    assert np.array_equal(alignment.permutation, np.arange(3))
    assert np.array_equal(alignment.signs, np.ones(3))
    assert alignment_cost(a, a, alignment) == pytest.approx(0.0, abs=1e-12)


def test_recovers_known_signed_permutation():
    rng = np.random.default_rng(1)
    a_ref = rng.normal(size=(12, 4))
    perm = np.array([2, 0, 3, 1])
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    # column t of the scrambled matrix holds sign * reference column perm[t]
    scrambled = np.empty_like(a_ref)
    for t in range(4):
        scrambled[:, perm[t]] = signs[t] * a_ref[:, t]
    alignment = best_alignment(scrambled, a_ref)
    aligned = scrambled[:, alignment.permutation] * alignment.signs
    np.testing.assert_allclose(aligned, a_ref, rtol=0, atol=1e-12)


def _alignment_draws(rng, k):
    """Pairs of normal draws, then for K >= 2 pairs whose least cost ties:
    a_hat with two or more all-zero columns, or two or more equal ones.
    Fewer at K=5, where each exhaustive search visits 3840 alignments."""
    n = 20 if k < 5 else 4
    for _ in range(n):
        yield rng.normal(size=(8, k)), rng.normal(size=(8, k))
    for _ in range(n // 2 if k >= 2 else 0):
        a_hat, a_ref = rng.normal(size=(2, 8, k))
        cols = rng.permutation(k)[:rng.integers(2, k + 1)]
        zeroed, doubled = a_hat.copy(), a_hat.copy()
        zeroed[:, cols] = 0.0
        doubled[:, cols] = a_hat[:, cols[:1]]
        yield zeroed, a_ref
        yield doubled, a_ref


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_best_matches_exhaustive(k):
    rng = np.random.default_rng(k)
    for a_hat, a_ref in _alignment_draws(rng, k):
        fast = best_alignment(a_hat, a_ref)
        slow = exhaustive_alignment(a_hat, a_ref)
        cost_fast = alignment_cost(a_hat, a_ref, fast)
        cost_slow = alignment_cost(a_hat, a_ref, slow)
        assert cost_fast == pytest.approx(cost_slow, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "rounded"])
def test_assignment_agrees_with_scipy(tied):
    rng = np.random.default_rng(11)
    for k in range(1, 13):
        for _ in range(20):
            cost = rng.normal(size=(k, k))
            if tied:  # small integers: many assignments share the least cost
                cost = np.round(2.0 * cost)
            rows = _assignment(cost)
            ref_rows, ref_cols = linear_sum_assignment(cost)
            ref = np.empty(k, dtype=np.int64)
            ref[ref_cols] = ref_rows
            total, ref_total = (cost[r, np.arange(k)].sum() for r in (rows, ref))
            assert total == pytest.approx(ref_total, rel=1e-12)
            # the same scan order breaks ties the same way
            assert np.array_equal(rows, ref)


def _run_python(script, *args):
    """Run script in a fresh interpreter that imports this sparsegrm."""
    src = os.path.dirname(os.path.dirname(sparsegrm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)


_IMPORT_THEN_ALIGN = """
import json, sys
import numpy as np
import sparsegrm, sparsegrm.cli
scipy_modules = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = scipy_modules()
a_hat, a_ref = np.random.default_rng(4).normal(size=(2, 8, 4))
fast = sparsegrm.best_alignment(a_hat, a_ref)
slow = sparsegrm.exhaustive_alignment(a_hat, a_ref)
print(json.dumps({"loaded": loaded, "after": scipy_modules(), "same": bool(
    np.array_equal(fast.permutation, slow.permutation)
    and np.array_equal(fast.signs, slow.signs))}))
"""


def test_importing_the_package_loads_no_scipy_until_an_alignment():
    # scipy costs about half a second of start-up and most of a study
    # process's memory; neither the package nor an alignment loads it
    result = json.loads(_run_python(_IMPORT_THEN_ALIGN).stdout)
    assert result == {"loaded": [], "after": [], "same": True}


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from sparsegrm.cli import main
out = sys.argv[1]
sim = ["--n", "40", "--j", "5", "--k", "3", "--c", "3", "--rho", "0.1", "--seed", "7"]
runs = [["simulate", *sim, "--out", out + "/sim"],
        ["fit", "--responses", out + "/sim/responses.csv", "--lambda", "1", "--k", "3",
         "--c", "3", "--out", out + "/fit"],
        ["evaluate", "--est", out + "/fit", "--truth", out + "/sim", "--out", out + "/eval"],
        ["replicate", *sim, "--reps", "1", "--out", out + "/rep"]]
print(json.dumps([main(argv) for argv in runs]))
"""


def test_evaluate_and_replicate_run_where_scipy_cannot_be_imported(tmp_path):
    assert json.loads(_run_python(_WITHOUT_SCIPY, tmp_path).stdout) == [0, 0, 0, 0]
    assert (tmp_path / "eval" / "metrics.txt").stat().st_size
    assert (tmp_path / "rep" / "replications.csv").stat().st_size


def test_cost_is_squared_frobenius_distance():
    rng = np.random.default_rng(5)
    a_hat = rng.normal(size=(6, 3))
    a_ref = rng.normal(size=(6, 3))
    alignment = best_alignment(a_hat, a_ref)
    aligned = a_hat[:, alignment.permutation] * alignment.signs
    direct = float(np.sum((aligned - a_ref) ** 2))
    assert alignment_cost(a_hat, a_ref, alignment) == pytest.approx(
        direct, rel=1e-10)


def test_zero_inner_product_sign_defaults_positive():
    a_hat = np.array([[0.0], [0.0]])
    a_ref = np.array([[1.0], [-1.0]])
    alignment = best_alignment(a_hat, a_ref)
    assert alignment.signs[0] == 1.0


def test_apply_alignment_consistency():
    rng = np.random.default_rng(6)
    state = ModelState(theta=rng.normal(size=(5, 3)),
                       loadings=rng.normal(size=(4, 3)),
                       intercepts=[np.array([0.5]) for _ in range(4)])
    alignment = Alignment(permutation=np.array([1, 2, 0]),
                          signs=np.array([-1.0, 1.0, -1.0]))
    out = apply_alignment(state, alignment)
    np.testing.assert_array_equal(
        out.loadings, state.loadings[:, alignment.permutation] * alignment.signs)
    np.testing.assert_array_equal(
        out.theta, state.theta[:, alignment.permutation] * alignment.signs)
    # joint transform leaves every linear predictor invariant
    np.testing.assert_allclose(out.theta @ out.loadings.T,
                               state.theta @ state.loadings.T, rtol=1e-12)
    out.intercepts[0][0] = 9.0
    assert state.intercepts[0][0] == 0.5
    with pytest.raises(ValueError, match="alignment has 2 columns, state has 3"):
        apply_alignment(state, Alignment(permutation=np.array([1, 0]),
                                         signs=np.array([1.0, 1.0])))


def test_inverse_round_trips():
    rng = np.random.default_rng(7)
    state = ModelState(theta=rng.normal(size=(5, 3)),
                       loadings=rng.normal(size=(4, 3)),
                       intercepts=[np.array([0.5]) for _ in range(4)])
    alignment = Alignment(permutation=np.array([2, 0, 1]),
                          signs=np.array([1.0, -1.0, -1.0]))
    back = apply_alignment(apply_alignment(state, alignment),
                           alignment.inverse())
    np.testing.assert_allclose(back.theta, state.theta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.loadings, state.loadings, rtol=0,
                               atol=1e-12)
