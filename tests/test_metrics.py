import numpy as np
import pytest

from sparsegrm.align import Alignment, apply_alignment, best_alignment
from sparsegrm.data import QMatrix
from sparsegrm.metrics import (LOADING_ZERO_THRESHOLD, RecoveryReport,
                               SelectionReport, q_from_loadings,
                               recovery_metrics, score, selection_metrics)
from sparsegrm.model import ModelState


def state_pair():
    star = ModelState(
        theta=np.zeros((3, 2)),
        loadings=np.array([[1.0, 0.0], [0.0, 0.8], [1.2, 0.6]]),
        intercepts=[np.array([0.5, -0.5]), np.array([1.0]),
                    np.array([0.4, -0.8])],
    )
    hat = ModelState(
        theta=np.zeros((3, 2)),
        loadings=np.array([[1.1, 0.0], [0.0, 0.9], [1.0, 0.6]]),
        intercepts=[np.array([0.6, -0.4]), np.array([0.8]),
                    np.array([0.4, -0.8])],
    )
    q_star = QMatrix(entries=np.array([[1, 0], [0, 1], [1, 1]]))
    return hat, star, q_star


def test_q_from_loadings_strict_threshold():
    loadings = np.array([[0.011, 0.01], [-0.02, 0.0]])
    q = q_from_loadings(loadings, 0.01)
    assert q.entries.tolist() == [[1, 0], [1, 0]]


@pytest.mark.parametrize("threshold", [-0.01, np.nan, np.inf])
def test_q_from_loadings_rejects_a_threshold_outside_zero_to_infinity(threshold):
    with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
        q_from_loadings(np.ones((2, 2)), threshold)


def test_q_from_loadings_zero_matrix():
    q = q_from_loadings(np.zeros((3, 2)), 0.01)
    assert not q.entries.any()


def test_selection_metrics_identity_and_complement():
    q = QMatrix(entries=np.array([[1, 0], [0, 1]]))
    same = selection_metrics(q, q)
    assert (same.msr, same.fpr, same.fnr) == (0.0, 0.0, 0.0)
    flipped = QMatrix(entries=1 - q.entries)
    comp = selection_metrics(flipped, q)
    assert (comp.msr, comp.fpr, comp.fnr) == (1.0, 1.0, 1.0)


def test_selection_metrics_single_false_positive():
    q_star = QMatrix(entries=np.array([[1, 0], [1, 0]]))
    q_hat = QMatrix(entries=np.array([[1, 1], [1, 0]]))
    rep = selection_metrics(q_hat, q_star)
    assert rep.msr == 0.25
    assert rep.fpr == 0.5
    assert rep.fnr == 0.0


def test_selection_metrics_convex_combination_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ref = rng.integers(0, 2, (6, 4))
        if ref.min() == ref.max():
            continue
        est = rng.integers(0, 2, (6, 4))
        rep = selection_metrics(QMatrix(entries=est), QMatrix(entries=ref))
        zeros = int((ref == 0).sum())
        ones = int((ref == 1).sum())
        lhs = rep.msr * ref.size
        rhs = rep.fpr * zeros + rep.fnr * ones
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_selection_metrics_degenerate_truth_errors():
    ones = QMatrix(entries=np.ones((2, 2), dtype=np.int64))
    zeros = QMatrix(entries=np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        selection_metrics(ones, ones)
    with pytest.raises(ValueError):
        selection_metrics(ones, zeros)
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(2, 3\)"):
        selection_metrics(ones, QMatrix(entries=np.array([[1, 0, 1], [0, 1, 0]])))


def test_selection_report_range_validated():
    with pytest.raises(ValueError):
        SelectionReport(msr=1.5, fpr=0.0, fnr=0.0)


def test_recovery_single_loading_example():
    star = ModelState(theta=np.zeros((2, 1)),
                      loadings=np.array([[1.0]]),
                      intercepts=[np.array([0.5])])
    hat = ModelState(theta=np.zeros((2, 1)),
                     loadings=np.array([[1.1]]),
                     intercepts=[np.array([0.5])])
    q = QMatrix(entries=np.array([[1]]))
    rep = recovery_metrics(hat, star, q)
    assert rep.error_a == pytest.approx(0.1, rel=1e-12)
    assert rep.relbias_a == pytest.approx(0.1, rel=1e-12)
    assert rep.error_d == 0.0
    assert rep.relbias_d == 0.0


def test_recovery_identity_gives_zero():
    hat, star, q = state_pair()
    rep = recovery_metrics(star, star, q)
    assert rep.error_a == 0.0 and rep.error_d == 0.0
    assert rep.relbias_a == 0.0 and rep.relbias_d == 0.0


def test_recovery_hand_computed_values():
    hat, star, q = state_pair()
    rep = recovery_metrics(hat, star, q)
    # loading diffs on true-nonzero entries: 0.1, 0.1, -0.2, 0.0
    assert rep.error_a == pytest.approx(
        np.sqrt((0.01 + 0.01 + 0.04 + 0.0) / 4), rel=1e-12)
    assert rep.relbias_a == pytest.approx(
        (0.1 / 1.0 + 0.1 / 0.8 - 0.2 / 1.2 + 0.0) / 4, rel=1e-12)
    # per-item intercept MSEs: (0.01+0.01)/2, 0.04, 0
    assert rep.error_d == pytest.approx(
        np.sqrt((0.01 + 0.04 + 0.0) / 3), rel=1e-12)
    item_means = [(0.1 / 0.5 + 0.1 / (-0.5)) / 2, -0.2 / 1.0, 0.0]
    assert rep.relbias_d == pytest.approx(np.mean(item_means), rel=1e-12)
    assert rep.n_excluded_a == 0 and rep.n_excluded_d == 0


def test_recovery_error_a_ignores_true_zero_entries():
    hat, star, q = state_pair()
    noisy = hat.copy()
    noisy.loadings[0, 1] = 5.0  # true zero entry, must not affect metrics
    rep_a = recovery_metrics(hat, star, q)
    rep_b = recovery_metrics(noisy, star, q)
    assert rep_a.error_a == rep_b.error_a
    assert rep_a.relbias_a == rep_b.relbias_a


def test_recovery_excludes_near_zero_denominators():
    star = ModelState(theta=np.zeros((2, 1)),
                      loadings=np.array([[1.0]]),
                      intercepts=[np.array([0.5, 0.0])])
    hat = ModelState(theta=np.zeros((2, 1)),
                     loadings=np.array([[1.2]]),
                     intercepts=[np.array([0.7, -0.1])])
    q = QMatrix(entries=np.array([[1]]))
    rep = recovery_metrics(hat, star, q)
    assert rep.n_excluded_d == 1
    assert rep.relbias_d == pytest.approx(0.2 / 0.5, rel=1e-12)
    # the excluded term still counts toward the RMS error
    assert rep.error_d == pytest.approx(
        np.sqrt((0.04 + 0.01) / 2), rel=1e-12)


def test_metrics_invariant_under_joint_alignment():
    hat, star, q = state_pair()
    alignment = Alignment(permutation=np.array([1, 0]),
                          signs=np.array([-1.0, 1.0]))
    hat2 = apply_alignment(hat, alignment)
    star2 = apply_alignment(star, alignment)
    q2 = QMatrix(entries=q.entries[:, alignment.permutation])
    rep = recovery_metrics(hat, star, q)
    rep2 = recovery_metrics(hat2, star2, q2)
    assert rep.error_a == pytest.approx(rep2.error_a, rel=1e-12)
    assert rep.error_d == pytest.approx(rep2.error_d, rel=1e-12)
    sel = selection_metrics(q_from_loadings(hat.loadings, 0.01), q)
    sel2 = selection_metrics(q_from_loadings(hat2.loadings, 0.01), q2)
    assert (sel.msr, sel.fpr, sel.fnr) == (sel2.msr, sel2.fpr, sel2.fnr)


def test_recovery_requires_matching_shapes():
    hat, star, q = state_pair()
    short = ModelState(theta=np.zeros((3, 2)),
                       loadings=star.loadings.copy(),
                       intercepts=[np.array([0.5]), np.array([1.0]),
                                   np.array([0.4])])
    with pytest.raises(ValueError):
        recovery_metrics(short, star, q)
    narrow = ModelState(theta=np.zeros((3, 1)), loadings=star.loadings[:, :1],
                        intercepts=star.intercepts)
    with pytest.raises(ValueError, match=r"loading shape mismatch: \(3, 1\) vs \(3, 2\)"):
        recovery_metrics(narrow, star, q)
    # ModelState ties the intercept count to the loadings; a state edited
    # after construction can break the tie
    edited = hat.copy()
    edited.intercepts = edited.intercepts[:2]
    with pytest.raises(ValueError, match="intercept item counts differ"):
        recovery_metrics(edited, star, q)
    with pytest.raises(ValueError, match="true structure has no nonzero entries"):
        recovery_metrics(hat, star, QMatrix(entries=np.zeros((3, 2), dtype=np.int64)))


def test_recovery_report_validates_errors():
    with pytest.raises(ValueError):
        RecoveryReport(error_a=-0.1, error_d=0.0, relbias_a=0.0,
                       relbias_d=0.0)


@pytest.mark.parametrize("field", ["error_a", "error_d"])
@pytest.mark.parametrize("value", [np.nan, -np.inf, -0.1])
def test_recovery_report_rejects_nan_and_negative_errors(field, value):
    errors = {"error_a": 0.0, "error_d": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be nonnegative, got {value}"):
        RecoveryReport(**errors, relbias_a=0.0, relbias_d=0.0)


def test_recovery_report_accepts_an_overflowed_error():
    # squared differences of finite estimates can overflow
    assert RecoveryReport(error_a=np.inf, error_d=0.0, relbias_a=0.0,
                          relbias_d=0.0).error_a == np.inf


def test_score_of_a_signed_permuted_truth_is_zero():
    _, star, q = state_pair()
    shuffled = apply_alignment(star, Alignment(permutation=np.array([1, 0]),
                                               signs=np.array([-1.0, 1.0])))
    selection, recovery = score(shuffled, star, q)
    assert (selection.msr, selection.fpr, selection.fnr) == (0.0, 0.0, 0.0)
    assert (recovery.error_a, recovery.error_d) == (0.0, 0.0)
    assert (recovery.relbias_a, recovery.relbias_d) == (0.0, 0.0)


@pytest.mark.parametrize("threshold", [LOADING_ZERO_THRESHOLD, 0.5])
def test_score_aligns_thresholds_and_scores(threshold):
    rng = np.random.default_rng(4)
    _, star, q = state_pair()
    hat = ModelState(
        theta=np.zeros((3, 2)),
        loadings=rng.normal(size=(3, 2)),
        intercepts=[d + rng.uniform(-0.1, 0.1) for d in star.intercepts],
    )
    aligned = apply_alignment(hat, best_alignment(hat.loadings, star.loadings))
    expected = (
        selection_metrics(q_from_loadings(aligned.loadings, threshold), q),
        recovery_metrics(aligned, star, q),
    )
    assert score(hat, star, q, threshold) == expected
