import multiprocessing
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.special import expit

from sparsegrm import _pool, simulate
from sparsegrm.data import derive_seeds, split_rows
from sparsegrm.metrics import score
from sparsegrm.model import (Hyperparameters, ModelState, category_prob,
                             default_intercept_ranges, draw_intercepts)
from sparsegrm.optimizer import FitConfig, objective_value, random_init
from sparsegrm.simulate import (SimDesign, gen_q, gen_sigma, gen_true_params,
                                run_replication, run_study, sample_responses)


def test_default_intercept_ranges_four_categories():
    ranges = default_intercept_ranges(4)
    assert ranges == [(0.75, 1.5), (-0.375, 0.375), (-1.5, -0.75)]


def test_default_intercept_ranges_two_categories():
    assert default_intercept_ranges(2) == [(-1.5, 1.5)]
    with pytest.raises(ValueError, match="need at least 2 categories, got 1"):
        default_intercept_ranges(1)


def test_default_intercept_ranges_disjoint_and_decreasing():
    for c in (3, 4, 5, 6):
        ranges = default_intercept_ranges(c)
        assert len(ranges) == c - 1
        for lo, hi in ranges:
            assert lo < hi
        for upper, lower in zip(ranges, ranges[1:]):
            assert upper[0] >= lower[1]


def test_draw_intercepts_strictly_decreasing_and_in_range():
    rng = np.random.default_rng(0)
    ranges = default_intercept_ranges(4)
    for _ in range(50):
        d = draw_intercepts(rng, 4)
        assert np.all(np.diff(d) < 0)
        for value, (lo, hi) in zip(d, ranges):
            assert lo <= value <= hi


def test_gen_sigma_exchangeable():
    sigma = gen_sigma(3, 0.1)
    assert np.allclose(np.diag(sigma), 1.0)
    off = sigma[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.1)
    np.linalg.cholesky(sigma)  # positive definite


def test_gen_sigma_rho_bounds():
    with pytest.raises(ValueError):
        gen_sigma(3, 1.0)
    with pytest.raises(ValueError):
        gen_sigma(3, -0.5)  # below -1/(K-1)
    gen_sigma(3, -0.49)


def test_gen_q_counts_and_coverage():
    design = SimDesign(n_respondents=10, n_items=10, n_factors=3, rho=0.1)
    q = gen_q(design)
    row_sums = q.entries.sum(axis=1)
    assert sorted(row_sums.tolist()) == [1, 1, 1, 1, 1, 1, 2, 2, 3, 3]
    assert np.all(q.entries.sum(axis=0) >= 1)


def test_gen_q_cyclic_assignment_deterministic():
    design = SimDesign(n_respondents=10, n_items=5, n_factors=3, rho=0.1,
                       q_proportions=(0.6, 0.4, 0.0))
    q = gen_q(design)
    # three singles on columns 0, 1, 2; first pair on (0, 1); the second
    # pair starts at cursor 5 and wraps to columns (2, 0)
    expected = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 0],
        [1, 0, 1],
    ])
    assert np.array_equal(q.entries, expected)


def test_gen_q_rejects_non_integer_counts():
    # SimDesign runs gen_q's check when it is built
    with pytest.raises(ValueError):
        gen_q(SimDesign(n_respondents=10, n_items=7, n_factors=3, rho=0.1))


def test_gen_q_rejects_too_few_factors():
    with pytest.raises(ValueError):
        gen_q(SimDesign(n_respondents=10, n_items=10, n_factors=2, rho=0.1))


def test_sim_design_validation():
    with pytest.raises(ValueError):
        SimDesign(n_respondents=10, n_items=5, n_factors=2, rho=0.1,
                  q_proportions=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        SimDesign(n_respondents=10, n_items=5, n_factors=2, rho=0.1,
                  n_categories=1)
    sizes = dict(n_respondents=10, n_items=5, n_factors=2)
    for field, least in [("n_respondents", 2), ("n_items", 1), ("n_factors", 1)]:
        with pytest.raises(ValueError, match=f"{field} must be at least {least}, got "):
            SimDesign(**{**sizes, field: least - 1}, rho=0.1)
    # a float count used to pass here and fail in gen_true_params with a
    # TypeError; a numpy integer is an integer
    for field, value in [("n_respondents", 100.0), ("n_items", 5.0), ("n_factors", 2.0),
                         ("n_categories", 4.0), ("seed", 1.5)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            SimDesign(**{**sizes, field: value}, rho=0.1)
    assert SimDesign(**{**sizes, "n_items": np.int64(5), "n_factors": 3},
                     rho=0.1).n_items == 5
    # the simulated condition itself: rho, J, K and the category cap
    one = dict(n_respondents=10, n_items=5, n_factors=1, q_proportions=(1, 0, 0))
    three = dict(n_respondents=10, n_items=5, n_factors=3)
    # rho lies in gen_sigma's open range (-1/(K-1), 1), or (-1, 1) at K=1
    for design, lo, k in [(one, -1.0, 1), (three, -0.5, 3)]:
        for rho in (lo, 1.0):
            with pytest.raises(ValueError,
                               match=re.escape(f"rho must lie in ({lo}, 1) for K={k}, "
                                               f"got {rho}")):
                SimDesign(**design, rho=rho)
        for rho in (lo + 1e-9, 1.0 - 1e-9):
            assert SimDesign(**design, rho=rho).rho == rho
    with pytest.raises(ValueError, match=re.escape(
            "q_proportions (0.6, 0.2, 0.2) do not yield integer item counts for J=7")):
        SimDesign(**{**three, "n_items": 7}, rho=0.1)
    with pytest.raises(ValueError,
                       match="items loading on 3 factors need K >= 3, got K=2"):
        SimDesign(**{**three, "n_factors": 2}, rho=0.1)
    assert SimDesign(**one, rho=0.1).n_factors == 1
    assert SimDesign(**three, rho=0.1, n_categories=1000).n_categories == 1000
    with pytest.raises(ValueError, match="n_categories must be at most 1000, got 1001"):
        SimDesign(**three, rho=0.1, n_categories=1001)


@pytest.mark.parametrize("props", [(np.nan, 0.5, 0.5), (np.inf, 0.5, 0.5),
                                   (0.5, 0.5, -np.inf)])
def test_sim_design_rejects_non_finite_q_proportions(props):
    # a nan sum passed the sum check, and gen_q then failed converting nan
    with pytest.raises(ValueError, match="q_proportions must be finite and nonnegative"):
        SimDesign(n_respondents=10, n_items=5, n_factors=2, rho=0.1,
                  q_proportions=props)


def test_gen_true_params_structure():
    design = SimDesign(n_respondents=200, n_items=10, n_factors=3, rho=0.1,
                       seed=4)
    truth, q = gen_true_params(design)
    on = q.entries == 1
    assert np.all(truth.loadings[~on] == 0.0)
    assert np.all(truth.loadings[on] >= 0.5)
    assert np.all(truth.loadings[on] <= 2.0)
    assert truth.theta.shape == (200, 3)
    for d in truth.intercepts:
        assert d.size == design.n_categories - 1
        assert np.all(np.diff(d) < 0)


@pytest.mark.parametrize("k,props", [(3, (0.6, 0.2, 0.2)), (1, (1.0, 0.0, 0.0))])
def test_random_init_draws_like_gen_true_params(k, props):
    # one seed and one sigma: the same theta, and the same loading
    # magnitudes wherever the truth's structure keeps them
    design = SimDesign(n_respondents=30, n_items=10, n_factors=k, rho=0.3,
                       q_proportions=props, seed=13)
    truth, q = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=14)
    hyper = Hyperparameters(sigma_theta=gen_sigma(k, design.rho), lam=1.0)
    init = random_init(data, hyper, seed=design.seed)
    assert np.array_equal(init.theta, truth.theta)
    on = q.entries == 1
    assert np.array_equal(np.abs(init.loadings)[on], truth.loadings[on])


def test_gen_true_params_deterministic():
    design = SimDesign(n_respondents=20, n_items=10, n_factors=3, rho=0.1,
                       seed=9)
    a, qa = gen_true_params(design)
    b, qb = gen_true_params(design)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(qa.entries, qb.entries)


def test_sample_responses_range_and_determinism():
    design = SimDesign(n_respondents=50, n_items=10, n_factors=3, rho=0.1,
                       seed=2)
    truth, _ = gen_true_params(design)
    a = sample_responses(truth, 4, seed=3)
    b = sample_responses(truth, 4, seed=3)
    c = sample_responses(truth, 4, seed=4)
    assert np.array_equal(a.responses, b.responses)
    assert not np.array_equal(a.responses, c.responses)
    assert a.responses.min() >= 0 and a.responses.max() <= 3
    assert a.mask.all()


@pytest.mark.parametrize("n,j,k,categories", [
    (500, 30, 3, [4]), (4000, 70, 5, [6]), (300, 10, 3, [2, 3, 5, 7, 3])])
def test_sample_responses_equal_draws_made_with_expit(n, j, k, categories):
    # scipy's expit is the sampler's independent oracle: only a uniform draw
    # within an ulp or two of a cumulative probability could tell the two
    # logistics apart
    truth, _ = gen_true_params(SimDesign(n_respondents=n, n_items=j,
                                         n_factors=k, rho=0.1, seed=n + j))
    cats = np.resize(categories, j)
    rng = np.random.default_rng(5)
    truth = ModelState(theta=truth.theta, loadings=truth.loadings,
                       intercepts=[draw_intercepts(rng, c) for c in cats])
    got = sample_responses(truth, cats, seed=6).responses
    u = np.random.default_rng(6).random((n, j))
    for jj in range(j):
        cum = expit(truth.theta @ truth.loadings[jj] + truth.intercepts[jj][:, None])
        assert np.array_equal(got[:, jj], (u[:, jj] < cum).sum(axis=0))


def test_sample_responses_frequencies_match_model():
    n = 40000
    theta = np.full((n, 1), 0.5)
    loadings = np.array([[1.2]])
    intercepts = [np.array([1.0, 0.0, -1.0])]
    truth = ModelState(theta=theta, loadings=loadings, intercepts=intercepts)
    data = sample_responses(truth, 4, seed=11)
    probs = [category_prob(theta[0], loadings[0], intercepts[0], c)
             for c in range(4)]
    freqs = np.bincount(data.responses[:, 0], minlength=4) / n
    for c in range(4):
        se = np.sqrt(probs[c] * (1 - probs[c]) / n)
        assert abs(freqs[c] - probs[c]) < 4 * se + 1e-9


def test_sample_responses_rejects_wrong_intercept_length():
    truth = ModelState(theta=np.zeros((5, 1)), loadings=np.ones((2, 1)),
                       intercepts=[np.array([0.5]), np.array([0.5])])
    with pytest.raises(ValueError, match="item 0: 1 intercepts for 4 categories"):
        sample_responses(truth, 4, seed=0)
    with pytest.raises(ValueError, match="item 1: 1 intercepts for 3 categories"):
        sample_responses(truth, [2, 3], seed=0)


def test_run_replication_fixed_lambda_smoke():
    design = SimDesign(n_respondents=60, n_items=6, n_factors=3, rho=0.1,
                       n_categories=3, seed=21,
                       q_proportions=(0.5, 0.5, 0.0))
    cfg = FitConfig(seed=0, max_outer_iters=30, obj_tol=1.0)
    selection, recovery, result = run_replication(design, cfg, lam=5.0)
    assert 0.0 <= selection.msr <= 1.0
    assert recovery.error_a >= 0.0
    assert result.state.n_respondents == 60
    assert np.all(np.diff(result.objective_trace) >= -1e-8)


def test_run_replication_deterministic():
    design = SimDesign(n_respondents=60, n_items=6, n_factors=3, rho=0.1,
                       n_categories=3, seed=22,
                       q_proportions=(0.5, 0.5, 0.0))
    cfg = FitConfig(seed=0, max_outer_iters=20, obj_tol=1.0)
    a = run_replication(design, cfg, lam=5.0)
    b = run_replication(design, cfg, lam=5.0)
    assert a[0] == b[0]
    assert a[1] == b[1]


@pytest.mark.parametrize("lam", [5.0, None])
def test_run_replication_scores_its_fit_against_the_regenerated_truth(lam):
    design = SimDesign(n_respondents=40, n_items=6, n_factors=3, rho=0.1,
                       n_categories=3, seed=23,
                       q_proportions=(0.5, 0.5, 0.0))
    cfg = FitConfig(seed=0, max_outer_iters=10, obj_tol=1.0)
    selection, recovery, result = run_replication(design, cfg, n_folds=2,
                                                  lam=lam)
    seeds = derive_seeds(design.seed, 4)
    truth, q_star = gen_true_params(replace(design, seed=seeds[0]))
    assert (selection, recovery) == score(result.state, truth, q_star)
    if lam is not None:
        assert result.hyper.lam == lam
    else:
        # the fit's record reproduces its final objective on the test half
        data = sample_responses(truth, design.n_categories, seed=seeds[1])
        test = split_rows(data, 0.5, seeds[3])[1]
        assert objective_value(test, result.state, result.hyper) == result.objective_trace[-1]


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process pool needs the fork start method")


def _study_designs(n_designs=3):
    return [SimDesign(n_respondents=40, n_items=6, n_factors=3, rho=0.1,
                      n_categories=3, seed=seed, q_proportions=(0.5, 0.5, 0.0))
            for seed in derive_seeds(31, n_designs)]


def _row_bytes(row):
    selection, recovery, result = row
    state = result.state
    return (selection, recovery,
            [x.tobytes() for x in (state.theta, state.loadings, *state.intercepts,
                                   result.objective_trace)],
            result.hyper.lam, result.n_iters, result.converged)


@pytest.mark.parametrize("lam", [None, 5.0])
def test_run_study_equals_a_loop_of_run_replication_on_one_and_two_cpus(
        monkeypatch, lam):
    designs = _study_designs()
    cfg = FitConfig(seed=0, max_outer_iters=6, obj_tol=1.0, n_starts=2)
    loop = [_row_bytes(run_replication(d, cfg, n_folds=2, lam=lam)) for d in designs]
    for cpus in (1, 2):
        monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
        rows = list(run_study(designs, cfg, n_folds=2, lam=lam))
        assert [_row_bytes(row[:3]) for row in rows] == loop
        assert all(row[3] > 0.0 for row in rows)


@needs_fork
def test_run_study_opens_one_pool_for_its_replications(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    cfg = FitConfig(seed=0, max_outer_iters=3, obj_tol=1.0, n_starts=2)
    with mock.patch.object(_pool, "ProcessPoolExecutor",
                           wraps=_pool.ProcessPoolExecutor) as executor:
        rows = list(run_study(_study_designs(), cfg, n_folds=2))
    # one 2-worker pool here for the three replications, not one CV pool
    # per replication
    assert len(rows) == 3
    assert [c.args for c in executor.call_args_list] == [(2,)]


def _fake_replication(design, cfg, train_fraction, n_folds, lam):
    if design.seed == _study_designs()[1].seed:
        raise FloatingPointError(f"replication at seed {design.seed} diverged")
    return design.seed, n_folds, lam


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=needs_fork)])
def test_run_study_yields_earlier_rows_before_a_replications_error(monkeypatch,
                                                                   cpus):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulate, "run_replication", _fake_replication)
    designs = _study_designs()
    study = run_study(designs, FitConfig(), n_folds=3, lam=2.0)
    assert next(study)[:3] == (designs[0].seed, 3, 2.0)
    with pytest.raises(FloatingPointError,
                       match=f"replication at seed {designs[1].seed} diverged"):
        next(study)


def test_run_study_runs_a_replication_only_when_its_row_is_asked_for_on_one_cpu(
        monkeypatch):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    seen = []

    def spy(design, *args):
        seen.append(design.seed)
        return design.seed, None, None

    monkeypatch.setattr(simulate, "run_replication", spy)
    designs = _study_designs()
    study = run_study(designs, FitConfig())
    assert next(study)[0] == designs[0].seed
    assert seen == [designs[0].seed]
    assert [row[0] for row in study] == [d.seed for d in designs[1:]]
    assert seen == [d.seed for d in designs]
