import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest

import sparsegrm.cv as cv
import sparsegrm.optimizer as optimizer
from sparsegrm import _pool
from sparsegrm.cv import (STAGE1_GRID, CvEntry, FoldAssignment, LambdaGrid,
                          cv_error, make_folds, second_stage_grid,
                          select_lambda, tune_and_fit)
from sparsegrm.data import ResponseData, split_row_indices
from sparsegrm.model import Hyperparameters, ModelState, category_prob
from sparsegrm.optimizer import FitConfig
from sparsegrm.simulate import SimDesign, gen_true_params, sample_responses


def sim_data(seed=0, n=60, j=6, k=2, c=3):
    design = SimDesign(n_respondents=n, n_items=j, n_factors=k,
                       n_categories=c, rho=0.2, seed=seed,
                       q_proportions=(0.5, 0.5, 0.0))
    truth, _ = gen_true_params(design)
    return sample_responses(truth, design.n_categories, seed=seed + 1)


def test_stage1_grid_values():
    assert STAGE1_GRID == (0.01, 0.1, 1.0, 10.0, 100.0)


def test_second_stage_grid_around_one():
    grid = second_stage_grid(1.0)
    np.testing.assert_allclose(grid.values, [0.2, 1.4, 2.6, 3.8, 5.0],
                               rtol=0, atol=1e-12)


def test_second_stage_grid_around_smallest_candidate():
    grid = second_stage_grid(0.01)
    np.testing.assert_allclose(grid.values, [0.002, 0.014, 0.026, 0.038, 0.05],
                               rtol=0, atol=1e-12)


def test_second_stage_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        second_stage_grid(0.0)


@pytest.mark.parametrize("lambda_hat", [np.nan, np.inf])
def test_second_stage_grid_rejects_non_finite(lambda_hat):
    # unchecked, inf gave the grid [nan nan nan nan inf] and nan an all-nan grid
    with pytest.raises(ValueError, match="lambda_hat must be finite"):
        second_stage_grid(lambda_hat)


def test_lambda_grid_validation():
    for values in ([[1.0, 2.0]], []):
        with pytest.raises(ValueError, match="grid must be a nonempty 1-D vector"):
            LambdaGrid(np.array(values))
    with pytest.raises(ValueError):
        LambdaGrid(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        LambdaGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        LambdaGrid(np.array([2.0, 1.0]))
    for values in ([np.nan], [1.0, np.inf], [1.0, np.nan, 3.0]):
        with pytest.raises(ValueError, match="grid values must be finite"):
            LambdaGrid(np.array(values))


def test_make_folds_partitions_observed_cells():
    rng = np.random.default_rng(0)
    mask = rng.random((12, 7)) > 0.25
    folds = make_folds(mask, 5, seed=3)
    assert folds.fold.shape == mask.shape
    assert np.all((folds.fold == -1) == ~mask)
    sizes = [int(folds.holdout_mask(m).sum()) for m in range(5)]
    assert sum(sizes) == int(mask.sum())
    assert max(sizes) - min(sizes) <= 1
    # every observed cell is in exactly one fold
    union = np.zeros_like(mask)
    for m in range(5):
        hold = folds.holdout_mask(m)
        assert not np.any(union & hold)
        union |= hold
    assert np.array_equal(union, mask)


def test_make_folds_deterministic():
    mask = np.ones((8, 4), dtype=bool)
    a = make_folds(mask, 3, seed=9)
    b = make_folds(mask, 3, seed=9)
    c = make_folds(mask, 3, seed=10)
    assert np.array_equal(a.fold, b.fold)
    assert not np.array_equal(a.fold, c.fold)


def test_make_folds_too_few_cells():
    with pytest.raises(ValueError):
        make_folds(np.ones((1, 3), dtype=bool), 5, seed=0)


def test_fold_assignment_validation():
    with pytest.raises(ValueError):
        FoldAssignment(n_folds=2, fold=np.array([[0, 2]]))
    with pytest.raises(ValueError, match="fold must be 2-D"):
        FoldAssignment(n_folds=2, fold=np.array([0, 1]))
    # one fold would hold out every observed cell and fit on none
    with pytest.raises(ValueError, match="need at least 2 folds, got 1"):
        FoldAssignment(n_folds=1, fold=np.array([[0, 0, -1]]))
    folds = FoldAssignment(n_folds=2, fold=np.array([[0, 1, -1]]))
    with pytest.raises(ValueError):
        folds.holdout_mask(2)


def test_holdout_loss_matches_manual_sum(monkeypatch):
    data = sim_data(seed=1, n=30)
    folds = make_folds(data.mask, 4, seed=0)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=1.0)
    cfg = FitConfig(seed=0, max_outer_iters=3, obj_tol=1e-8)
    fits = []

    def spy(train, hyper, cfg, init=None):
        fits.append(optimizer.fit(train, hyper, cfg, init=init))
        return fits[-1]

    monkeypatch.setattr(cv, "fit", spy)
    loss = cv_error(data, folds, 0, 1.0, hyper, cfg)
    (result,) = fits
    hold = folds.holdout_mask(0)
    manual = 0.0
    for i, j in np.argwhere(hold):
        manual -= np.log(category_prob(
            result.state.theta[i], result.state.loadings[j],
            result.state.intercepts[j], int(data.responses[i, j])))
    assert loss == pytest.approx(manual, rel=1e-12)
    assert np.isfinite(loss) and loss > 0


def test_cv_error_finite():
    data = sim_data(seed=2, n=30)
    folds = make_folds(data.mask, 3, seed=1)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=3, obj_tol=1e-8)
    err = cv_error(data, folds, 1, 2.0, hyper, cfg)
    assert np.isfinite(err)


class _StubResult:
    """Bare stand-in for a FitResult inside patched fold fits; its state is
    the fit's lambda."""

    def __init__(self, lam):
        self.state = lam


def _patch_losses(monkeypatch, loss_of_lam, calls=None):
    """Replace fold fits with a stub whose holdout loss is loss_of_lam(lambda).

    When calls is given, each fit appends ("fit", training set, lambda) to
    it and each holdout score ("score", holdout set, lambda).
    """

    def fake_fit(train, hyper, cfg, init=None):
        if calls is not None:
            calls.append(("fit", train, hyper.lam))
        return _StubResult(hyper.lam)

    def fake_loglik(holdout, lam):
        if calls is not None:
            calls.append(("score", holdout, lam))
        return -loss_of_lam(lam)

    monkeypatch.setattr(cv, "fit", fake_fit)
    monkeypatch.setattr(cv, "log_likelihood_value", fake_loglik)


def _fold_of(train, data, folds):
    """The fold whose cells the training set train leaves out."""
    (m,) = [m for m in range(folds.n_folds)
            if np.array_equal(train.mask, data.mask & ~folds.holdout_mask(m))]
    return m


def test_select_lambda_tie_prefers_larger(monkeypatch):
    _patch_losses(monkeypatch, lambda lam: 1.0)
    data = sim_data(seed=3, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    lam_hat, table = select_lambda(data, hyper, FitConfig(seed=0), n_folds=2)
    stage1 = [e for e in table if e.stage == 1]
    assert stage1[-1].selected and stage1[-1].lam == 100.0
    assert lam_hat == 500.0  # largest of the flat stage-2 grid around 100


def test_select_lambda_runs_fifty_fold_fits(monkeypatch):
    # the fake records its calls in this process, so the folds run here
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    calls = []
    _patch_losses(monkeypatch, lambda lam: float(abs(np.log10(lam / 10.0))), calls)
    data = sim_data(seed=4, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    lam_hat, table = select_lambda(data, hyper, FitConfig(seed=0), n_folds=5)
    fits = [c for c in calls if c[0] == "fit"]
    assert len(fits) == 50  # 2 stages x 5 candidates x 5 folds
    assert len(calls) == 100  # each fit's holdout is scored once
    assert len(table) == 10
    stage1 = [e for e in table if e.stage == 1]
    assert stage1[3].selected and stage1[3].lam == 10.0
    grid2 = [e.lam for e in table if e.stage == 2]
    np.testing.assert_allclose(grid2, [2.0, 14.0, 26.0, 38.0, 50.0])
    # 10 is closest to 14 on the log scale among stage-2 values
    assert lam_hat == 14.0


def test_select_lambda_reuses_folds_across_stages(monkeypatch):
    seen = []
    real_make_folds = cv.make_folds

    def spy(mask, n_folds, seed):
        out = real_make_folds(mask, n_folds, seed)
        seen.append(out)
        return out

    monkeypatch.setattr(cv, "make_folds", spy)
    _patch_losses(monkeypatch, lambda lam: lam)
    data = sim_data(seed=5, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    select_lambda(data, hyper, FitConfig(seed=0), n_folds=3)
    assert len(seen) == 1


def test_each_fold_fits_and_scores_one_pair_of_sets_in_both_stages(monkeypatch):
    # the stub records its calls in this process, so the folds run here
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    calls = []
    _patch_losses(monkeypatch, lambda lam: lam, calls)
    data = sim_data(seed=5, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    select_lambda(data, hyper, FitConfig(seed=0), n_folds=3)
    folds = make_folds(data.mask, 3, seed=0)
    trains = [c[1] for c in calls if c[0] == "fit"]
    holdouts = [c[1] for c in calls if c[0] == "score"]
    assert len(trains) == len(holdouts) == 2 * 3 * 5
    for m in range(3):
        # serially: stage 1's chains of folds 0, 1, 2, then stage 2's
        chains = [range(5 * c, 5 * c + 5) for c in (m, m + 3)]
        train, holdout = trains[5 * m], holdouts[5 * m]
        assert all(trains[i] is train and holdouts[i] is holdout
                   for chain in chains for i in chain)
        assert np.array_equal(train.mask, data.mask & ~folds.holdout_mask(m))
        assert np.array_equal(holdout.mask, folds.holdout_mask(m))
    assert len({id(t) for t in trains}) == 3


def test_cv_error_equals_the_first_stage_error_at_its_smallest_candidate():
    data = sim_data(seed=12, n=40)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=2, max_outer_iters=4, obj_tol=1e-8)
    _, table = select_lambda(data, hyper, cfg, n_folds=3)
    assert table[0].stage == 1 and table[0].lam == STAGE1_GRID[0] == 0.01
    folds = make_folds(data.mask, 3, cfg.seed)
    for m in range(3):
        # a one-candidate chain is the cold first fit of that fold's stage-1 chain
        assert cv_error(data, folds, m, 0.01, hyper, cfg) == table[0].fold_errors[m]


def test_cv_entry_fold_errors_sum_to_total():
    data = sim_data(seed=6, n=40)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-8)
    grid = LambdaGrid(np.array([1.0, 5.0]))
    folds = make_folds(data.mask, 3, seed=0)
    fold_sets = [cv._fold_sets(data, folds, m) for m in range(3)]
    lam, entries = cv._scan_stage(1, fold_sets, grid, hyper, cfg)
    assert [e.lam for e in entries if e.selected] == [lam]
    for e in entries:
        assert e.total_error == pytest.approx(e.fold_errors.sum(), rel=1e-12)
        assert e.fold_errors.size == 3


def test_tune_and_fit_end_to_end():
    data = sim_data(seed=7, n=80)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=25, obj_tol=1.0, n_starts=2)
    result, lam_hat, table = tune_and_fit(data, hyper, cfg, seed=11)
    assert lam_hat > 0
    selected = [e for e in table if e.selected]
    assert len(selected) == 2
    assert selected[1].stage == 2 and selected[1].lam == lam_hat
    assert result.hyper.lam == lam_hat
    _, test_rows = split_row_indices(data.n_respondents, 0.5, 11)
    assert result.state.n_respondents == test_rows.size
    assert np.all(np.diff(result.objective_trace) >= -1e-8)


def test_tune_and_fit_on_given_rows_equals_the_seeded_split():
    data = sim_data(seed=7, n=40)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=3, obj_tol=1e-2)
    drawn = tune_and_fit(data, hyper, cfg, train_fraction=0.6, seed=11)
    rows = split_row_indices(data.n_respondents, 0.6, 11)
    given = tune_and_fit(data, hyper, cfg, rows=rows)
    assert given[1] == drawn[1]
    assert _table_bytes(given[2]) == _table_bytes(drawn[2])
    assert _result_bytes(given[0]) == _result_bytes(drawn[0])


def test_fold_chains_start_cold_then_from_the_previous_candidate(monkeypatch):
    # the spy records its calls in this process, so the folds run here
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 1)
    calls = []
    data = sim_data(seed=8, n=20)
    folds = make_folds(data.mask, 3, seed=0)

    def spy(train, hyper, cfg, init=None):
        result = optimizer.fit(train, hyper, cfg, init=init)
        calls.append((_fold_of(train, data, folds), hyper.lam, init, result))
        return result

    monkeypatch.setattr(cv, "fit", spy)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    select_lambda(data, hyper, FitConfig(seed=0, max_outer_iters=2), n_folds=3)
    assert len(calls) == 2 * 3 * 5
    # serially the chains run one after another: stage 1's folds, then stage 2's
    for c in range(6):
        chain = calls[5 * c: 5 * c + 5]
        assert [m for m, *_ in chain] == [c % 3] * 5
        lams = [lam for _, lam, _, _ in chain]
        assert lams == sorted(lams)
        assert chain[0][2] is None
        for prev, cur in zip(chain, chain[1:]):
            assert cur[2] is prev[3].state


@pytest.mark.parametrize("n_folds", [1, 0])
def test_select_lambda_needs_two_folds(n_folds):
    # one fold would hold out every observed cell of every fit
    data = sim_data(seed=3, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    with pytest.raises(ValueError, match="at least 2 folds"):
        select_lambda(data, hyper, FitConfig(seed=0), n_folds=n_folds)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process pool needs the fork start method")


def _use_cpus(monkeypatch, n):
    monkeypatch.setattr(_pool, "usable_cpus", lambda: n)


def test_worker_count_is_bounded_by_tasks_and_by_cpus_per_thread_count():
    assert _pool.worker_count(5, 1, 2) == 2
    assert _pool.worker_count(5, 1, 16) == 5  # bound by tasks
    assert _pool.worker_count(5, 2, 8) == 4  # bound by CPUs // threads
    assert _pool.worker_count(5, 3, 8) == 2


@pytest.mark.parametrize("n_tasks,threads,cpus",
                         [(5, 1, 1), (5, 2, 2), (5, 3, 5), (1, 1, 8), (0, 1, 8)])
def test_task_pool_runs_serially_below_two_workers(monkeypatch, n_tasks, threads,
                                                   cpus):
    _use_cpus(monkeypatch, cpus)
    with mock.patch.object(_pool, "ProcessPoolExecutor") as executor:
        with _pool.task_pool(n_tasks, threads) as pool:
            assert pool is None
    executor.assert_not_called()


@needs_fork
def test_task_pool_forks_the_bounded_worker_count(monkeypatch):
    _use_cpus(monkeypatch, 8)
    with mock.patch.object(_pool, "ProcessPoolExecutor") as executor:
        with _pool.task_pool(5, 2) as pool:
            assert pool is executor.return_value
    (workers,), kwargs = executor.call_args
    assert workers == 4
    assert kwargs["mp_context"].get_start_method() == "fork"
    pool.shutdown.assert_called_once()


def _table_bytes(table):
    return [(e.stage, e.lam, e.fold_errors.tobytes(), e.total_error, e.selected)
            for e in table]


def _result_bytes(result):
    state = result.state
    return ([x.tobytes() for x in (state.theta, state.loadings, *state.intercepts,
                                   result.objective_trace, result.hyper.sigma_theta)],
            result.hyper.lam, result.n_iters, result.converged)


@needs_fork
def test_select_lambda_table_is_bit_identical_on_one_and_two_workers(monkeypatch):
    data = sim_data(seed=9, n=60)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=6, obj_tol=1e-2)
    runs = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        with mock.patch.object(_pool, "ProcessPoolExecutor",
                               wraps=_pool.ProcessPoolExecutor) as executor:
            lam_hat, table = select_lambda(data, hyper, cfg, n_folds=3)
        assert executor.call_count == cpus - 1
        runs.append((lam_hat, _table_bytes(table)))
    assert runs[0] == runs[1]


@needs_fork
def test_tune_and_fit_is_bit_identical_on_one_and_two_workers(monkeypatch):
    data = sim_data(seed=10, n=60)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=6, obj_tol=1e-2, n_starts=3)
    runs = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        with mock.patch.object(_pool, "ProcessPoolExecutor",
                               wraps=_pool.ProcessPoolExecutor) as executor:
            result, lam_hat, table = tune_and_fit(data, hyper, cfg, seed=4)
        # one pool serves both CV stages and the final starts
        assert executor.call_count == cpus - 1
        runs.append((lam_hat, _table_bytes(table), _result_bytes(result)))
    assert runs[0] == runs[1]


@needs_fork
def test_tune_and_fit_runs_block_pools_inside_cv_workers_bit_identically(monkeypatch):
    # at threads=2 on 4 CPUs, two CV workers each run fits on block pools of
    # their own (fits of any size fork); on 1 CPU everything runs here
    monkeypatch.setattr(optimizer, "FORK_CELLS", 0)
    data = sim_data(seed=10, n=60)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=6, obj_tol=1e-2, n_starts=3, threads=2)
    parent = os.getpid()
    real = _pool.ProcessPoolExecutor
    runs = []
    for cpus in (1, 4):
        _use_cpus(monkeypatch, cpus)
        # pools made here, and pools made in worker processes, counted in a
        # shared mapping made before any worker forks
        made = multiprocessing.Value("l", 0)
        here = []

        def counted(*args, **kwargs):
            if os.getpid() == parent:
                here.append(args)
            else:
                with made.get_lock():
                    made.value += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(_pool, "ProcessPoolExecutor", counted)
        result, lam_hat, table = tune_and_fit(data, hyper, cfg, seed=4)
        if cpus == 1:
            assert here == [] and made.value == 0
        else:
            # the CV pool here; one block pool per fold fit (2 stages x 5
            # folds x 5 candidates) and per start, all in the CV workers
            assert here == [(2,)]
            assert made.value == 2 * 5 * 5 + 3
        runs.append((lam_hat, _table_bytes(table), _result_bytes(result)))
    assert runs[0] == runs[1]


@needs_fork
def test_fit_multistart_keeps_the_earliest_of_tied_starts_on_two_workers(
        monkeypatch):
    real_fit = optimizer.fit

    def tied_fit(data, hyper, cfg, init=None):
        # starts 2k and 2k + 1 reach the same objective, k; the factor
        # scores record which start it was
        result = real_fit(data, hyper, cfg, init=init)
        result.objective_trace = np.array([float(cfg.seed // 2)])
        result.state.theta[:] = cfg.seed
        return result

    monkeypatch.setattr(optimizer, "fit", tied_fit)
    data = sim_data(seed=11, n=30)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=1.0)
    cfg = FitConfig(seed=0, max_outer_iters=2, obj_tol=1e-8, n_starts=4)
    runs = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        best = optimizer.fit_multistart(data, hyper, cfg)
        assert np.all(best.state.theta == 2.0)  # start 2, not start 3
        runs.append(_result_bytes(best))
    assert runs[0] == runs[1]
    monkeypatch.setattr(optimizer, "fit", real_fit)
    cfg = FitConfig(seed=3, max_outer_iters=4, obj_tol=1e-8, n_starts=3)
    runs = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        best = optimizer.fit_multistart(data, hyper, cfg)
        # the record carries the hyperparameters back from a pool worker
        assert best.hyper.lam == hyper.lam
        assert np.array_equal(best.hyper.sigma_theta, hyper.sigma_theta)
        assert best.n_iters == len(best.objective_trace) - 1
        runs.append(_result_bytes(best))
    assert runs[0] == runs[1]


@needs_fork
def test_value_error_in_a_pool_task_reaches_the_caller(monkeypatch):
    data = sim_data(seed=3, n=20)
    folds = make_folds(data.mask, 3, seed=0)

    def failing(train, hyper, cfg, init=None):
        m = _fold_of(train, data, folds)
        if m == 1:
            raise ValueError(f"fold {m} cannot be fitted")
        return _StubResult(hyper.lam)

    _patch_losses(monkeypatch, lambda lam: 1.0)
    monkeypatch.setattr(cv, "fit", failing)
    _use_cpus(monkeypatch, 2)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    with pytest.raises(ValueError, match="fold 1 cannot be fitted"):
        select_lambda(data, hyper, FitConfig(seed=0), n_folds=3)
