import multiprocessing
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
    folds = FoldAssignment(n_folds=2, fold=np.array([[0, 1, -1]]))
    with pytest.raises(ValueError):
        folds.holdout_mask(2)


def test_holdout_loss_matches_manual_sum():
    data = sim_data(seed=1, n=30)
    folds = make_folds(data.mask, 4, seed=0)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=1.0)
    cfg = FitConfig(seed=0, max_outer_iters=3, obj_tol=1e-8)
    loss, result = cv._fold_fit(data, folds, 0, hyper, cfg)
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
    """Bare stand-in for a FitResult inside patched fold fits."""

    state = None


def _patch_losses(monkeypatch, loss_of_lam):
    """Replace the fold fit with a deterministic loss stub."""

    def fake(data, folds, m, hyper, cfg, init=None):
        return loss_of_lam(hyper.lam), _StubResult()

    monkeypatch.setattr(cv, "_fold_fit", fake)


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

    def fake(data, folds, m, hyper, cfg, init=None):
        calls.append((hyper.lam, m))
        return float(abs(np.log10(hyper.lam / 10.0))), _StubResult()

    monkeypatch.setattr(cv, "_fold_fit", fake)
    data = sim_data(seed=4, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    lam_hat, table = select_lambda(data, hyper, FitConfig(seed=0), n_folds=5)
    assert len(calls) == 50  # 2 stages x 5 candidates x 5 folds
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


def test_cv_entry_fold_errors_sum_to_total():
    data = sim_data(seed=6, n=40)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=4, obj_tol=1e-8)
    grid = LambdaGrid(np.array([1.0, 5.0]))
    folds = make_folds(data.mask, 3, seed=0)
    entries = cv._scan_stage(1, data, folds, grid, hyper, cfg,
                             warm_start=True)
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
    _, test_rows = split_row_indices(data.n_respondents, 0.5, 11)
    assert result.state.n_respondents == test_rows.size
    assert np.all(np.diff(result.objective_trace) >= -1e-8)


def test_tune_and_fit_warm_start_toggle_changes_only_cv_path():
    data = sim_data(seed=8, n=40)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    cfg = FitConfig(seed=0, max_outer_iters=6, obj_tol=1.0)
    warm = tune_and_fit(data, hyper, cfg, seed=2, warm_start=True)
    cold = tune_and_fit(data, hyper, cfg, seed=2, warm_start=False)
    # both run to completion and return positive weights
    assert warm[1] > 0 and cold[1] > 0


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
                                   result.objective_trace)],
            result.n_iters, result.converged)


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
        runs.append(_result_bytes(optimizer.fit_multistart(data, hyper, cfg)))
    assert runs[0] == runs[1]


@needs_fork
def test_value_error_in_a_pool_task_reaches_the_caller(monkeypatch):
    def failing(data, folds, m, hyper, cfg, init=None):
        if m == 1:
            raise ValueError(f"fold {m} cannot be fitted")
        return 1.0, _StubResult()

    monkeypatch.setattr(cv, "_fold_fit", failing)
    _use_cpus(monkeypatch, 2)
    data = sim_data(seed=3, n=20)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=0.0)
    with pytest.raises(ValueError, match="fold 1 cannot be fitted"):
        select_lambda(data, hyper, FitConfig(seed=0), n_folds=3)
