"""Acceptance suite: end-to-end statistical and numerical contracts.

One test per contract, so ``pytest -v`` prints one pass/fail line each.
The three replication-study tests (structure recovery, sample-size
monotonicity, relative-bias comparison) share a module-scoped fixture
that runs the full selection-and-fit pipeline ten times per sample
size; everything else completes in seconds.  The last test exercises an
external personality-inventory dataset and is skipped when that file is
absent.
"""

import os
import time

import numpy as np
import pytest

from sparsegrm.align import (alignment_cost, apply_alignment, best_alignment,
                             exhaustive_alignment)
from sparsegrm.cv import tune_and_fit
from sparsegrm.data import ResponseData, derive_seeds, load_responses
from sparsegrm.gradients import grad_a_loglik, grad_delta, grad_theta, to_d, to_delta
from sparsegrm.model import (Hyperparameters, ModelState, cumulative_probs,
                             log_likelihood, log_prior_d, log_prior_theta,
                             objective)
from sparsegrm.optimizer import FitConfig, fit, objective_value, soft_threshold
from sparsegrm.simulate import (SimDesign, gen_sigma, gen_true_params,
                                run_study, sample_responses)

# ---------------------------------------------------------------------------
# shared helpers


def random_instance(seed):
    """A small random dataset/state/hyper triple (N,J <= 10, K <= 3)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    j = int(rng.integers(3, 11))
    k = int(rng.integers(1, 4))
    categories = [int(c) for c in rng.choice([2, 4], size=j)]
    theta = rng.normal(size=(n, k))
    loadings = rng.normal(size=(j, k))
    intercepts = []
    for c in categories:
        d = np.sort(rng.normal(size=c - 1))[::-1].copy()
        if d.size > 1 and np.min(-np.diff(d)) < 1e-3:
            d -= np.arange(d.size) * 0.5
        intercepts.append(d)
    state = ModelState(theta=theta, loadings=loadings, intercepts=intercepts)
    hyper = Hyperparameters(sigma_theta=gen_sigma(k, 0.2),
                            lam=float(rng.uniform(0.3, 2.0)))
    responses = np.zeros((n, j), dtype=np.int64)
    for col, c in enumerate(categories):
        responses[:, col] = rng.integers(0, c, size=n)
    mask = rng.random((n, j)) > 0.15
    mask[0] = True
    responses[~mask] = 0
    data = ResponseData(responses=responses, mask=mask, categories=categories)
    return data, state, hyper


def central_diff(f, x, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2 * eps)
    return g


def assert_matches_fd(analytic, fd, label):
    err = np.abs(analytic - fd)
    tol = np.maximum(1e-5 * np.abs(fd), 1e-8)
    assert np.all(err < tol), (
        f"{label}: worst abs deviation {err.max():.3g} exceeds "
        f"rel 1e-5 / abs 1e-8 against finite differences"
    )


# ---------------------------------------------------------------------------
# gradient, ascent, prox, and alignment contracts


def test_analytic_gradients_match_finite_differences():
    for seed in range(20):
        data, state, hyper = random_instance(seed)

        def theta_part(x, i):
            probe = state.copy()
            probe.theta[i] = x
            return log_likelihood(data, probe) + log_prior_theta(x, hyper)

        def a_part(x, j):
            probe = state.copy()
            probe.loadings[j] = x
            return log_likelihood(data, probe)

        def delta_part(x, j):
            probe = state.copy()
            probe.intercepts[j] = to_d(x)
            return (log_likelihood(data, probe)
                    + log_prior_d(probe.intercepts[j], hyper.sigma_d_sq))

        for i in range(data.n_respondents):
            fd = central_diff(lambda x, i=i: theta_part(x, i), state.theta[i])
            assert_matches_fd(grad_theta(data, state, hyper, i), fd,
                              f"factor-score gradient (seed {seed}, row {i})")
        for j in range(data.n_items):
            fd = central_diff(lambda x, j=j: a_part(x, j), state.loadings[j])
            assert_matches_fd(grad_a_loglik(data, state, j), fd,
                              f"loading gradient (seed {seed}, item {j})")
            delta = to_delta(state.intercepts[j])
            fd = central_diff(lambda x, j=j: delta_part(x, j), delta)
            assert_matches_fd(grad_delta(data, state, hyper, j), fd,
                              f"intercept gradient (seed {seed}, item {j})")


def test_objective_trace_is_monotone_nondecreasing():
    for seed in range(10):
        data, _, hyper = random_instance(seed + 300)
        cfg = FitConfig(obj_tol=1e-2, max_outer_iters=5000, seed=seed)
        result = fit(data, hyper, cfg)
        steps = np.diff(result.objective_trace)
        assert np.all(steps >= -1e-8), (
            f"seed {seed}: objective decreased by {-steps.min():.3g} "
            f"at iteration {int(np.argmin(steps)) + 1}"
        )


def test_soft_threshold_matches_grid_minimization():
    rng = np.random.default_rng(42)
    grid = np.arange(-4.0, 4.0 + 1e-4, 1e-4)
    for _ in range(50):
        z = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.0, 2.0))
        values = 0.5 * (grid - z) ** 2 + t * np.abs(grid)
        brute = grid[int(np.argmin(values))]
        assert abs(soft_threshold(z, t) - brute) <= 2e-4, (
            f"prox({z:.4f}, {t:.4f}) = {soft_threshold(z, t):.6f} "
            f"but grid search found {brute:.6f}"
        )


def test_alignment_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    for k in (2, 3, 4):
        for _ in range(50):
            j = int(rng.integers(4, 9))
            estimate = rng.normal(size=(j, k))
            reference = rng.normal(size=(j, k))
            fast = best_alignment(estimate, reference)
            brute = exhaustive_alignment(estimate, reference)
            fast_cost = alignment_cost(estimate, reference, fast)
            brute_cost = alignment_cost(estimate, reference, brute)
            assert abs(fast_cost - brute_cost) <= 1e-9
            assert tuple(fast.permutation) == tuple(brute.permutation)
            assert np.array_equal(fast.signs, brute.signs)


# ---------------------------------------------------------------------------
# replication study: ten full pipeline runs per sample size

STUDY_SEEDS = tuple(derive_seeds(9001, 10))


def study_design(n_respondents, seed):
    return SimDesign(n_respondents=n_respondents, n_items=30, n_factors=3,
                     n_categories=4, rho=0.1, seed=seed)


@pytest.fixture(scope="module")
def replication_study():
    """Full tune-and-fit pipeline, ten replications at N=500 and N=1000.

    Five random starts per final fit, matching the multistart protocol
    used throughout; the same replication seed schedule is reused at
    both sample sizes so the comparison is paired.  Each sample size is one
    run_study, whose replications are the tasks of one process pool.
    """
    results = {}
    for n in (500, 1000):
        started = time.perf_counter()
        rows = [row[:3] for row in run_study(
            [study_design(n, seed) for seed in STUDY_SEEDS],
            FitConfig(seed=0, n_starts=5))]
        results[n] = {"rows": rows,
                      "elapsed": time.perf_counter() - started}
    return results


def test_structure_recovery_rates_at_n500(replication_study):
    rows = replication_study[500]["rows"]
    fnr = float(np.mean([sel.fnr for sel, _, _ in rows]))
    msr = float(np.mean([sel.msr for sel, _, _ in rows]))
    fpr = float(np.mean([sel.fpr for sel, _, _ in rows]))
    elapsed = replication_study[500]["elapsed"]
    assert elapsed < 1800.0, f"ten replications took {elapsed:.0f}s"
    assert fnr <= 0.05 and msr <= 0.15 and fnr <= fpr, (
        f"over 10 replications at N=500: mean FNR={fnr:.4f} (target <= 0.05), "
        f"mean MSR={msr:.4f} (target <= 0.15), mean FPR={fpr:.4f} "
        f"(FNR must not exceed FPR)"
    )


def test_loading_error_shrinks_with_sample_size(replication_study):
    err_small = float(np.mean([rec.error_a for _, rec, _
                               in replication_study[500]["rows"]]))
    err_large = float(np.mean([rec.error_a for _, rec, _
                               in replication_study[1000]["rows"]]))
    assert err_large < err_small, (
        f"mean loading error {err_large:.4f} at N=1000 is not below "
        f"{err_small:.4f} at N=500"
    )


def test_intercepts_less_biased_than_loadings(replication_study):
    rows = replication_study[500]["rows"] + replication_study[1000]["rows"]
    bias_d = float(np.mean([abs(rec.relbias_d) for _, rec, _ in rows]))
    bias_a = float(np.mean([abs(rec.relbias_a) for _, rec, _ in rows]))
    assert bias_d < bias_a, (
        f"mean |relative bias| over 20 replications: intercepts {bias_d:.4f} "
        f"is not below loadings {bias_a:.4f}"
    )


# ---------------------------------------------------------------------------
# determinism, missing-data, and normalization contracts


def test_fit_is_bit_identical_across_thread_counts():
    design = study_design(500, derive_seeds(77, 1)[0])
    truth, _ = gen_true_params(design)
    data = sample_responses(truth, design.n_categories, seed=101)
    hyper = Hyperparameters(sigma_theta=gen_sigma(3, 0.1), lam=14.0)
    fits = [fit(data, hyper, FitConfig(seed=5, threads=t)) for t in (1, 2, 4)]
    for other in fits[1:]:
        assert np.array_equal(other.objective_trace, fits[0].objective_trace)
        assert np.array_equal(other.state.theta, fits[0].state.theta)
        assert np.array_equal(other.state.loadings, fits[0].state.loadings)
        for d_other, d_base in zip(other.state.intercepts,
                                   fits[0].state.intercepts):
            assert np.array_equal(d_other, d_base)


def test_missing_cells_contribute_nothing_to_the_objective():
    design = SimDesign(n_respondents=80, n_items=10, n_factors=2, rho=0.1,
                       n_categories=4, q_proportions=(0.6, 0.4, 0.0), seed=12)
    truth, _ = gen_true_params(design)
    complete = sample_responses(truth, design.n_categories, seed=13)
    rng = np.random.default_rng(14)
    mask = rng.random(complete.responses.shape) >= 0.2
    empty_rows = (3, 17)
    mask[list(empty_rows)] = False
    data = ResponseData(responses=complete.responses, mask=mask,
                        categories=complete.categories)
    hyper = Hyperparameters(sigma_theta=np.eye(2), lam=2.0)
    result = fit(data, hyper, FitConfig(seed=2))
    assert result.converged
    # recomputing the objective from the returned state must reproduce the
    # final trace value bit for bit, and the reference implementation that
    # loops observed cells only must agree to rounding
    final = result.objective_trace[-1]
    assert objective_value(data, result.state, hyper) == final
    reference = objective(data, result.state, hyper)
    assert abs(reference - final) <= 1e-9 * abs(final)
    # respondents with no observed responses shrink to the prior mode
    for i in empty_rows:
        assert np.linalg.norm(result.state.theta[i]) < 1e-3


def test_probabilities_normalize_and_intercepts_stay_ordered(replication_study):
    rng = np.random.default_rng(11)
    for scale in (1.0, 3.0, 50.0):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            c = int(rng.integers(2, 7))
            theta_i = rng.normal(scale=scale, size=k)
            a_j = rng.normal(scale=scale, size=k)
            d_j = np.sort(rng.normal(scale=scale, size=c - 1))[::-1]
            cum = cumulative_probs(theta_i, a_j, d_j)
            probs = -np.diff(cum)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert cum[0] == 1.0 and cum[-1] == 0.0
    # every fit produced by the replication study keeps each intercept
    # vector strictly decreasing, as do fresh fits on small problems
    states = [result.state for batch in replication_study.values()
              for _, _, result in batch["rows"]]
    for seed in range(3):
        data, _, hyper = random_instance(seed + 600)
        states.append(fit(data, hyper, FitConfig(seed=seed)).state)
    for state in states:
        for d_j in state.intercepts:
            assert np.all(np.diff(d_j) < 0.0)
    # spot-check normalization on fitted parameters as well
    state = states[0]
    for i in range(0, state.theta.shape[0], 50):
        for j in range(state.loadings.shape[0]):
            cum = cumulative_probs(state.theta[i], state.loadings[j],
                                   state.intercepts[j])
            assert abs((-np.diff(cum)).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# external personality-inventory reproduction (skipped without the data)

SPI_PATH = os.environ.get(
    "SPARSEGRM_SPI_CSV",
    os.path.join(os.path.dirname(__file__), "..", "data", "spi70.csv"),
)


def test_external_inventory_structure_recovery():
    if not os.path.exists(SPI_PATH):
        pytest.skip(f"external inventory file not found: {SPI_PATH}")
    data = load_responses(SPI_PATH, categories=6)
    assert data.n_items == 70, "expected the 70-item inventory layout"
    # design structure: five factors, fourteen consecutive items each
    q_star = np.zeros((70, 5))
    for block in range(5):
        q_star[14 * block:14 * (block + 1), block] = 1.0
    hyper = Hyperparameters(sigma_theta=np.eye(5), lam=0.0)
    result, lam_hat, _ = tune_and_fit(data, hyper, FitConfig(seed=0), seed=0)
    alignment = best_alignment(result.state.loadings, q_star)
    aligned = apply_alignment(result.state, alignment)
    q_hat = (np.abs(aligned.loadings) > 0.01).astype(float)
    r = float(np.corrcoef(q_hat.ravel(), q_star.ravel())[0, 1])
    on = float(np.abs(aligned.loadings)[q_star == 1.0].mean())
    off = float(np.abs(aligned.loadings)[q_star == 0.0].mean())
    assert r >= 0.7, f"structure correlation {r:.3f} below 0.7 (lambda {lam_hat:.3g})"
    assert on >= 4.0 * off, (
        f"mean |loading| on designed entries {on:.3f} is not at least four "
        f"times the off-design mean {off:.3f}"
    )
