"""End-to-end tests for the command-line interface.

Each test drives ``main`` in-process with a small simulated corpus
(J=5 items so the default 60/20/20 structure proportions give integer
item counts) and checks the written artifacts.
"""

import re

import numpy as np
import pytest

from sparsegrm import _pool
from sparsegrm import cv
from sparsegrm.cli import main
from sparsegrm.data import (load_responses, read_intercepts, read_matrix,
                            write_intercepts, write_matrix)
from sparsegrm.simulate import gen_sigma

SIM_ARGS = ["--n", "40", "--j", "5", "--k", "3", "--c", "3",
            "--rho", "0.1", "--seed", "7"]


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_summary(path):
    """Parse 'key = value' lines of a summary file, comments included."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.lstrip("# ").strip()
            if "=" in line:
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    return values


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run_cli("simulate", *SIM_ARGS, "--out", out) == 0
    return out


def test_simulate_writes_all_artifacts(sim_dir):
    data = load_responses(str(sim_dir / "responses.csv"), categories=3)
    assert data.n_respondents == 40
    assert data.n_items == 5
    theta = read_matrix(str(sim_dir / "theta_true.csv"))
    loadings = read_matrix(str(sim_dir / "loadings_true.csv"))
    intercepts = read_intercepts(str(sim_dir / "intercepts_true.csv"))
    q = read_matrix(str(sim_dir / "q_true.csv"))
    sigma = read_matrix(str(sim_dir / "sigma_theta.csv"))
    assert theta.shape == (40, 3)
    assert loadings.shape == (5, 3)
    assert q.shape == (5, 3)
    assert set(np.unique(q)) <= {0.0, 1.0}
    assert len(intercepts) == 5
    for d_j in intercepts:
        assert d_j.size == 2
        assert d_j[0] > d_j[1]
    np.testing.assert_array_equal(sigma, gen_sigma(3, 0.1))
    # loadings honor the structure matrix
    np.testing.assert_array_equal(loadings != 0.0, q == 1.0)


def test_simulate_is_reproducible(tmp_path, sim_dir):
    again = tmp_path / "again"
    assert run_cli("simulate", *SIM_ARGS, "--out", again) == 0
    for name in ("theta_true.csv", "loadings_true.csv", "q_true.csv"):
        np.testing.assert_array_equal(read_matrix(str(again / name)),
                                      read_matrix(str(sim_dir / name)))
    first = load_responses(str(sim_dir / "responses.csv"), categories=3)
    second = load_responses(str(again / "responses.csv"), categories=3)
    np.testing.assert_array_equal(first.responses, second.responses)


def test_simulate_missing_required_flag(tmp_path, capsys):
    code = run_cli("simulate", "--n", "40", "--j", "5", "--k", "3",
                   "--out", tmp_path / "x")
    assert code == 1
    assert "--rho is required" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("fit")
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--lambda", "1.0", "--k", "3", "--c", "3",
                   "--seed", "3", "--out", out)
    assert code == 0
    return out


def test_fit_writes_estimates_and_summary(fit_dir):
    theta = read_matrix(str(fit_dir / "theta_est.csv"))
    loadings = read_matrix(str(fit_dir / "loadings_est.csv"))
    intercepts = read_intercepts(str(fit_dir / "intercepts_est.csv"))
    assert theta.shape == (40, 3)
    assert loadings.shape == (5, 3)
    assert len(intercepts) == 5
    for d_j in intercepts:
        assert np.all(np.diff(d_j) < 0)
    summary = read_summary(fit_dir / "summary.txt")
    assert summary["lambda"] == "1"
    assert summary["converged"] == "True"
    trace = np.array([float(v) for v in summary["objective_trace"].split(",")])
    assert np.all(np.diff(trace) >= -1e-8)
    assert float(summary["objective_final"]) == trace[-1]


def test_fit_rerun_is_identical(tmp_path, sim_dir, fit_dir):
    again = tmp_path / "again"
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--lambda", "1.0", "--k", "3", "--c", "3",
                   "--seed", "3", "--out", again)
    assert code == 0
    for name in ("theta_est.csv", "loadings_est.csv", "intercepts_est.csv"):
        np.testing.assert_array_equal(read_matrix(str(again / name)),
                                      read_matrix(str(fit_dir / name)))


def test_fit_thread_count_does_not_change_results(tmp_path, sim_dir, fit_dir):
    threaded = tmp_path / "threaded"
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--lambda", "1.0", "--k", "3", "--c", "3",
                   "--seed", "3", "--threads", "2", "--out", threaded)
    assert code == 0
    np.testing.assert_array_equal(
        read_matrix(str(threaded / "loadings_est.csv")),
        read_matrix(str(fit_dir / "loadings_est.csv")))


def test_fit_requires_lambda(tmp_path, sim_dir, capsys):
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--k", "3", "--out", tmp_path / "x")
    assert code == 1
    assert "--lambda is required" in capsys.readouterr().err


def test_fit_requires_factor_count_or_sigma(tmp_path, sim_dir, capsys):
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--lambda", "1.0", "--out", tmp_path / "x")
    assert code == 1
    assert "--k or --sigma-theta" in capsys.readouterr().err


def test_fit_accepts_sigma_theta_file(tmp_path, sim_dir):
    out = tmp_path / "with_sigma"
    code = run_cli("fit", "--responses", sim_dir / "responses.csv",
                   "--sigma-theta", sim_dir / "sigma_theta.csv",
                   "--lambda", "1.0", "--c", "3", "--seed", "3", "--out", out)
    assert code == 0
    assert read_matrix(str(out / "loadings_est.csv")).shape == (5, 3)


@pytest.fixture(scope="module")
def cvfit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("cvfit")
    code = run_cli("cv-fit", "--responses", sim_dir / "responses.csv",
                   "--k", "3", "--c", "3", "--seed", "11", "--out", out)
    assert code == 0
    return out


def test_cvfit_cv_table_structure(cvfit_dir):
    rows = []
    with open(cvfit_dir / "cv_table.csv") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(line.strip().split(","))
    assert len(rows) == 10
    stages = [int(r[0]) for r in rows]
    assert stages == [1] * 5 + [2] * 5
    for stage in (1, 2):
        lams = [float(r[1]) for r in rows if int(r[0]) == stage]
        assert all(b > a for a, b in zip(lams, lams[1:]))
    # per-row total equals the sum of the five fold errors
    for r in rows:
        folds = np.array([float(v) for v in r[2:7]])
        assert np.isclose(float(r[7]), folds.sum(), rtol=1e-12)
    selected = [int(r[8]) for r in rows]
    assert sum(selected) == 2
    assert sum(s for r, s in zip(rows, selected) if int(r[0]) == 2) == 1


def test_cvfit_split_files_partition_rows(cvfit_dir):
    train = read_matrix(str(cvfit_dir / "train_rows.csv")).ravel().astype(int)
    test = read_matrix(str(cvfit_dir / "test_rows.csv")).ravel().astype(int)
    assert train.size == 20 and test.size == 20
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(40))
    # the final fit covers the test half only
    assert read_matrix(str(cvfit_dir / "theta_est.csv")).shape == (20, 3)


def test_cvfit_summary_reports_selected_lambda(cvfit_dir):
    summary = read_summary(cvfit_dir / "summary.txt")
    lam_hat = float(summary["lambda_hat"])
    with open(cvfit_dir / "cv_table.csv") as fh:
        rows = [line.strip().split(",") for line in fh
                if not line.startswith("#")]
    stage2 = {float(r[1]): int(r[8]) for r in rows if int(r[0]) == 2}
    assert stage2[lam_hat] == 1
    assert summary["warm_start"] == "True"


def test_cvfit_no_warm_start_flag(tmp_path, sim_dir):
    out = tmp_path / "cold"
    code = run_cli("cv-fit", "--responses", sim_dir / "responses.csv",
                   "--k", "3", "--c", "3", "--seed", "11",
                   "--no-warm-start", "--out", out)
    assert code == 0
    assert read_summary(out / "summary.txt")["warm_start"] == "False"


def test_evaluate_perfect_estimates_score_zero(tmp_path, sim_dir):
    est = tmp_path / "est"
    est.mkdir()
    loadings = read_matrix(str(sim_dir / "loadings_true.csv"))
    intercepts = read_intercepts(str(sim_dir / "intercepts_true.csv"))
    # hand the truth back as the estimate, with columns permuted and a
    # sign flipped: evaluate must align before scoring
    shuffled = loadings[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
    write_matrix(str(est / "loadings_est.csv"), shuffled)
    write_intercepts(str(est / "intercepts_est.csv"), intercepts)
    out = tmp_path / "metrics"
    code = run_cli("evaluate", "--est", est, "--truth", sim_dir, "--out", out)
    assert code == 0
    values = read_summary(out / "metrics.txt")
    assert float(values["msr"]) == 0.0
    assert float(values["fpr"]) == 0.0
    assert float(values["fnr"]) == 0.0
    assert float(values["error_a"]) < 1e-12
    assert float(values["error_d"]) < 1e-12
    row = np.loadtxt(out / "metrics_row.csv", delimiter=",", comments="#")
    assert row.shape == (9,)
    assert np.all(row[:5] < 1e-12)


def test_align_recovers_signed_permutation(tmp_path):
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(6, 3))
    perm = [2, 0, 1]
    signs = np.array([-1.0, 1.0, -1.0])
    est = ref[:, perm] * signs
    theta = rng.normal(size=(4, 3))
    write_matrix(str(tmp_path / "est.csv"), est)
    write_matrix(str(tmp_path / "ref.csv"), ref)
    write_matrix(str(tmp_path / "theta.csv"), theta)
    out = tmp_path / "aligned"
    code = run_cli("align", "--loadings", tmp_path / "est.csv",
                   "--ref-loadings", tmp_path / "ref.csv",
                   "--theta", tmp_path / "theta.csv", "--out", out)
    assert code == 0
    aligned = read_matrix(str(out / "loadings_aligned.csv"))
    np.testing.assert_allclose(aligned, ref, atol=1e-12)
    # the factor-score rotation must preserve the model product
    theta_aligned = read_matrix(str(out / "theta_aligned.csv"))
    np.testing.assert_allclose(theta_aligned @ aligned.T, theta @ est.T,
                               atol=1e-12)
    report = read_summary(out / "alignment.txt")
    assert len(report["permutation"].split(",")) == 3
    assert set(report["signs"].split(",")) <= {"1", "-1"}


def test_replicate_table_with_fixed_lambda(tmp_path):
    out = tmp_path / "reps"
    code = run_cli("replicate", "--n", "40", "--j", "5", "--k", "3",
                   "--c", "3", "--rho", "0.1", "--reps", "2",
                   "--lambda", "1.0", "--seed", "5", "--out", out)
    assert code == 0
    lines = [line.strip() for line in open(out / "replications.csv")
             if not line.startswith("#")]
    assert len(lines) == 4
    data = np.array([[float(v) for v in line.split(",")[2:]]
                     for line in lines[:2]])
    mean_row = np.array([float(v) for v in lines[2].split(",")[2:]])
    sd_row = np.array([float(v) for v in lines[3].split(",")[2:]])
    np.testing.assert_allclose(mean_row, data.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(sd_row, data.std(axis=0, ddof=1), rtol=1e-12)


def test_config_file_supplies_defaults_and_cli_wins(tmp_path):
    config = tmp_path / "settings.cfg"
    config.write_text("n = 50\nj = 5\nk = 3\nrho = 0.1\nseed = 9\n"
                      "# comment line\nc = 3\n")
    out = tmp_path / "sim"
    code = run_cli("simulate", "--config", config, "--n", "30", "--out", out)
    assert code == 0
    data = load_responses(str(out / "responses.csv"), categories=3)
    assert data.n_respondents == 30
    echoed = read_summary(out / "responses.csv")
    assert echoed["n"] == "30"
    assert echoed["seed"] == "9"


def test_config_unknown_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("n = 50\nbogus = 1\n")
    code = run_cli("simulate", "--config", config, "--j", "5", "--k", "3",
                   "--rho", "0.1", "--out", tmp_path / "x")
    assert code == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "not used" in err


def test_config_malformed_line_is_rejected(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("just some words\n")
    code = run_cli("simulate", "--config", config, "--out", tmp_path / "x")
    assert code == 1
    assert "key = value" in capsys.readouterr().err


def test_config_missing_file_is_rejected(tmp_path, capsys):
    code = run_cli("simulate", "--config", tmp_path / "absent.cfg",
                   "--out", tmp_path / "x")
    assert code == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_config_boolean_parsing(tmp_path, capsys):
    out = tmp_path / "reps"
    config = tmp_path / "settings.cfg"
    config.write_text("warm_start = off\n")
    code = run_cli("replicate", "--config", config, "--n", "40", "--j", "5",
                   "--k", "3", "--c", "3", "--rho", "0.1", "--reps", "1",
                   "--lambda", "1.0", "--out", out)
    assert code == 0
    header = read_summary(out / "replications.csv")
    assert header["warm_start"] == "False"

    config.write_text("warm_start = maybe\n")
    code = run_cli("replicate", "--config", config, "--n", "40", "--j", "5",
                   "--k", "3", "--c", "3", "--rho", "0.1", "--reps", "1",
                   "--lambda", "1.0", "--out", tmp_path / "y")
    assert code == 1
    assert "not a boolean" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["inf", "1e30", "nan"])
def test_fit_rejects_non_finite_and_huge_cells(tmp_path, capsys, cell):
    path = tmp_path / "resp.csv"
    path.write_text(f"0,1\n1,{cell}\n0,0\n")
    assert run_cli("fit", "--responses", path, "--lambda", "1", "--k", "1",
                   "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"'{cell}' at (1, 1)" in err[0]


def test_fit_rejects_more_than_max_categories(tmp_path, capsys):
    path = tmp_path / "resp.csv"
    path.write_text("0,1\n1,1000000000000\n0,0\n")
    assert run_cli("fit", "--responses", path, "--lambda", "1", "--k", "1",
                   "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "item 1 has 1000000000001 categories" in err[0]


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_fit_rejects_non_finite_lambda(tmp_path, sim_dir, capsys, lam):
    assert run_cli("fit", "--responses", sim_dir / "responses.csv", "--lambda", lam,
                   "--k", "3", "--c", "3", "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == f"error: lam must be finite and nonnegative, got {lam}"


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_fit_rejects_non_finite_obj_tol(tmp_path, sim_dir, capsys, tol):
    assert run_cli("fit", "--responses", sim_dir / "responses.csv", "--lambda", "1",
                   "--k", "3", "--c", "3", "--obj-tol", tol,
                   "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: obj_tol must be finite and positive, got {tol}"]


def test_fit_rejects_zero_factors(tmp_path, sim_dir, capsys):
    assert run_cli("fit", "--responses", sim_dir / "responses.csv", "--lambda", "1",
                   "--k", "0", "--c", "3", "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sigma_theta must be at least 1 x 1, got 0 x 0"]


@pytest.mark.parametrize("reps", [0, -1])
def test_replicate_rejects_fewer_than_one_rep(tmp_path, capsys, reps):
    out = tmp_path / "reps"
    assert run_cli("replicate", *SIM_ARGS, "--reps", reps, "--lambda", "1",
                   "--out", out) == 1
    assert "--reps must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cvfit_rejects_one_fold(tmp_path, sim_dir, capsys):
    assert run_cli("cv-fit", "--responses", sim_dir / "responses.csv", "--k", "3",
                   "--folds", "1", "--out", tmp_path / "cv") == 1
    assert "at least 2 folds" in capsys.readouterr().err


@pytest.mark.parametrize("lam_args,key", [(["--lambda", "1.5"], "lambda"),
                                          (["--max-iters", "3"], "lambda_hat")])
def test_replicate_prints_one_progress_line_per_replication(tmp_path, capsys,
                                                            lam_args, key):
    out = tmp_path / "reps"
    reps = 2
    assert run_cli("replicate", *SIM_ARGS, "--reps", reps, *lam_args,
                   "--out", out) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == reps
    rows = [line.split(",") for line in open(out / "replications.csv")
            if not line.startswith("#")][:reps]
    for r, (line, row) in enumerate(zip(err, rows)):
        m = re.fullmatch(rf"replicate: rep (\d+)/{reps} seed (\d+) {key} (\S+) "
                         r"n_iters (\d+) seconds (\d+\.\d\d)", line)
        assert m, line
        assert int(m[1]) == r + 1
        assert m[2] == row[1]  # the replication's seed
        assert m[4] == row[12]  # its final fit's iterations
        assert float(m[3]) == 1.5 if key == "lambda" else float(m[3]) > 0


def test_cvfit_error_in_a_fold_task_prints_one_error_line(tmp_path, sim_dir, capsys,
                                                          monkeypatch):
    def failing(data, folds, m, hyper, cfg, init=None):
        raise ValueError(f"fold {m} cannot be fitted")

    monkeypatch.setattr(cv, "_fold_fit", failing)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    assert run_cli("cv-fit", "--responses", sim_dir / "responses.csv", "--k", "3",
                   "--out", tmp_path / "cv") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: fold 0 cannot be fitted"]
