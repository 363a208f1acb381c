"""End-to-end tests for the command-line interface.

Each test drives ``main`` in-process with a small simulated corpus
(J=5 items so the default 60/20/20 structure proportions give integer
item counts) and checks the written artifacts.
"""

import re
from dataclasses import fields

import numpy as np
import pytest

from sparsegrm import _pool, cli
from sparsegrm import cv
from sparsegrm.cli import main
from sparsegrm.data import (load_responses, read_intercepts, read_matrix,
                            write_intercepts, write_matrix)
from sparsegrm.metrics import RecoveryReport, SelectionReport
from sparsegrm.optimizer import FitConfig
from sparsegrm.simulate import SimDesign, gen_sigma, run_replication

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


def test_cvfit_draws_the_row_split_once(tmp_path, sim_dir, monkeypatch):
    # the split the CLI writes is the one tune_and_fit fits on: one draw
    draws = []
    real = cli.split_row_indices

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "split_row_indices", counted)
    monkeypatch.setattr(cv, "split_row_indices", counted)
    assert run_cli("cv-fit", "--responses", sim_dir / "responses.csv", "--k", "3",
                   "--max-iters", "2", "--seed", "11", "--out", tmp_path / "cv") == 0
    assert len(draws) == 1


def test_cvfit_summary_reports_selected_lambda(cvfit_dir):
    summary = read_summary(cvfit_dir / "summary.txt")
    lam_hat = float(summary["lambda_hat"])
    with open(cvfit_dir / "cv_table.csv") as fh:
        rows = [line.strip().split(",") for line in fh
                if not line.startswith("#")]
    stage2 = {float(r[1]): int(r[8]) for r in rows if int(r[0]) == 2}
    assert stage2[lam_hat] == 1


def shuffled_truth_estimate(est, sim_dir):
    """Write the truth back as an estimate, columns permuted and signs flipped."""
    est.mkdir()
    loadings = read_matrix(str(sim_dir / "loadings_true.csv"))
    shuffled = loadings[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
    write_matrix(str(est / "loadings_est.csv"), shuffled)
    write_intercepts(str(est / "intercepts_est.csv"),
                     read_intercepts(str(sim_dir / "intercepts_true.csv")))


def test_evaluate_perfect_estimates_score_zero(tmp_path, sim_dir):
    # evaluate must align before scoring
    est = tmp_path / "est"
    shuffled_truth_estimate(est, sim_dir)
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


def test_evaluate_rejects_a_fractional_structure_entry(tmp_path, sim_dir, capsys):
    est = tmp_path / "est"
    shuffled_truth_estimate(est, sim_dir)
    truth = tmp_path / "truth"
    truth.mkdir()
    for name in ("loadings_true.csv", "intercepts_true.csv"):
        (truth / name).write_text((sim_dir / name).read_text())
    q = read_matrix(str(sim_dir / "q_true.csv"))
    q[q == 1.0] = 0.5
    write_matrix(str(truth / "q_true.csv"), q)
    assert run_cli("evaluate", "--est", est, "--truth", truth,
                   "--out", tmp_path / "metrics") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: Q matrix entries must be 0 or 1"]


def test_metric_columns_are_the_report_fields(tmp_path, sim_dir):
    names = [f.name for report in (SelectionReport, RecoveryReport)
             for f in fields(report)]
    est = tmp_path / "est"
    shuffled_truth_estimate(est, sim_dir)
    out = tmp_path / "metrics"
    assert run_cli("evaluate", "--est", est, "--truth", sim_dir, "--out", out) == 0
    keys = [line.partition(" = ")[0] for line in open(out / "metrics.txt")
            if not line.startswith("#")]
    assert keys == names
    header = [line.strip() for line in open(out / "metrics_row.csv")
              if line.startswith("#")]
    assert header[0] == "# sparsegrm evaluate"  # the config echo
    assert header[-1] == "# columns: " + ",".join(names)

    reps = tmp_path / "reps"
    assert run_cli("replicate", *SIM_ARGS, "--reps", 1, "--lambda", 1,
                   "--out", reps) == 0
    columns = [line for line in open(reps / "replications.csv")
               if line.startswith("# columns: ")]
    assert columns[0][len("# columns: "):].split(",")[2:2 + len(names)] == names


def test_align_recovers_signed_permutation(tmp_path):
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(6, 3))
    perm = [2, 0, 1]
    signs = np.array([-1.0, 1.0, -1.0])
    est = ref[:, perm] * signs
    theta = rng.normal(size=(4, 3))
    intercepts = [np.array([1.5, -0.5]), np.array([0.25]), np.array([2.0, 0.0, -1.0]),
                  np.array([0.5]), np.array([-0.75]), np.array([1.0, -2.0])]
    write_matrix(str(tmp_path / "est.csv"), est)
    write_matrix(str(tmp_path / "ref.csv"), ref)
    write_matrix(str(tmp_path / "theta.csv"), theta)
    write_intercepts(str(tmp_path / "intercepts.csv"), intercepts)
    out = tmp_path / "aligned"
    code = run_cli("align", "--loadings", tmp_path / "est.csv",
                   "--ref-loadings", tmp_path / "ref.csv",
                   "--theta", tmp_path / "theta.csv",
                   "--intercepts", tmp_path / "intercepts.csv", "--out", out)
    assert code == 0
    aligned = read_matrix(str(out / "loadings_aligned.csv"))
    np.testing.assert_allclose(aligned, ref, atol=1e-12)
    # column t of the aligned loadings is signs[t] times column order[t] of
    # the estimate; the factor scores take the same signed permutation, and
    # so the model product is preserved
    order = np.argsort(perm)
    theta_aligned = read_matrix(str(out / "theta_aligned.csv"))
    np.testing.assert_allclose(theta_aligned, theta[:, order] * signs[order],
                               atol=1e-12)
    np.testing.assert_allclose(theta_aligned @ aligned.T, theta @ est.T,
                               atol=1e-12)
    # intercepts do not depend on the factor order or signs
    for got, want in zip(read_intercepts(str(out / "intercepts_aligned.csv")),
                         intercepts, strict=True):
        np.testing.assert_array_equal(got, want)
    report = read_summary(out / "alignment.txt")
    assert report["permutation"].split(",") == [str(t) for t in order]
    assert report["signs"].split(",") == [format(s, ".0f") for s in signs[order]]


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
    # a config that sets warm_start must fail, not silently run warm fold chains
    for command, text, key in [("simulate", "n = 50\nbogus = 1\n", "bogus"),
                               ("replicate", "warm_start = off\n", "warm_start")]:
        config.write_text(text)
        code = run_cli(command, "--config", config, "--j", "5", "--k", "3",
                       "--rho", "0.1", "--out", tmp_path / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and f"not used by {command}" in err


def test_config_malformed_line_is_rejected(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    out = tmp_path / "x"
    for text, message in [("just some words\n", "line 1 is not 'key = value'"),
                          ("rho = abc\n", "rho = abc is not a valid float"),
                          ("rho = 0.1\nfolds = 5.0\n",
                           "folds = 5.0 is not a valid int"),
                          ("rho = 0.1\nout =\n", "out has no value"),
                          ("sigma_theta =\n", "sigma_theta has no value")]:
        config.write_text(text)
        code = run_cli("replicate", "--config", config, "--n", "40", "--j", "5",
                       "--k", "3", "--out", out)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {config}: {message}"]
        assert not out.exists()


def test_config_missing_file_is_rejected(tmp_path, capsys):
    code = run_cli("simulate", "--config", tmp_path / "absent.cfg",
                   "--out", tmp_path / "x")
    assert code == 1
    assert "absent.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["inf", "1e30", "nan"])
def test_fit_rejects_non_finite_and_huge_cells(tmp_path, capsys, cell):
    path = tmp_path / "resp.csv"
    path.write_text(f"0,1\n1,{cell}\n0,0\n")
    assert run_cli("fit", "--responses", path, "--lambda", "1", "--k", "1",
                   "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and f"'{cell}' on line 2 (item 1)" in err[0]


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
    assert err == ["error: fit: --k must be at least 1, got 0"]


@pytest.mark.parametrize("command", ["fit", "cv-fit", "simulate", "replicate"])
def test_fit_commands_reject_a_negative_factor_count(tmp_path, sim_dir, capsys,
                                                     command):
    responses = ["--responses", sim_dir / "responses.csv", "--c", "3"]
    args = {"fit": [*responses, "--lambda", "1"], "cv-fit": responses,
            "simulate": SIM_ARGS, "replicate": SIM_ARGS}[command]
    assert run_cli(command, *args, "--k", "-1", "--out", tmp_path / "fit") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {command}: --k must be at least 1, got -1"]


# (command, flag, value, the flag's least value)
BELOW_LEAST = [
    *[(command, flag, value, lo)
      for flag, value, lo in [("--n", 1, 2), ("--j", 0, 1), ("--k", 0, 1)]
      for command in ("simulate", "replicate")],
    ("fit", "--n-starts", 0, 1), ("cv-fit", "--max-iters", 0, 1),
    ("replicate", "--threads", 0, 1), ("replicate", "--folds", 1, 2),
    ("simulate", "--c", 1, 2), ("fit", "--c", 1, 2), ("cv-fit", "--seed", -1, 0),
]


@pytest.mark.parametrize("command,flag,value,lo", BELOW_LEAST,
                         ids=[f"{f}-{v}-{lo}-{c}" for c, f, v, lo in BELOW_LEAST])
def test_simulation_commands_reject_sizes_below_their_least_value(
        tmp_path, sim_dir, capsys, command, flag, value, lo):
    responses = ["--responses", sim_dir / "responses.csv", "--k", "3"]
    args = {"fit": [*responses, "--lambda", "1"], "cv-fit": responses,
            "simulate": SIM_ARGS, "replicate": SIM_ARGS}[command]
    out = tmp_path / "out"
    assert run_cli(command, *args, flag, value, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {command}: {flag} must be at least {lo}, got {value}"]
    assert not out.exists()  # checked before anything is written


@pytest.mark.parametrize("command,args,message", [
    ("fit", ["--responses", "absent.csv", "--lambda", "1", "--k", "3"],
     "[Errno 2] No such file or directory: 'absent.csv'"),
    ("simulate", [*SIM_ARGS, "--rho", "2"],
     "simulate: --rho must lie in (-0.5, 1) for --k 3, got 2.0"),
    ("replicate", [*SIM_ARGS, "--j", "7"],
     "replicate: --j must split 60/20/20 into whole item counts, got 7"),
    ("replicate", [*SIM_ARGS, "--k", "2"],
     "replicate: --k must be at least 3 for the 60/20/20 split of --j 5, got 2"),
    ("cv-fit", ["--k", "3", "--train-fraction", "1.5"],
     "cv-fit: --train-fraction must lie in (0, 1), got 1.5"),
    ("evaluate", ["--est", "absent", "--truth", "absent"],
     "[Errno 2] No such file or directory: 'absent/loadings_est.csv'"),
    ("evaluate", ["--threshold", "nan"],
     "threshold must be finite and nonnegative, got nan"),
    ("align", ["--loadings", "absent.csv", "--ref-loadings", "absent.csv"],
     "[Errno 2] No such file or directory: 'absent.csv'"),
], ids=["fit-responses", "simulate-rho", "replicate-j", "replicate-k",
        "cv-fit-train-fraction", "evaluate-est", "evaluate-threshold",
        "align-loadings"])
def test_rejected_runs_leave_no_output_directory(tmp_path, sim_dir, fit_dir, capsys,
                                                 command, args, message):
    if command == "cv-fit":
        args = ["--responses", sim_dir / "responses.csv", *args]
    if args[0] == "--threshold":
        args = ["--est", fit_dir, "--truth", sim_dir, *args]
    out = tmp_path / "out"
    assert run_cli(command, *args, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_replicate_fails_before_its_first_replication_when_out_is_a_file(
        tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run_cli("replicate", *SIM_ARGS, "--reps", 2, "--lambda", 1,
                   "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("reps", [0, -1])
def test_replicate_rejects_fewer_than_one_rep(tmp_path, capsys, reps):
    out = tmp_path / "reps"
    assert run_cli("replicate", *SIM_ARGS, "--reps", reps, "--lambda", "1",
                   "--out", out) == 1
    assert "--reps must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "cv-fit"])
def test_fit_commands_reject_a_factor_count_that_differs_from_sigma_theta(
        tmp_path, sim_dir, capsys, command):
    sigma = sim_dir / "sigma_theta.csv"  # 3 x 3
    lam = ["--lambda", "1"] if command == "fit" else []
    args = [command, "--responses", sim_dir / "responses.csv", *lam, "--c", "3",
            "--sigma-theta", sigma, "--max-iters", "2"]
    assert run_cli(*args, "--k", "2", "--out", tmp_path / "bad") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {command}: --k 2 does not match --sigma-theta "
                   f"{sigma}, which is 3 x 3"]
    # a --k that matches the file is accepted
    assert run_cli(*args, "--k", "3", "--out", tmp_path / "good") == 0
    assert read_matrix(str(tmp_path / "good" / "loadings_est.csv")).shape == (5, 3)


def test_cvfit_rejects_one_fold(tmp_path, sim_dir, capsys):
    out = tmp_path / "cv"
    assert run_cli("cv-fit", "--responses", sim_dir / "responses.csv", "--k", "3",
                   "--folds", "1", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cv-fit: --folds must be at least 2, got 1"]
    assert not out.exists()


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
        if key == "lambda":
            assert float(m[3]) == 1.5
        else:  # the final fit's selected lambda, recomputed
            design = SimDesign(n_respondents=40, n_items=5, n_factors=3, rho=0.1,
                               n_categories=3, seed=int(m[2]))
            result = run_replication(design, FitConfig(max_outer_iters=3, seed=7))[2]
            assert m[3] == format(result.hyper.lam, ".6g")


def test_cvfit_error_in_a_fold_task_prints_one_error_line(tmp_path, sim_dir, capsys,
                                                          monkeypatch):
    # simulated responses have no missing cell, so fold m's training set
    # leaves out exactly the cells of fold m of the default 5 folds
    assert load_responses(str(sim_dir / "responses.csv"), categories=3).mask.all()

    def failing(train, hyper, cfg, init=None):
        folds = cv.make_folds(np.ones_like(train.mask), 5, cfg.seed)
        (m,) = [m for m in range(5)
                if np.array_equal(~train.mask, folds.holdout_mask(m))]
        raise ValueError(f"fold {m} cannot be fitted")

    monkeypatch.setattr(cv, "fit", failing)
    monkeypatch.setattr(_pool, "usable_cpus", lambda: 2)
    assert run_cli("cv-fit", "--responses", sim_dir / "responses.csv", "--k", "3",
                   "--out", tmp_path / "cv") == 1
    err = capsys.readouterr().err.splitlines()
    # every fold fails; the error of fold 0, the first task, is the one reported
    assert err == ["error: fold 0 cannot be fitted"]
