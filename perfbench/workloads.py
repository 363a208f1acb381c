"""The benchmark's workloads: inputs from a seed, one op, its outcome, its gate.

Each workload is a closed loop with one client: the runner calls ``op(k)``
for k = 0, 1, 2, ... and starts the next op only when the previous one has
returned.  ``outcome`` turns what an op returned into an ``Outcome`` and
``check`` is the correctness gate; both run outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np

import sparsegrm
from sparsegrm import cli, cv, data, optimizer, simulate
from sparsegrm.model import Hyperparameters, ModelState

REPLICATE_N500 = "replicate_n500"
FIT_INVENTORY = "fit_inventory"
CVFIT_CLI = "cvfit_cli"

# Sizes per workload.  "full" is what the benchmark measures; "tiny" runs
# every code path in well under a second per op, for the self-test.
SIZES = {
    REPLICATE_N500: {
        # the paper's simulation-study unit
        "full": dict(n=500, j=30, k=3, c=4, rho=0.1, n_starts=5),
        "tiny": dict(n=60, j=10, k=3, c=4, rho=0.1, n_starts=2),
    },
    FIT_INVENTORY: {
        # shaped like the 70-item, 5-factor, 6-category SPI inventory; a
        # fixed iteration budget makes the work per op independent of the
        # seed's convergence speed
        "full": dict(n=4000, j=70, k=5, c=6, rho=0.1, lam=20.0, iters=10,
                     threads=2),
        "tiny": dict(n=100, j=10, k=5, c=6, rho=0.1, lam=2.0, iters=2,
                     threads=2),
    },
    CVFIT_CLI: {
        # every fit runs exactly `iters` outer iterations, for the same reason
        "full": dict(n=1000, j=30, k=3, rho=0.1, cats=(2, 3, 5, 7),
                     missing=0.2, folds=5, iters=2),
        "tiny": dict(n=80, j=10, k=3, rho=0.1, cats=(2, 3, 5, 7),
                     missing=0.2, folds=5, iters=2),
    },
}
# objective-change tolerance small enough that capped fits never stop early
FIXED_ITERS_TOL = 1e-9
# a workload seed yields this many per-op replication seeds, used in order
N_OP_SEEDS = 1000


@dataclass
class Outcome:
    """What one op produced, reduced to what the gate and the report need."""

    state: ModelState
    trace: np.ndarray
    n_iters: int
    lam_hat: float | None
    cells: int
    quality: dict = field(default_factory=dict)
    # objective_value at the returned state, or None when no candidate
    # penalty reproduces the trace (the gate then fails)
    recomputed: float | None = None
    file_errors: list = field(default_factory=list)

    def fingerprint(self) -> dict:
        return {
            "n_iters": self.n_iters,
            "objective": repr(float(self.trace[-1])),
            "lam_hat": None if self.lam_hat is None else repr(float(self.lam_hat)),
            "sha256": estimates_sha256(self.state),
        }


def estimates_sha256(state: ModelState) -> str:
    h = hashlib.sha256()
    for arr in (state.theta, state.loadings, *state.intercepts):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def check(outcome: Outcome) -> list[str]:
    """Correctness gate; returns the reasons the op failed (empty if none)."""
    errors = list(outcome.file_errors)
    trace = outcome.trace
    final = float(trace[-1])
    if outcome.recomputed is None:
        errors.append("no penalty weight reproduces the final objective")
    elif outcome.recomputed != final:
        errors.append(f"objective_value {outcome.recomputed!r} != trace "
                      f"{final!r}")
    steps = np.diff(trace)
    tol = np.maximum(1e-8, 1e-12 * np.abs(trace[1:]))
    if np.any(steps < -tol):
        errors.append(f"objective trace decreased by {-steps.min():.3g}")
    state = outcome.state
    if not (np.isfinite(state.theta).all() and np.isfinite(state.loadings).all()
            and all(np.isfinite(d).all() for d in state.intercepts)):
        errors.append("non-finite estimate")
    for j, d in enumerate(state.intercepts):
        if np.any(np.diff(d) >= 0):
            errors.append(f"item {j} intercepts not strictly decreasing")
            break
    return errors


def _subprocess_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_seconds(src: str, module: str) -> float:
    """Seconds a fresh interpreter spends importing `module` from src."""
    code = ("import time; t = time.perf_counter(); import " + module +
            "; print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(src),
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _objective(test: data.ResponseData, state: ModelState, sigma, lam):
    hyper = Hyperparameters(sigma_theta=sigma, lam=float(lam))
    return optimizer.objective_value(test, state, hyper)


class ReplicateN500:
    """One op is simulate.run_replication at the study design, λ by CV."""

    name = REPLICATE_N500
    same_inputs = False

    def __init__(self, seed: int, scale: str, workdir: str):
        self.size = SIZES[self.name][scale]
        self.op_seeds = data.derive_seeds(seed, N_OP_SEEDS)
        self.cfg = optimizer.FitConfig(seed=0, n_starts=self.size["n_starts"])

    def design(self, k: int) -> simulate.SimDesign:
        s = self.size
        return simulate.SimDesign(
            n_respondents=s["n"], n_items=s["j"], n_factors=s["k"],
            rho=s["rho"], n_categories=s["c"],
            seed=self.op_seeds[k % N_OP_SEEDS])

    def _data(self, design):
        # the same seed schedule run_replication uses for its data
        seeds = data.derive_seeds(design.seed, 4)
        truth, _ = simulate.gen_true_params(replace(design, seed=seeds[0]))
        return simulate.sample_responses(truth, design.n_categories,
                                         seed=seeds[1]), seeds

    def setup(self, tracer=None) -> None:
        """Generate the first op's data set (each op regenerates its own)."""
        self._data(self.design(0))

    def op(self, k: int):
        return simulate.run_replication(self.design(k), self.cfg)

    def outcome(self, k: int, raw) -> Outcome:
        selection, recovery, result = raw
        design = self.design(k)
        full, seeds = self._data(design)
        _, test = data.split_rows(full, 0.5, seeds[3])
        sigma = simulate.gen_sigma(design.n_factors, design.rho)
        final = float(result.objective_trace[-1])
        # run_replication does not return λ̂; it is the stage-2 candidate
        # whose objective reproduces the final trace value
        lam_hat, recomputed = None, None
        for lam1 in cv.STAGE1_GRID:
            for lam in cv.second_stage_grid(lam1).values:
                value = _objective(test, result.state, sigma, lam)
                if value == final:
                    lam_hat, recomputed = float(lam), value
                    break
            if lam_hat is not None:
                break
        return Outcome(
            state=result.state, trace=result.objective_trace,
            n_iters=result.n_iters,
            lam_hat=lam_hat, cells=int(test.mask.sum()), recomputed=recomputed,
            quality={"fnr": selection.fnr, "msr": selection.msr,
                     "rmse_a": recovery.error_a})


class FitInventory:
    """One op is optimizer.fit on an inventory-shaped synthetic data set."""

    name = FIT_INVENTORY
    same_inputs = True

    def __init__(self, seed: int, scale: str, workdir: str):
        self.size = SIZES[self.name][scale]
        self.seeds = data.derive_seeds(seed, 3)

    def setup(self, tracer=None) -> None:
        s = self.size
        design = simulate.SimDesign(
            n_respondents=s["n"], n_items=s["j"], n_factors=s["k"],
            rho=s["rho"], n_categories=s["c"], seed=self.seeds[0])
        truth, _ = simulate.gen_true_params(design)
        self.data = simulate.sample_responses(truth, s["c"], seed=self.seeds[1])
        self.hyper = Hyperparameters(
            sigma_theta=simulate.gen_sigma(s["k"], s["rho"]), lam=s["lam"])
        self.cfg = optimizer.FitConfig(
            max_outer_iters=s["iters"], obj_tol=FIXED_ITERS_TOL,
            threads=s["threads"], seed=self.seeds[2])

    def op(self, k: int):
        return optimizer.fit(self.data, self.hyper, self.cfg)

    def outcome(self, k: int, result) -> Outcome:
        return Outcome(
            state=result.state, trace=result.objective_trace,
            n_iters=result.n_iters,
            lam_hat=self.hyper.lam, cells=int(self.data.mask.sum()),
            recomputed=optimizer.objective_value(self.data, result.state,
                                                 self.hyper))


class CvfitCli:
    """One op is a `sparsegrm cv-fit` process on a CSV the benchmark wrote."""

    name = CVFIT_CLI
    same_inputs = True

    def __init__(self, seed: int, scale: str, workdir: str):
        self.size = SIZES[self.name][scale]
        self.seeds = data.derive_seeds(seed, 5)
        self.workdir = workdir
        self.csv = os.path.join(workdir, "responses.csv")
        self.src = os.path.dirname(os.path.dirname(sparsegrm.__file__))

    def _generate(self) -> data.ResponseData:
        s = self.size
        truth, _ = simulate.gen_true_params(simulate.SimDesign(
            n_respondents=s["n"], n_items=s["j"], n_factors=s["k"],
            rho=s["rho"], seed=self.seeds[0]))
        rng = np.random.default_rng(self.seeds[1])
        # the same mix of category counts for every seed, in seeded order
        cats = rng.permutation(np.resize(s["cats"], s["j"]))
        truth = ModelState(
            theta=truth.theta, loadings=truth.loadings,
            intercepts=[simulate.draw_intercepts(rng, int(c)) for c in cats])
        full = simulate.sample_responses(truth, cats, seed=self.seeds[2])
        observed = (np.random.default_rng(self.seeds[3]).random(full.mask.shape)
                    >= s["missing"])
        return data.ResponseData(responses=full.responses, mask=observed,
                                 categories=full.categories)

    def setup(self, tracer=None) -> None:
        generated = self._generate()
        if tracer is None:
            data.save_responses(self.csv, generated)
        else:
            with tracer.span("data.save_responses"):
                data.save_responses(self.csv, generated)
        # the program infers category counts from the file; so does the gate
        self.loaded = data.load_responses(self.csv)

    def argv(self, k: int) -> list[str]:
        s = self.size
        return ["cv-fit", "--responses", self.csv, "--k", str(s["k"]),
                "--folds", str(s["folds"]), "--n-starts", "1",
                "--max-iters", str(s["iters"]),
                "--obj-tol", repr(FIXED_ITERS_TOL),
                "--seed", str(self.seeds[4]), "--out", self.out_dir(k)]

    def out_dir(self, k: int) -> str:
        return os.path.join(self.workdir, f"op{k}")

    def op(self, k: int):
        """Run cv-fit as a child process; return the child's rusage."""
        err_path = os.path.join(self.workdir, f"op{k}.stderr")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sparsegrm.cli", *self.argv(k)],
                env=_subprocess_env(self.src), stdout=subprocess.DEVNULL,
                stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path) as fh:
                raise RuntimeError(f"cv-fit exited {proc.returncode}: "
                                   f"{fh.read()[-500:]}")
        return usage

    def op_in_process(self, k: int):
        """The same op through sparsegrm.cli.main, for the traced run."""
        rc = cli.main(self.argv(k))
        if rc != 0:
            raise RuntimeError(f"cv-fit returned {rc}")

    def outcome(self, k: int, raw) -> Outcome:
        out = self.out_dir(k)
        summary = {}
        with open(os.path.join(out, "summary.txt")) as fh:
            for line in fh:
                if not line.startswith("#") and "=" in line:
                    key, _, value = line.partition("=")
                    summary[key.strip()] = value.strip()
        trace = np.array([float(v) for v in
                          summary["objective_trace"].split(",")])
        lam_hat = float(summary["lambda_hat"])
        state = ModelState(
            theta=data.read_matrix(os.path.join(out, "theta_est.csv")),
            loadings=data.read_matrix(os.path.join(out, "loadings_est.csv")),
            intercepts=data.read_intercepts(
                os.path.join(out, "intercepts_est.csv")))
        test_rows = data.read_matrix(
            os.path.join(out, "test_rows.csv")).ravel().astype(np.int64)
        test = data.take_rows(self.loaded, test_rows)
        errors = []
        if float(summary["objective_final"]) != float(trace[-1]):
            errors.append("summary objective_final differs from its trace")
        table = data.read_matrix(os.path.join(out, "cv_table.csv"))
        if table.shape[0] != 10:
            errors.append(f"cv_table.csv has {table.shape[0]} rows, not 10")
        for stage in (1, 2):
            picked = table[(table[:, 0] == stage) & (table[:, -1] == 1)]
            if picked.shape[0] != 1:
                errors.append(f"stage {stage} has {picked.shape[0]} selected rows")
        return Outcome(
            state=state, trace=trace, n_iters=int(summary["n_iters"]),
            lam_hat=lam_hat,
            cells=int(test.mask.sum()), file_errors=errors,
            recomputed=_objective(test, state, np.eye(self.size["k"]), lam_hat))


WORKLOADS = {cls.name: cls for cls in (ReplicateN500, FitInventory, CvfitCli)}
