"""sparsegrm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (BENCHMARK.json says why each exists):

* replicate_n500 -- one op is ``simulate.run_replication`` at the paper's
  study design (N=500, J=30, K=3, C=4, rho=0.1, lambda by two-stage CV,
  five starts), with a new replication seed per op;
* fit_inventory -- one op is ``optimizer.fit`` on an inventory-shaped set
  (N=4000, J=70, K=5, C=6, lambda=20, two threads, ten iterations);
* cvfit_cli -- one op is a ``sparsegrm cv-fit`` process on a CSV the
  benchmark writes (N=1000, J=30, K=3, 2/3/5/7 categories, 20% missing,
  two iterations per fit).

Every workload is a closed loop with one client.  With ``--trace 0`` ops
run back to back while the next one is expected to end within S seconds
of the first op's start, and the end-to-end metrics are printed; op and
CPU times are divided by a fixed reference kernel timed around each op
(see Reference).  With ``--trace 1`` the first two ops each run once
untraced and once with wrappers around the layers' public functions; the
per-layer metrics and the tracing overhead are printed, and the traced
fingerprints must equal the untraced ones.  Every op's output goes through
a correctness gate outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the machine facts, each op's fingerprint and every metric with its
unit and sample count.  A full record, and in traced runs the spans, are
written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up repetitions per run; setup_s is their median
SETUP_REPS = {"full": 3, "tiny": 1}
# ops in a traced run; a fixed number, so its counts repeat exactly
TRACE_OPS = 2


def import_package():
    """Import sparsegrm from this checkout's src, and only from there."""
    if not (SRC / "sparsegrm" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparsegrm package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import sparsegrm
    if not Path(sparsegrm.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: sparsegrm imported from {sparsegrm.__file__}")


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "OPENBLAS_"))},
        "seed": seed,
    }


@dataclass
class OpResult:
    k: int
    traced: bool
    wall_s: float
    user_s: float
    sys_s: float
    child_rss_kb: int
    errors: list
    fingerprint: dict | None
    outcome: object
    # reference-kernel seconds around the op; set by timed runs only
    ref_s: float = 0.0

    def line(self) -> str:
        label = " traced" if self.traced else ""
        status = "FAILED " + "; ".join(self.errors) if self.errors else "ok"
        ref = f" ref {self.ref_s:.4f} s" if self.ref_s else ""
        return (f"# op {self.k}{label}: wall {self.wall_s:.4f} s cpu "
                f"{self.user_s + self.sys_s:.4f} s{ref} {status} "
                f"fingerprint {json.dumps(self.fingerprint)}")


class Reference:
    """A fixed numpy kernel, unrelated to sparsegrm, timed around each op.

    Shared hosts drift between fast and slow phases (identical ops were
    seen to take 1.5x longer for minutes at a time).  Dividing an op's time
    by this kernel's time measured just before and after it cancels most
    of that drift, while any change to sparsegrm still moves the ratio.
    The mix of small and large arrays follows the engine's block sizes.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 30, 250))
        self.large = rng.standard_normal((2, 70, 1000))

    @staticmethod
    def _cells(z, d):
        import numpy as np
        from scipy.special import expit
        cu = expit(z + d)
        cl = expit(z - d)
        den = np.maximum(cu - cl, 1e-10)
        return np.log(den).sum(axis=1), np.where(z > 0, cu * (1 - cu), cl) / den

    def seconds(self) -> float:
        """Median of three timings of the kernel."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(150):
                self._cells(*self.small)
            for _ in range(16):
                self._cells(*self.large)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def run_op(wl, k: int, fault, call=None, around=nullcontext,
           traced=False) -> OpResult:
    """Time op k (only the call itself), then build and gate its outcome."""
    from workloads import check
    call = call or wl.op
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with around():
            raw = call(k)
    except Exception as exc:  # a failed op is counted; the loop goes on
        return OpResult(k, traced, time.perf_counter() - t0, 0.0, 0.0, 0,
                        [f"{type(exc).__name__}: {exc}"], None, None)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    user = after.ru_utime - before.ru_utime
    system = after.ru_stime - before.ru_stime
    child_rss = 0
    if isinstance(raw, resource.struct_rusage):  # the op was a child process
        user += raw.ru_utime
        system += raw.ru_stime
        child_rss = raw.ru_maxrss
    try:
        outcome = wl.outcome(k, raw)
        if fault is not None:
            fault(outcome)
        errors = check(outcome)
    except Exception as exc:  # unreadable output fails the op
        return OpResult(k, traced, wall, user, system, child_rss,
                        [f"{type(exc).__name__}: {exc}"], None, None)
    return OpResult(k, traced, wall, user, system, child_rss, errors,
                    outcome.fingerprint(), outcome)


def median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(wl, reps: int, tracer=None) -> tuple[float, list]:
    """Median over reps of fresh-interpreter package import plus input set-up."""
    from workloads import import_seconds
    totals = []
    for r in range(reps):
        imported = import_seconds(str(SRC), "sparsegrm")
        t0 = time.perf_counter()
        wl.setup(tracer if r == reps - 1 else None)
        totals.append(imported + time.perf_counter() - t0)
    return median(totals), totals


def timed_run(wl, seconds: float, fault) -> list[OpResult]:
    """Ops back to back while the next one, judged by the median so far,
    still ends within `seconds` of the loop's start; at least one op runs."""
    reference = Reference()
    before = reference.seconds()
    ops = []
    started = time.perf_counter()
    while not ops or (time.perf_counter() - started
                      + median([op.wall_s for op in ops]) <= seconds):
        res = run_op(wl, len(ops), fault)
        after = reference.seconds()
        res.ref_s = (before + after) / 2
        before = after
        if (wl.same_inputs and ops and not res.errors
                and ops[0].fingerprint is not None
                and res.fingerprint != ops[0].fingerprint):
            res.errors.append("same inputs as op 0, different fingerprint")
        ops.append(res)
        print(res.line(), flush=True)
    return ops


def end_to_end(ops: list[OpResult], setup_s: float, setup_n: int) -> dict:
    """The metrics BENCHMARK.json gates; times are in reference units."""
    ok = [op for op in ops if not op.errors] or ops
    outcomes = [op.outcome for op in ok if op.outcome is not None]
    peak_kb = (max(op.child_rss_kb for op in ops)
               or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "op_ref_p50": (median([op.wall_s / op.ref_s for op in ok]), "ref",
                       len(ok)),
        "cpu_ref_per_op": (
            median([(op.user_s + op.sys_s) / op.ref_s for op in ok]), "ref",
            len(ok)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
        "neg_objective_per_cell": (
            median([-float(o.trace[-1]) / o.cells for o in outcomes]), "nats",
            len(outcomes)),
        "setup_s": (setup_s, "s", setup_n),
    }


def reported(ops: list[OpResult], span_s: float | None = None) -> dict:
    """Figures printed for reading but not in BENCHMARK.json's gated lists."""
    outcomes = [op.outcome for op in ops if op.outcome is not None]
    out = {}
    if span_s is not None:
        ok = [op for op in ops if not op.errors] or ops
        out["op_s_p50"] = (median([op.wall_s for op in ok]), "s", len(ok))
        out["ops_per_min"] = (60.0 * len(ops) / span_s, "1/min", len(ops))
        out["cpu_s_per_op"] = (median([op.user_s + op.sys_s for op in ok]),
                               "s", len(ok))
        out["ref_s"] = (median([op.ref_s for op in ops]), "s", len(ops))
    out.update({
        "failed_ratio": (sum(1 for op in ops if op.errors) / len(ops), "ratio",
                         len(ops)),
        "objective_per_cell": (
            median([float(o.trace[-1]) / o.cells for o in outcomes]), "nats",
            len(outcomes)),
    })
    quality = [o.quality for o in outcomes if o.quality]
    if quality:
        for key, unit in (("fnr", "ratio"), ("msr", "ratio"),
                          ("rmse_a", "loading")):
            out[f"{key}_mean"] = (statistics.fmean(q[key] for q in quality),
                                  unit, len(quality))
    return out


def traced_run(wl, fault, tracer) -> list[OpResult]:
    """Each of TRACE_OPS ops runs untraced, then traced; fingerprints agree."""
    # cvfit_cli's traced op calls sparsegrm.cli.main in this process, so its
    # overhead figure also lacks the interpreter start-up (see cli.import_s)
    target = getattr(wl, "op_in_process", wl.op)

    def call(k):
        with tracer.span("op"):
            return target(k)

    ops = []
    for k in range(TRACE_OPS):
        plain = run_op(wl, k, fault)
        tracer.op = k
        traced = run_op(wl, k, fault, call=call, around=tracer.installed,
                        traced=True)
        tracer.op = None
        if not traced.errors and not plain.errors \
                and traced.fingerprint != plain.fingerprint:
            traced.errors.append("traced fingerprint differs from untraced")
        for res in (plain, traced):
            ops.append(res)
            print(res.line(), flush=True)
    return ops


def per_layer(ops: list[OpResult], tracer, cli_import: list) -> dict:
    from tracing import layer_metrics
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    out = {name: (value, unit, len(traced)) for name, (value, unit)
           in layer_metrics(tracer, len(traced)).items()}
    out["cli.import_s"] = (median(cli_import), "s", len(cli_import))
    cpu = sum(op.user_s + op.sys_s for op in plain)
    out["proc.sys_cpu_share"] = (
        sum(op.sys_s for op in plain) / cpu if cpu else 0.0, "ratio",
        len(plain))
    untraced_s = median([op.wall_s for op in plain])
    overhead = median([op.wall_s for op in traced]) - untraced_s
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    out["trace.overhead_share"] = (
        overhead / untraced_s if untraced_s else 0.0, "ratio", len(traced))
    return out


def main(argv=None, scale: str = "full", fault=None) -> int:
    """Run one workload; `scale` and `fault` exist for the self-test."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{label}-{os.getpid()}"
    results = OUT / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    facts = machine_facts(args.seed)
    print(f"# sparsegrm benchmark {label} seconds={args.seconds:g} "
          f"scale={scale}")
    print(f"# machine {json.dumps(facts)}", flush=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scale, str(workdir))
        tracer = Tracer() if args.trace else None
        setup_s, setup_samples = measure_setup(wl, SETUP_REPS[scale], tracer)
        span_s = None
        if args.trace:
            ops = traced_run(wl, fault, tracer)
            cli_import = [workloads.import_seconds(str(SRC), "sparsegrm.cli")
                          for _ in range(SETUP_REPS[scale])]
            metrics = per_layer(ops, tracer, cli_import)
            with open(results / f"{label}-spans.jsonl", "w") as fh:
                for record in tracer.to_records():
                    fh.write(json.dumps(record) + "\n")
        else:
            started = time.perf_counter()
            ops = timed_run(wl, args.seconds, fault)
            span_s = time.perf_counter() - started
            metrics = end_to_end(ops, setup_s, len(setup_samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    shown = {**metrics, **reported(ops, span_s)}
    for name, (value, unit, n) in shown.items():
        print(f"metric {name} = {value!r} {unit} (n={n})")
    failed = sum(1 for op in ops if op.errors)
    record = {
        "label": label, "scale": scale, "machine": facts,
        "setup_s_samples": setup_samples,
        "ops": [{"op": op.k, "traced": op.traced, "wall_s": op.wall_s,
                 "user_s": op.user_s, "sys_s": op.sys_s, "ref_s": op.ref_s,
                 "errors": op.errors, "fingerprint": op.fingerprint}
                for op in ops],
        "metrics": {name: {"value": v, "unit": u, "n": n}
                    for name, (v, u, n) in shown.items()},
    }
    (results / f"{label}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
