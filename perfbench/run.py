"""Benchmark of the ``ecml`` command line: set-up, fit and eval, closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload wide-fit-bin --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0      # every workload, untraced then traced
    python3 perfbench/run.py --write-spec  # rewrite BENCHMARK.json from WORKLOADS and the metric tables

One client drives ``python -m ecml.cli`` from this process; each call starts
after the previous one has exited. Inputs come from ``synth`` + ``pairs`` with
seeds derived from ``--seed``. Every child runs with OpenBLAS/OpenMP pinned to
one thread, because model bytes differ between thread counts.

``--trace 0`` reports the end-to-end metrics: wall time of set-up, fit and
eval subprocesses (median over batches, see ``batched_median``), and their
median peak RSS from ``os.wait4``. ``--trace 1`` runs the same
``ecml.cli.main(argv)`` calls in this process, alternating untraced and
traced iterations, and reports per-layer timings and exact counts from the
spans (see ``tracing.py``).

Every run checks its outputs: repeated set-ups write identical inputs,
repeated fits write a byte-identical model, repeated evals a byte-identical
ROC table, and ``eval``'s EER and per-pair scores match an independent
recomputation (``oracle.py``). Failed calls and checks count in ``failed``.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_SECONDS = 50
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
IMPORT_REPEATS = 5
CALL_TIMEOUT_S = 120
# No new iteration starts this long after the run began, so a run ends well
# within three minutes whatever --seconds says.
RUN_BUDGET_S = 110
# Wall times are reported as the median over batches of consecutive calls
# that together take at least this long; see batched_median.
BATCH_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ids: int
    samples_per_id: int
    dim: int
    train_pairs: int
    heldout_pairs: int
    learner: str
    cascade: bool
    pca_dim: int | None = None

    def tiny(self):
        """The same workload at a size that runs in about a second."""
        return replace(
            self, ids=6, samples_per_id=8, dim=16, train_pairs=300, heldout_pairs=200,
            pca_dim=8 if self.pca_dim else None,
        )


# Geometry --intra-spread 1.0 --inter-spread 0.5 keeps held-out EER non-zero.
# Both workloads share one 2000x1024 input shape. wide-fit-bin exercises the
# cascade (stages, mcd, projections); plain-pca-bin bypasses it and exercises
# PCA, kissme and the stage-free scoring path instead, so a cascade change
# should not move plain-pca-bin. Workloads whose calls are dominated by
# interpreter-bound work (CSV parsing, scoring 200k pairs one by one at 64
# dimensions) were tried and dropped: on a 2-vCPU VM their fit and eval
# medians spread 0.2-0.3 (IQR/median over ten seeds), beyond any bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-fit-bin",
            "1024-wide rmml cascade: fit dominates (stats GEMMs, eigen checks, mcd); I/O and scoring are small",
            100, 20, 1024, 20_000, 500, "rmml", True,
        ),
        Workload(
            "plain-pca-bin",
            "PCA 1024->512 then plain kissme, no cascade stages: PCA, SPD inverses and scoring 5k pairs; bypasses the cascade",
            100, 20, 1024, 20_000, 5_000, "kissme", False, 512,
        ),
    )
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("fit_s", "s", "lower", 0.25),
    ("eval_s", "s", "lower", 0.25),
    ("fit_peak_rss_mb", "MB", "lower", 0.1),
    ("eval_peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); timings first, then exact counts. Timings are medians
# over the traced iterations of one fit + eval; a comment names the end-to-end
# metric each should move.
PER_LAYER = [
    ("features.load_features_s", "s", "lower"),  # fit_s, eval_s (small for raw binary)
    ("features.load_pairs_s", "s", "lower"),  # eval_s on plain-pca-bin
    ("features.save_features_s", "s", "lower"),  # setup_s
    ("features.sample_pairs_s", "s", "lower"),  # setup_s
    ("features.fit_pca_s", "s", "lower"),  # fit_s on plain-pca-bin
    ("features.apply_pca_s", "s", "lower"),  # fit_s, eval_s on plain-pca-bin
    ("metrics.accumulate_stats_s", "s", "lower"),  # fit_s, fit_peak_rss_mb on wide-fit-bin
    ("metrics.learner_s", "s", "lower"),  # fit_s on wide-fit-bin
    ("linalg.eig_s", "s", "lower"),  # fit_s, eval_s (load_model) on wide-fit-bin
    ("cascade.mcd_s", "s", "lower"),  # fit_s on wide-fit-bin
    ("cascade.fit_cascade_self_s", "s", "lower"),  # fit_s on wide-fit-bin
    ("cascade.save_model_s", "s", "lower"),  # fit_s on wide-fit-bin
    ("cascade.load_model_s", "s", "lower"),  # eval_s on wide-fit-bin
    ("cascade.cascade_distance_s", "s", "lower"),  # eval_s, most on plain-pca-bin
    ("evaluation.score_pairs_self_s", "s", "lower"),  # eval_s on plain-pca-bin
    ("evaluation.build_report_s", "s", "lower"),  # eval_s on plain-pca-bin
    ("evaluation.save_report_s", "s", "lower"),  # eval_s on plain-pca-bin
    ("cli.import_s", "s", "lower"),  # fit_s on plain-pca-bin
    ("cli.fit_traced_s", "s", "lower"),
    ("cli.eval_traced_s", "s", "lower"),
    ("cli.fit_unattributed_s", "s", "lower"),
    ("cli.eval_unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("eval.heldout_eer", "ratio", "lower"),
    ("run.error_rate", "ratio", "lower"),
    ("metrics.accumulate_stats.calls", "count", "lower"),
    ("metrics.accumulate_stats.flops_computed", "flop", "lower"),
    ("metrics.accumulate_stats.diff_bytes_computed", "B", "lower"),
    ("metrics.learner.calls", "count", "lower"),
    ("linalg.eigh_calls", "count", "lower"),
    ("linalg.eigvalsh_calls", "count", "lower"),
    ("cascade.mcd.calls", "count", "lower"),
    ("cascade.clamped_total", "count", "lower"),
    ("cascade.cascade_distance.calls", "count", "lower"),
]


def spec():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# calls into the program


@dataclass(frozen=True)
class Call:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float | None = None


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, work):
    """Run ``cmd`` to completion; wall time from spawn to reap, peak RSS of the child."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=work)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def run_in_process(argv, tracer):
    import ecml.cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
    start = time.perf_counter()
    with span, redirect_stdout(out), redirect_stderr(err):
        try:
            code = ecml.cli.main(argv)
        except Exception:  # a traceback from the CLI is a failed call, not a benchmark crash
            traceback.print_exc()
            code = 1
    return Call(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_eer(stdout):
    for line in stdout.splitlines():
        if line.startswith("eer="):
            return float(line[4:])
    return None


class Run:
    """One benchmark run of one workload: its files, calls and check tally."""

    def __init__(self, wl, seed, work, in_process):
        self.wl, self.seed, self.work, self.in_process = wl, seed, work, in_process
        self.t0 = time.perf_counter()
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.eers = []
        self._first = {}
        self.features = str(work / "features.bin")
        self.labels = str(work / "labels.txt")
        self.train = str(work / "train_pairs.csv")
        self.heldout = str(work / "heldout_pairs.csv")
        self.model = str(work / "model.ecml")
        self.report = str(work / "report.txt")
        self.roc = self.report + ".roc.csv"

    def expect(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def expect_same(self, what, value):
        first = self._first.setdefault(what, value)
        return self.expect(value == first, f"{what} differs between repeats")

    def cli(self, argv):
        if self.in_process:
            call = run_in_process(argv, self.tracer)
        else:
            call = run_child([sys.executable, "-m", "ecml.cli", *argv], self.work)
        detail = (call.stderr.strip().splitlines() or [""])[-1]
        ok = self.expect(call.code == 0, f"{argv[0]} exited {call.code}: {detail}")
        return call if ok else None

    def setup(self):
        """Write the inputs; returns the set-up wall time, or None on failure."""
        wl = self.wl
        synth = self.cli([
            "synth", "--ids", str(wl.ids), "--samples-per-id", str(wl.samples_per_id),
            "--dim", str(wl.dim), "--intra-spread", "1.0", "--inter-spread", "0.5",
            "--seed", str(self.seed), "--count", str(wl.train_pairs), "--format", "raw-binary",
            "--features", self.features, "--labels", self.labels, "--pairs", self.train,
        ])
        if synth is None:
            return None
        pairs = self.cli([
            "pairs", "--labels", self.labels, "--count", str(wl.heldout_pairs),
            "--seed", str(self.seed + 1), "--pairs", self.heldout,
        ])
        if pairs is None:
            return None
        digest = [sha256(p) for p in (self.features, self.labels, self.train, self.heldout)]
        self.expect_same("set-up inputs", digest)
        return synth.wall_s + pairs.wall_s

    def fit(self):
        wl = self.wl
        argv = [
            "fit", "--features", self.features, "--format", "raw-binary", "--pairs", self.train,
            "--model", self.model, "--seed", str(self.seed), "--learner", wl.learner,
            "--cascade" if wl.cascade else "--no-cascade",
        ]
        if wl.pca_dim:
            argv += ["--pca-dim", str(wl.pca_dim)]
        call = self.cli(argv)
        if call is not None:
            self.expect_same("model file", sha256(self.model))
        return call

    def eval(self):
        call = self.cli([
            "eval", "--model", self.model, "--features", self.features,
            "--format", "raw-binary", "--pairs", self.heldout, "--report", self.report,
        ])
        if call is not None:
            self.expect_same("ROC table", sha256(self.roc))
            eer = parse_eer(call.stdout)
            if self.expect(eer is not None, "eval printed no eer= line"):
                self.eers.append(eer)
        return call

    def fit_and_eval(self):
        """Fit, then eval the fresh model; returns (fit call, eval call) or None."""
        fit = self.fit()
        ev = self.eval() if fit is not None else None
        return (fit, ev) if ev is not None else None

    def closed_loop(self, seconds, step, enough):
        """Call ``step`` until ``seconds`` have passed and ``enough()`` holds."""
        start = time.perf_counter()
        while not (enough() and time.perf_counter() - start >= seconds):
            if time.perf_counter() - self.t0 > RUN_BUDGET_S or step() is None:
                break

    def check_outputs(self):
        """Compare eval's EER and scores with the independent oracle."""
        import oracle

        if not self.expect(bool(self.eers), "no eval completed"):
            return None
        try:
            problems, oracle_eer = oracle.check(
                self.model, self.features, self.heldout, self.roc, self.eers[-1]
            )
        except Exception:  # unreadable outputs are a failed check, not a benchmark crash
            self.expect(False, traceback.format_exc(limit=-1).strip())
            return None
        self.expect(not problems, "; ".join(problems))
        for e in self.eers[:-1]:
            self.expect(oracle.close(e, oracle_eer), f"eer {e!r} differs from oracle {oracle_eer!r}")
        return oracle_eer


def median(values):
    return statistics.median(values) if values else 0.0


def batched_median(walls):
    """Median over batches of consecutive calls of each batch's mean call time.

    On a small VM the host switches the guest between a fast and a slow speed
    every few seconds, so single calls fall into two clusters and their median
    jumps between them from run to run. A batch of at least BATCH_S seconds
    spans both, and the median of batch means stays steady while still
    discounting an outlying batch.
    """
    batches, batch = [], []
    for wall in walls:
        batch.append(wall)
        if sum(batch) >= BATCH_S:
            batches.append(batch)
            batch = []
    if batch and batches:
        batches[-1].extend(batch)
    elif batch:
        batches.append(batch)
    return median([statistics.mean(b) for b in batches])


def measure_untraced(run, seconds):
    setups = []

    def set_up():
        # Set-up runs SETUP_REPEATS times before the loop and again after it,
        # so its median spans the run like the fit and eval samples do.
        for _ in range(SETUP_REPEATS):
            wall = run.setup()
            if wall is None:
                return False
            setups.append(wall)
        return True

    fits, evals = [], []

    def step():
        # Fit and eval alternate, so both sets of samples are spread evenly
        # over the run, and eval always scores the model the latest fit wrote.
        calls = run.fit_and_eval()
        if calls is not None:
            fits.append(calls[0])
            evals.append(calls[1])
        return calls

    if set_up():
        run.closed_loop(seconds, step, lambda: len(fits) >= MIN_ITERATIONS)
        set_up()
    run.check_outputs()
    samples = {
        "setup_s": setups,
        "fit_s": [c.wall_s for c in fits],
        "eval_s": [c.wall_s for c in evals],
        "fit_peak_rss_mb": [c.peak_rss_mb for c in fits],
        "eval_peak_rss_mb": [c.peak_rss_mb for c in evals],
    }
    metrics = {k: batched_median(v) for k, v in samples.items() if not k.endswith("_mb")}
    metrics.update((k, median(v)) for k, v in samples.items() if k.endswith("_mb"))
    return metrics, {"samples": samples}


def measure_traced(run, seconds):
    import tracing

    imports = []
    for _ in range(IMPORT_REPEATS):
        call = run_child([sys.executable, "-c", "import ecml.cli"], run.work)
        if run.expect(call.code == 0, f"import ecml.cli exited {call.code}"):
            imports.append(call.wall_s)
    setup_tracer = tracing.Tracer()
    run.tracer = setup_tracer
    with tracing.instrumented(setup_tracer):
        ready = run.setup() is not None
    run.tracer = None
    untraced, traced, tracers = [], [], []

    def traced_iteration():
        run.tracer = tracing.Tracer()
        with tracing.instrumented(run.tracer):
            calls = run.fit_and_eval()
        if calls is not None:
            traced.append(sum(c.wall_s for c in calls))
            tracers.append(run.tracer)
        run.tracer = None
        return calls

    def untraced_iteration():
        calls = run.fit_and_eval()
        if calls is not None:
            untraced.append(sum(c.wall_s for c in calls))
        return calls

    def pair():
        # Alternate which of the two goes first, so neither always runs on
        # the heap the other left behind.
        first, second = (
            (untraced_iteration, traced_iteration) if len(tracers) % 2 == 0
            else (traced_iteration, untraced_iteration)
        )
        return first() is not None and second() is not None or None

    # One untraced warm-up iteration first: the first in-process call pays for
    # heap growth and lazy imports that later calls do not.
    if ready and run.fit_and_eval() is not None:
        run.closed_loop(seconds, pair, lambda: bool(tracers))
    heldout_eer = run.check_outputs()
    per_iteration = [tracing.layer_metrics(t) for t in tracers]
    metrics, counts = {}, {}
    if per_iteration:
        metrics = tracing.median_metrics([t for t, _ in per_iteration])
        for _, counts in per_iteration:
            run.expect_same("per-layer counts", counts)
    metrics.update(tracing.setup_metrics(setup_tracer))
    metrics["cli.import_s"] = median(imports)
    metrics["trace.overhead_frac"] = (
        median(traced) / median(untraced) - 1.0 if untraced else 0.0
    )
    metrics["eval.heldout_eer"] = heldout_eer or 0.0
    metrics.update(counts)
    spans = [setup_tracer.spans] + [t.spans for t in tracers]
    return metrics, {"untraced_s": untraced, "traced_s": traced, "spans": spans}


# ---------------------------------------------------------------------------
# environment and output


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_in_process": openblas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(wl, seed, seconds, trace):
    """Run one workload; returns the result dict printed as the last line."""
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(wl, seed, work, in_process=bool(trace))
        measure = measure_traced if trace else measure_untraced
        values, detail = measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values["run.error_rate"] = run.failed / max(run.attempted, 1)
    table = PER_LAYER if trace else END_TO_END
    metrics = {m[0]: {"value": values.get(m[0], 0.0), "unit": m[1]} for m in table}
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "problems": run.problems, "result": result,
        "error_rate": values["run.error_rate"], **detail,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, record


def print_result(wl_name, record):
    print(f"# {wl_name}  environment: {json.dumps(record['environment'])}")
    for problem in record["problems"]:
        print(f"# {wl_name}  FAILED CHECK: {problem}")
    print(f"# {wl_name}  error_rate = {record['error_rate']:.6g} ratio")
    for name, m in record["result"]["metrics"].items():
        print(f"# {wl_name}  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0 then 1")
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "ecml" / "cli.py").is_file():
        print(f"error: no ecml sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy loads in this process (traced runs, oracle).
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    for name in names:
        for trace in modes:
            result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
            print_result(name, record)
            results[f"{name}/trace{trace}"] = result
    print(json.dumps(next(iter(results.values())) if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
