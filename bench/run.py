"""fedfilm benchmark: three CLI workloads timed end to end, and a traced run
that times each module.

    python3 bench/run.py --workload correct-100k --seed 1 --seconds 10 --trace 0

Run from anywhere; the repository root is the parent of this directory. Each
workload's inputs come from ``fedfilm synth`` with the given seed, and every
fedfilm call is a child process that sees only the generated files. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines before it report the environment,
every metric with its unit, and the output fingerprint. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
MIN_SETUPS = 3
SETUP_SHARE = 0.5  # set-up repeats for this share of --seconds
MIN_REPETITIONS = 2
STARTUP_REPEATS = 3
TRACED_PASSES = 2
SYNTH_FLAGS = ["--types", "8", "--dim", "32", "--scale-lo", "0.8",
               "--scale-hi", "1.25", "--shift-sigma", "1.5"]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "correct", "evaluate" or "continual"
    batches: int
    cells_per_batch: int


WORKLOADS = {w.name: w for w in (
    Workload("correct-100k", "correct", 8, 12500),
    Workload("evaluate-20k", "evaluate", 4, 5000),
    Workload("continual-10k", "continual", 4, 2500),
)}

# output files whose bytes must repeat across runs and match the pinned
# fingerprint, relative to a repetition's directory
FINGERPRINTED = {
    "correct": ("fit/adapter.json", "fit/training_log.csv",
                "transform/corrected_embeddings.csv"),
    "evaluate": ("evaluate/metrics.txt",),
    "continual": ("scenario/stage*/*",),
}
SYNTH_FILES = ("embeddings.csv", "metadata.csv", "ground_truth.json")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.main.self_s": "s",
    "io.load_embedding_matrix.s": "s",
    "io.load_metadata.s": "s",
    "io.save_embeddings.s": "s",
    "io.save_adapter.s": "s",
    "io.save_training_log.s": "s",
    "io.save_report.s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "objective.client_local_update.calls": "count",
    "objective.client_local_update.self_s": "s",
    "objective.local_gradient.calls": "count",
    "objective.local_gradient.s": "s",
    "objective.local_loss.s": "s",
    "objective.make_client_state.s": "s",
    "federation.run_federated_fit.self_s": "s",
    "federation.aggregate.calls": "count",
    "federation.aggregate.s": "s",
    "federation.run_scenario.self_s": "s",
    "core.apply_adapter.s": "s",
    "core.batch_row_indices.s": "s",
    "core.CellMetadata.batches_for.s": "s",
    "core.CellMetadata.restricted_to.s": "s",
    "core.CellMetadata.restricted_to.calls": "count",
    "core.EmbeddingMatrix.subset.s": "s",
    "metrics.evaluate.calls": "count",
    "metrics.evaluate.self_s": "s",
    "metrics.build_neighbor_graph.s": "s",
    "metrics.kmeans.s": "s",
    "metrics.silhouette_samples.calls": "count",
    "metrics.silhouette_samples.s": "s",
    "metrics.silhouette_label_asw.s": "s",
    "metrics.silhouette_batch_asw.s": "s",
    "metrics.lisi.s": "s",
    "metrics.kbet_per_label.self_s": "s",
    "metrics.chi2_sf.calls": "count",
    "metrics.chi2_sf.s": "s",
    "metrics.graph_connectivity.s": "s",
    "metrics.pcr_score.s": "s",
    "metrics.nmi.s": "s",
    "metrics.ari.s": "s",
    "metrics.isolated_label_f1.s": "s",
    "metrics.dist_entries": "count",
    "synth.generate.s": "s",
    "trace_overhead_frac": "frac",
}


@dataclasses.dataclass
class Call:
    """One child process: a fedfilm subcommand, or an import for startup time."""

    step: str
    wall_s: float
    peak_rss_mb: float
    errors: list


def run_child(step, argv, log) -> Call:
    """Run ``argv`` with src on PYTHONPATH; time it and take its own rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    errors = []
    if proc.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8", errors="replace")[-400:]
        errors.append(f"{step}: exit code {proc.returncode}: {tail.strip()}")
    return Call(step, wall, usage.ru_maxrss / 1024.0, errors)


def cli_argv(args, trace_out=None):
    """Command line of one fedfilm call, traced in process when ``trace_out``."""
    if trace_out is None:
        return [sys.executable, "-m", "fedfilm.cli", *map(str, args)]
    return [sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_out), *map(str, args)]


def synth_args(w: Workload, seed, out):
    return ["synth", "--batches", w.batches, "--cells-per-batch", w.cells_per_batch,
            *SYNTH_FLAGS, "--seed", seed, "--out", out]


def workload_steps(w: Workload, data: Path, plan: Path, rep: Path):
    """(step name, CLI args) of one repetition; each writes under ``rep``."""
    io_args = ["--embeddings", data / "embeddings.csv", "--metadata", data / "metadata.csv"]
    if w.kind == "correct":
        return [("fit", ["fit", *io_args, "--out", rep / "fit"]),
                ("transform", ["transform", *io_args, "--adapter", rep / "fit" / "adapter.json",
                               "--out", rep / "transform"])]
    if w.kind == "evaluate":
        return [("evaluate", ["evaluate", *io_args, "--out", rep / "evaluate"])]
    return [("scenario", ["scenario", "--plan", plan, *io_args, "--out", rep / "scenario"])]


def write_plan(w: Workload, path: Path):
    """A continual plan that adds one batch per stage."""
    stages = [[f"batch{b}"] for b in range(w.batches)]
    path.write_text(json.dumps({"mode": "continual", "stages": stages}) + "\n")


def check_outputs(w: Workload, data: Path, rep: Path) -> list[str]:
    """The workload's content checks on one repetition's outputs."""
    if w.kind == "correct":
        return checks.check_transform(data / "embeddings.csv", data / "metadata.csv",
                                      rep / "fit" / "adapter.json",
                                      rep / "transform" / "corrected_embeddings.csv")
    if w.kind == "evaluate":
        return checks.check_scores(rep / "evaluate" / "metrics.txt")
    return checks.check_continual(rep / "scenario", data / "embeddings.csv",
                                  data / "metadata.csv")


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Run:
    """One benchmark run of one workload; every child call is recorded."""

    def __init__(self, w: Workload, seed: int, work: Path, pin: dict | None):
        self.w, self.seed, self.work, self.pin = w, seed, work, pin
        self.calls: list[Call] = []
        self.reference: dict | None = None  # fingerprint of the first repetition

    def call(self, step, argv) -> Call:
        c = run_child(step, argv, self.work / f"call{len(self.calls)}.log")
        self.calls.append(c)
        return c

    def setup(self, seconds: float):
        """Generate the inputs until the generator has run for ``seconds`` in
        all, at least MIN_SETUPS times; time each run, keep the first output."""
        calls, prints = [], []
        while len(calls) < MIN_SETUPS or sum(c.wall_s for c in calls) < seconds:
            out = self.work / f"data{len(calls)}"
            calls.append(self.call("synth", cli_argv(synth_args(self.w, self.seed, out))))
            prints.append(checks.fingerprint(out, SYNTH_FILES))
            if len(calls) > 1:
                calls[-1].errors += checks.compare_fingerprints(prints[-1], prints[0], "synth")
                shutil.rmtree(out, ignore_errors=True)
        self.data = self.work / "data0"
        self.plan = self.work / "plan.json"
        write_plan(self.w, self.plan)
        return [c.wall_s for c in calls]

    def repetition(self, rep: Path, traced: bool = False):
        """Run the workload's steps once and check their outputs. A traced
        repetition first generates its own inputs under ``rep``, and every
        call writes its trace next to ``rep``. Returns the calls and traces."""
        calls, traces = [], []
        if traced:
            data = rep / "data"
            steps = [("synth", synth_args(self.w, self.seed, data))]
        else:
            data, steps = self.data, []
        for step, args in steps + workload_steps(self.w, data, self.plan, rep):
            trace_out = rep.with_name(f"{rep.name}.{step}.trace.json") if traced else None
            calls.append(self.call(step, cli_argv(args, trace_out)))
            if traced:
                traces.append(trace_out)
            if step == "synth":
                calls[-1].errors += checks.compare_fingerprints(
                    checks.fingerprint(data, SYNTH_FILES),
                    checks.fingerprint(self.data, SYNTH_FILES), "traced synth")
        errors = []
        if all(not c.errors for c in calls):
            got = checks.fingerprint(rep, FINGERPRINTED[self.w.kind])
            if self.reference is None:
                self.reference = got
                errors += check_outputs(self.w, data, rep)
                if self.pin is not None:
                    errors += checks.compare_fingerprints(got, self.pin, "pinned fingerprint")
            else:
                errors += checks.compare_fingerprints(got, self.reference, f"{rep.name} vs first run")
        calls[-1].errors += errors
        return calls, traces

    def measure(self, seconds: float):
        """Repeat the workload until its calls have taken ``seconds`` in all,
        at least MIN_REPETITIONS times; the output checks between repetitions
        do not count."""
        reps, measured = [], 0.0
        while len(reps) < MIN_REPETITIONS or measured < seconds:
            rep = self.work / f"rep{len(reps)}"
            calls, _ = self.repetition(rep)
            reps.append(calls)
            measured += sum(c.wall_s for c in calls)
            if len(reps) > 1:
                shutil.rmtree(rep, ignore_errors=True)
        return reps

    def startup(self):
        return [self.call("startup", [sys.executable, "-c", "import fedfilm.cli"]).wall_s
                for _ in range(STARTUP_REPEATS)]


def end_to_end(reps, setup_times) -> dict:
    """END_TO_END metrics, plus a median per call when a repetition makes
    several calls (``fit_s`` and ``transform_s``); those are printed only."""
    out = {
        "wall_s": statistics.median(sum(c.wall_s for c in calls) for calls in reps),
        "peak_rss_mb": statistics.median(max(c.peak_rss_mb for c in calls) for calls in reps),
        "setup_s": statistics.median(setup_times),
    }
    steps = [c.step for c in reps[0]]
    for step in steps if len(steps) > 1 else ():
        out[f"{step}_s"] = statistics.median(c.wall_s for calls in reps for c in calls
                                             if c.step == step)
    return out


def layer_metrics(step_traces, synth_trace, written: int) -> dict:
    """Per-layer values of one traced pass: the workload's calls, plus the
    generator's time from the traced set-up, plus the bytes the calls wrote."""
    funcs, counters = {}, {"io.bytes_written": written}
    for path in step_traces:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, st in doc["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
    out = {}
    for metric in PER_LAYER:
        func, _, field = metric.rpartition(".")
        if metric in counters:
            out[metric] = counters[metric]
        elif func in funcs:
            out[metric] = funcs[func][field]
    synth = json.loads(Path(synth_trace).read_text(encoding="utf-8"))
    out["synth.generate.s"] = synth["functions"]["synth.generate"]["s"]
    return out


def traced_passes(run: Run):
    """Run the traced pass TRACED_PASSES times; counts must repeat exactly."""
    passes, walls = [], []
    for i in range(TRACED_PASSES):
        rep = run.work / f"traced{i}"
        calls, traces = run.repetition(rep, traced=True)
        ok = all(not c.errors for c in calls)
        walls.append(sum(c.wall_s for c in calls if c.step != "synth"))
        passes.append(layer_metrics(traces[1:], traces[0], dir_bytes(rep) - dir_bytes(rep / "data"))
                      if ok else None)
        if i and ok and passes[0] is not None:
            counts = [m for m, unit in PER_LAYER.items() if unit in ("count", "bytes")]
            differ = [m for m in counts if passes[i][m] != passes[0][m]]
            if differ:
                calls[-1].errors.append(f"traced counts differ between passes: {differ}")
        shutil.rmtree(rep, ignore_errors=True)
    return passes, walls


def environment() -> dict:
    import numpy

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
           "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        env["blas"] = "unknown"
    env["blas_threads"] = {k: os.environ.get(k, "unset") for k in BLAS_VARS}
    env["loadavg_start"] = _loadavg()
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 pin: dict | None, work: Path, out=sys.stdout) -> dict:
    """Run one workload and return the result object of the last output line."""
    env = environment()
    work.mkdir(parents=True)
    try:
        run = Run(w, seed, work, pin)
        setup_times = run.setup(seconds * SETUP_SHARE)
        reps = run.measure(seconds)
        e2e = end_to_end(reps, setup_times)
        layers = None
        if trace:
            passes, walls = traced_passes(run)
            if all(p is not None for p in passes):
                layers = {m: (statistics.median(p[m] for p in passes) if PER_LAYER[m] == "s"
                              else passes[0][m]) for m in PER_LAYER if m in passes[0]}
                layers["cli.startup_s"] = statistics.median(run.startup())
                layers["trace_overhead_frac"] = statistics.median(walls) / e2e["wall_s"] - 1.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    failed = sum(1 for c in run.calls if c.errors)
    print("env " + json.dumps(env, sort_keys=True), file=out)
    print(f"workload {w.name}: {w.batches} batches x {w.cells_per_batch} cells, seed {seed}, "
          f"{len(reps)} repetition(s), trace {int(trace)}", file=out)
    for c in run.calls:
        for e in c.errors:
            print(f"FAILED {e}", file=out)
    for name, value in e2e.items():
        print(f"  {name:<40} {value:>14.6g} {END_TO_END.get(name, 's')}", file=out)
    print(f"  {'(wall_s per repetition)':<40} "
          + " ".join(f"{sum(c.wall_s for c in calls):.3f}" for calls in reps), file=out)
    print(f"  {'fail_frac':<40} {failed / len(run.calls):>14.6g} "
          f"({failed} of {len(run.calls)} calls)", file=out)
    if trace:
        for name, unit in PER_LAYER.items():
            value = None if layers is None else layers.get(name)
            if value is None:
                print(f"  {name:<40} {'unmeasured':>14} {unit}", file=out)
            elif value == 0 and name != "trace_overhead_frac":
                print(f"  {name:<40} {'n/a':>14} {unit} (not called on this workload)", file=out)
            else:
                print(f"  {name:<40} {value:>14.6g} {unit}", file=out)
    print("fingerprint " + json.dumps(run.reference, sort_keys=True), file=out)

    metrics = e2e if not trace else (layers or {})
    units = END_TO_END if not trace else PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": len(run.calls),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items() if m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time the workload's calls are repeated for (at least "
                             f"{MIN_REPETITIONS} repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fedfilm" / "cli.py").is_file():
        print(f"bench: no fedfilm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads((BENCH_DIR / "fingerprints.json").read_text(encoding="utf-8"))
    for name in args.workload:
        w = WORKLOADS[name]
        pin = pins.get(name) if args.seed == DEFAULT_SEED else None
        work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        result = run_workload(w, args.seed, args.seconds, bool(args.trace), pin, work)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
