#!/usr/bin/env python3
"""relgap benchmark: the paper's tables, and desk-scale bound queries with
the quadrature oracles, end to end and layer by layer.

    python3 relbench/run.py --workload tables|queries --seed N \\
        --seconds S --trace 0|1
    python3 relbench/run.py --workload all --seed N --seconds S --trace 0|1 \\
        [--record relbench/baseline.json]

Run it from the root of a checkout; it imports relgap from `src/`.  One
process drives the program with one closed-loop client: each call goes out
only after the previous one returned.  Dense BLAS threads are pinned to the
number of usable CPUs.

`--trace 0` measures the end-to-end metrics; `--trace 1` alternates
untraced and traced rounds, and reports the per-layer metrics of `tracer.py`
per round.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  `--workload
all` runs both workloads, each in a fresh process; `--record` also runs
the other trace mode and the eigh yardstick, and writes everything to a file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".relbench_work"

WORKLOAD_NAMES = ("tables", "queries")
SMALL_PER_ROUND = 4       # a round is this many small sessions, then one large one
SETUP_REPEATS = 9         # fresh-process set-ups, spread evenly over a run
TAIL_SAMPLES = 10
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {  # name: unit
    "session_small_ms": "ms",
    "session_large_ms": "ms",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric: (unit, workloads the layer table predicts it to move on)
PER_LAYER = {
    "matcore.eigh.calls": ("count", ("tables", "queries")),
    "matcore.eigvalsh.calls": ("count", ("tables", "queries")),
    "matcore.svd.calls": ("count", ("tables", "queries")),
    "matcore.solve.calls": ("count", ("tables", "queries")),
    "matcore.lapack_s": ("s", ("tables", "queries")),
    "matcore.decomp_per_call": ("count", ("tables", "queries")),
    "matcore.fractional_power.calls": ("count", ("tables", "queries")),
    "matcore.self_s": ("s", ("tables", "queries")),
    "matcore.io_s": ("s", ("queries",)),
    "matcore.io_bytes": ("B", ("queries",)),
    "forms.self_s": ("s", ("queries",)),
    "forms.formpair.calls": ("count", ("queries",)),
    "forms.s_operator.calls": ("count", ("queries",)),
    "subspace.self_s": ("s", ("queries",)),
    "ritz.self_s": ("s", ("tables", "queries")),
    "ritz.eta_routes_s": ("s", ("tables", "queries")),
    "sylvester.self_s": ("s", ("queries",)),
    "sylvester.problem.calls": ("count", ("queries",)),
    "quadrature.integrate.calls": ("count", ("queries",)),
    "quadrature.panels": ("count", ("queries",)),
    "quadrature.evals": ("count", ("queries",)),
    "quadrature.integrand_s": ("s", ("queries",)),
    "quadrature.eval_us": ("us", ("queries",)),
    "quadrature.self_s": ("s", ("queries",)),
    "sqroot.self_s": ("s", ("queries",)),
    "splines.modal.calls": ("count", ("tables",)),
    "splines.modal_s": ("s", ("tables",)),
    "splines.self_s": ("s", ("tables",)),
    "harness.self_s": ("s", ("tables",)),
    "harness.build_test_space_s": ("s", ("tables",)),
    "harness.residual_competitor_s": ("s", ("tables",)),
    "cli.self_s": ("s", ("queries",)),
    "trace_overhead_s": ("s", ()),
    "bench.residual_s": ("s", ()),
}
# layers the table predicts to sit idle: their work counts must read exactly 0
MUST_BE_ZERO = {
    "quadrature.integrate.calls": ("tables",),
    "quadrature.evals": ("tables",),
    "splines.modal.calls": ("queries",),
}


def pin_threads() -> int:
    """Pin dense BLAS threads to the usable CPUs; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import relgap from this checkout's `src/`, and nothing else."""
    if not (SRC / "relgap" / "__init__.py").is_file():
        sys.exit(f"relbench: no relgap package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import relgap
    if pathlib.Path(relgap.__file__).resolve().parent != (SRC / "relgap").resolve():
        sys.exit(f"relbench: relgap was imported from {relgap.__file__}, not from {SRC}")


def header(threads: int, with_cpu_model: bool = False) -> dict:
    import numpy as np
    import relgap
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    head = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "relgap": relgap.__version__, "machine": platform.machine()}
    if with_cpu_model:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        head["cpu"] = models[0] if models else platform.processor()
    return head


# ---------------------------------------------------------------------------
# the closed-loop client
# ---------------------------------------------------------------------------

class Client:
    """Sends one call at a time and times each; checks run outside the timer."""

    def __init__(self, workload):
        self.sessions = {size: workload.session(size) for size in ("small", "large")}
        self.times = {"small": [], "large": []}
        self.attempted = self.failed = 0
        self.busy_s = 0.0
        self.errors: list[str] = []
        self.tracer = None

    @property
    def calls_per_round(self) -> int:
        return SMALL_PER_ROUND * len(self.sessions["small"]) + len(self.sessions["large"])

    @property
    def timed_calls(self) -> int:
        return sum(len(self.sessions[size]) * len(t) for size, t in self.times.items())

    def session(self, size: str, keep_time: bool) -> None:
        if self.tracer is not None:
            self.tracer.session += 1
        total = 0.0
        for call in self.sessions[size]:
            start = time.perf_counter()
            try:
                out, err = call.run(), None
            except Exception as exc:  # a failed call is counted, never fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if err is None:
                try:
                    err = call.check(out)
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
            total += elapsed
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.errors.append(f"{call.label} [{size}]: {err}")
            if keep_time:
                self.busy_s += elapsed
        if keep_time:
            self.times[size].append(total)

    def round(self) -> None:
        for _ in range(SMALL_PER_ROUND):
            self.session("small", keep_time=True)
        self.session("large", keep_time=True)

    def rounds_for(self, seconds: float, setup: Callable[[], float]) -> list[float]:
        """Run whole rounds until `seconds` have passed, with SETUP_REPEATS
        calls of `setup` spread evenly between them; return their times."""
        setups: list[float] = []
        start, rounds = time.perf_counter(), 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            while (len(setups) < SETUP_REPEATS
                   and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS):
                setups.append(setup())
            self.round()
            rounds += 1
        while len(setups) < SETUP_REPEATS:
            setups.append(setup())
        return setups


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(values: list[float]):
    """Highest standard percentile with at least TAIL_SAMPLES samples beyond it."""
    ordered = sorted(values)
    for p in PERCENTILES:
        if len(ordered) * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            rank = max(0, -(-len(ordered) * p // 100) - 1)
            return p, ordered[int(rank)]
    return None


def timed_setup(name: str, seed: int, workdir: pathlib.Path) -> float:
    """Set the workload up in a fresh process; its time from start to ready."""
    try:
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child", name, "--seed", str(seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"set-up process failed: {child.stderr.strip()[-500:]}")
    return float(child.stdout.split()[-1])


def setup_child(name: str, seed: int, workdir: pathlib.Path) -> None:
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS
    WORKLOADS[name]().setup(seed, workdir)
    print(f"{time.perf_counter() - start!r}")


def end_to_end(client: Client, setups: list[float]) -> dict:
    """Session times are means over the whole run.  The host's speed swings
    by up to 1.8x in phases of seconds to minutes; a median jumps between
    the phases' speeds, while a mean moves with the share of the run each
    phase took (ten 45 s runs of `queries`: quartile spread 0.27 of the
    median for medians, 0.14-0.16 for means)."""
    return {
        "session_small_ms": 1e3 * statistics.fmean(client.times["small"]),
        "session_large_ms": 1e3 * statistics.fmean(client.times["large"]),
        "calls_per_s": client.timed_calls / client.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(summary: dict, rounds: int, calls_per_round: int, io_bytes: int,
              traced_s: float, untraced_s: float) -> dict:
    from tracer import KRONROD_NODES
    calls, incl, self_s = summary["calls"], summary["incl_s"], summary["self_s"]

    def count(layer, name):
        return calls.get((layer, name), 0) / rounds

    def inclusive(layer, name):
        return incl.get((layer, name), 0.0) / rounds

    evals = sum(n for (_, name), n in calls.items() if name == "integrand") / rounds
    integrand_s = sum(t for (_, name), t in incl.items() if name == "integrand") / rounds
    decomps = sum(count("lapack", k) for k in ("eigh", "eigvalsh", "svd"))
    out = {
        "matcore.eigh.calls": count("lapack", "eigh"),
        "matcore.eigvalsh.calls": count("lapack", "eigvalsh"),
        "matcore.svd.calls": count("lapack", "svd"),
        "matcore.solve.calls": count("lapack", "solve") + count("lapack", "inv"),
        "matcore.lapack_s": self_s["lapack"] / rounds,
        "matcore.decomp_per_call": decomps / calls_per_round,
        "matcore.fractional_power.calls": count("matcore", "fractional_power"),
        "matcore.io_s": inclusive("matcore", "load_matrix") + inclusive("matcore", "save_matrix"),
        "matcore.io_bytes": io_bytes / rounds,
        "forms.formpair.calls": count("forms", "FormPair.__post_init__"),
        "forms.s_operator.calls": count("forms", "s_operator"),
        "ritz.eta_routes_s": inclusive("ritz", "eta_routes"),
        "sylvester.problem.calls": count("sylvester", "WeakSylvesterProblem.__post_init__"),
        "quadrature.integrate.calls": count("quadrature", "integrate_adaptive"),
        "quadrature.panels": evals / KRONROD_NODES,
        "quadrature.evals": evals,
        "quadrature.integrand_s": integrand_s,
        "quadrature.eval_us": 1e6 * integrand_s / evals if evals else 0.0,
        "splines.modal.calls": count("splines", "modal_coefficients"),
        "splines.modal_s": inclusive("splines", "modal_coefficients"),
        "harness.build_test_space_s": inclusive("harness", "build_test_space"),
        "harness.residual_competitor_s": inclusive("harness", "residual_competitor"),
        "trace_overhead_s": (traced_s - untraced_s) / rounds,
        "bench.residual_s": (traced_s - summary["top_s"]) / rounds,
    }
    for layer, seconds in self_s.items():
        if layer != "lapack":
            out[f"{layer}.self_s"] = seconds / rounds
    return {name: out[name] for name in PER_LAYER}


def coverage_problems(name: str, metrics: dict, traced_s: float, rounds: int) -> list[str]:
    """Layer predictions that did not hold, and any break in the time accounting."""
    problems = [f"{metric} did not fire" for metric, (_, where) in PER_LAYER.items()
                if name in where and not metrics[metric] > 0]
    problems += [f"{metric} is {metrics[metric]}, predicted 0" for metric, where in
                 MUST_BE_ZERO.items() if name in where and metrics[metric] != 0]
    accounted = (sum(v for k, v in metrics.items() if k.endswith(".self_s"))
                 + metrics["matcore.lapack_s"] + metrics["bench.residual_s"])
    if abs(accounted - traced_s / rounds) > 1e-6 * traced_s / rounds:
        problems.append(f"self times add up to {accounted} s, traced wall is {traced_s / rounds} s")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, threads: int,
                 workdir: pathlib.Path) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS

    head = header(threads)
    print(f"relbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("header " + " ".join(f"{k}={v}" for k, v in head.items()))
    workload = WORKLOADS[name]()
    workload.setup(seed, workdir / "main")
    workload.references()
    client = Client(workload)
    for size in ("small", "large"):  # warm-up: caches fill, lazy set-up finishes
        client.session(size, keep_time=False)

    if not trace:
        setups = client.rounds_for(seconds, lambda: timed_setup(name, seed, workdir / "setup"))
        metrics = end_to_end(client, setups)
        samples = {"session_small_ms": client.times["small"],
                   "session_large_ms": client.times["large"], "setup_s": setups}
        for metric, value in metrics.items():
            values = samples.get(metric)
            if values is None:
                where = "per process" if metric == "peak_rss_mb" else f"{client.timed_calls} calls"
                print(f"  {metric:<18} {value:12.4f} {END_TO_END[metric]:<4} ({where})")
                continue
            scale = 1e3 if metric.endswith("_ms") else 1.0
            pct = tail(values)
            extra = (f"p{pct[0]:g} {scale * pct[1]:.4f}" if pct else
                     f"no percentile with {TAIL_SAMPLES} samples beyond it")
            if metric == "setup_s":
                stat = f"median of n={len(values)}"
            else:
                stat = f"mean of n={len(values)}; median {scale * statistics.median(values):.4f}"
            print(f"  {metric:<18} {value:12.4f} {END_TO_END[metric]:<4} ({stat}; {extra})")
        problems = []
    else:
        # untraced and traced rounds alternate, so drift hits both alike
        tracer = Tracer()
        untraced_s = traced_s = 0.0
        rounds = 0
        while rounds == 0 or untraced_s + traced_s < seconds:
            start = time.perf_counter()
            client.round()
            untraced_s += time.perf_counter() - start
            client.tracer = tracer
            with tracer:
                start = time.perf_counter()
                client.round()
                traced_s += time.perf_counter() - start
            rounds += 1
        client.tracer = None
        metrics = per_layer(tracer.summary(), rounds, client.calls_per_round,
                            tracer.io_bytes, traced_s, untraced_s)
        print(f"  per round, {rounds} rounds of {client.calls_per_round} calls; "
              f"{len(tracer.spans)} spans")
        for metric, value in metrics.items():
            print(f"  {metric:<32} {value:14.6g} {PER_LAYER[metric][0]}")
        problems = coverage_problems(name, metrics, traced_s, rounds)

    ratio = client.failed / client.attempted
    print(f"  failed_ratio {ratio:g} ({client.failed} of {client.attempted} calls failed)")
    for line in client.errors[:5] + problems:
        print(f"  FAIL {line}")
    units = END_TO_END if not trace else {k: v[0] for k, v in PER_LAYER.items()}
    return {"correct": client.failed == 0 and not problems, "attempted": client.attempted,
            "failed": client.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args, threads: int, workdir: pathlib.Path) -> dict:
    """Each workload in a fresh process; with `record`, both trace modes,
    the yardstick and the header go to the record file."""
    modes = (args.trace, 1 - args.trace) if args.record else (args.trace,)
    runs: dict = {}
    for name in WORKLOAD_NAMES:
        for trace in modes:
            child = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False)
            sys.stdout.write(child.stdout[:child.stdout.rstrip().rfind("\n") + 1])
            if child.returncode != 0:
                sys.exit(f"relbench: workload {name} failed:\n{child.stderr}")
            runs.setdefault(name, {})[f"trace{trace}"] = json.loads(child.stdout.splitlines()[-1])
    result = {"correct": all(r["correct"] for w in runs.values() for r in w.values()),
              "attempted": sum(r["attempted"] for w in runs.values() for r in w.values()),
              "failed": sum(r["failed"] for w in runs.values() for r in w.values()),
              "metrics": {f"{name}.{k}": v for name, w in runs.items()
                          for k, v in w[f"trace{args.trace}"]["metrics"].items()}}
    if args.record:
        from yardstick import measure
        record = {"header": header(threads, with_cpu_model=True),
                  "command": f"python3 relbench/run.py --workload all --seed {args.seed} "
                             f"--seconds {args.seconds:g} --record {args.record}",
                  "yardstick": measure(args.seed, workdir),
                  "runs": runs}
        pathlib.Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded to {args.record}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="with --workload all: write header, yardstick and results here")
    parser.add_argument("--setup-child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    threads = pin_threads()
    if args.setup_child:
        setup_child(args.setup_child, args.seed, pathlib.Path(args.workdir))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.record and args.workload != "all":
        parser.error("--record needs --workload all")
    import_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "all":
            result = run_all(args, threads, workdir)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  threads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
