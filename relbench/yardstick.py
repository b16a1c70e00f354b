"""The eigh yardstick: how long one dense `eigh` takes at each input size the
workloads use, and what each public call costs, counted in dense
decompositions and in eigh-equivalents (its wall time over one `eigh` at its
size).  A call that needs one decomposition per operator costs a few
eigh-equivalents; the ratio shows how far a call is from that.
"""

from __future__ import annotations

import pathlib
import shutil
import statistics
import time

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # warm
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def eigh_seconds(n: int, rng: np.random.Generator) -> float:
    g = rng.standard_normal((n, n))
    sym = (g + g.T) / 2.0
    return _median_time(lambda: np.linalg.eigh(sym), repeats=7)


def measure(seed: int, workdir: pathlib.Path) -> dict:
    rng = np.random.default_rng(seed)
    calls = []
    eigh_s: dict[int, float] = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(seed, workdir / name)
            workload.references()
            for size in ("small", "large"):
                for call in workload.session(size):
                    if call.n not in eigh_s:
                        eigh_s[call.n] = eigh_seconds(call.n, rng)
                    wall = _median_time(call.run)
                    tracer = Tracer()
                    with tracer:
                        call.run()
                    counts = tracer.summary()["calls"]
                    kinds = {k: counts.get(("lapack", k), 0) for k in ("eigh", "eigvalsh", "svd")}
                    calls.append({"workload": name, "call": call.label, "n": call.n,
                                  "wall_ms": 1e3 * wall, **kinds,
                                  "decompositions": sum(kinds.values()),
                                  "eigh_equivalents": wall / eigh_s[call.n]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"eigh_ms": {str(n): 1e3 * eigh_s[n] for n in sorted(eigh_s)}, "calls": calls}
