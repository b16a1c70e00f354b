"""Outside-in tracer for relgap: spans and counts around the calls into each
layer, installed by rebinding names and restored afterwards.  No file of the
program changes.

A layer is a module of the `relgap` package.  Its spans come from wrapping
every public function of the module, the public methods and properties of
the classes it defines, and their `__post_init__` and `__call__`.  relgap
modules bind names at import (`from .matcore import eig_herm`), so a wrapper
replaces the original in every `relgap.*` namespace that holds the same
function object.

Dense LAPACK work is a layer of its own, `lapack`: the calls of
`numpy.linalg.{eigh, eigvalsh, svd, solve, inv}` made while a relgap span is
open.  `numpy.linalg.norm(x, 2)` computes an SVD inside numpy's own module,
where the `svd` wrapper never sees it, so it is counted as an SVD.
Quadrature evaluations are counted by wrapping the integrand that is passed
to `integrate_adaptive`; the integrand span belongs to the layer that
defined the integrand.

Spans stay in memory as tuples and are aggregated when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("matcore", "forms", "subspace", "ritz", "sylvester", "quadrature",
          "sqroot", "splines", "harness", "cli")
LAPACK_CALLS = ("eigh", "eigvalsh", "svd", "solve", "inv")
NORM_ORDS_WITH_SVD = (2, -2, "nuc")
IO_FUNCTIONS = ("load_matrix", "save_matrix")
KRONROD_NODES = 15

# span tuple fields
SPAN_ID, PARENT, SESSION, LAYER, NAME, START, END, CHILD = range(8)


class Tracer:
    """Records one span per wrapped call: (id, parent id, session, layer,
    name, start, end, time covered by child spans)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.session = 0
        self.io_bytes = 0
        self._stack: list[list] = []   # open spans: [id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, tracer.session, layer, name,
                              start, end, frame[1]))

        return functools.update_wrapper(traced, fn)

    def _wrap_lapack(self, fn, name: str):
        inner = self._wrap(fn, "lapack", name)
        stack = self._stack

        def lapack(*args, **kwargs):
            return inner(*args, **kwargs) if stack else fn(*args, **kwargs)

        return functools.update_wrapper(lapack, fn)

    def _wrap_norm(self, fn):
        inner = self._wrap(fn, "lapack", "svd")
        stack = self._stack

        def norm(x, ord=None, *args, **kwargs):
            if stack and ord in NORM_ORDS_WITH_SVD and np.ndim(x) == 2:
                return inner(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return functools.update_wrapper(norm, fn)

    def _wrap_integrate(self, fn):
        tracer = self

        def integrate_adaptive(f, *args, **kwargs):
            layer = f.__module__.rsplit(".", 1)[-1]
            return fn(tracer._wrap(f, layer, "integrand"), *args, **kwargs)

        functools.update_wrapper(integrate_adaptive, fn)
        return self._wrap(integrate_adaptive, "quadrature", "integrate_adaptive")

    def _wrap_io(self, fn, name: str):
        inner = self._wrap(fn, "matcore", name)
        tracer = self

        def io(path, *args, **kwargs):
            try:
                return inner(path, *args, **kwargs)
            finally:
                if os.path.exists(path):
                    tracer.io_bytes += os.path.getsize(path)

        return functools.update_wrapper(io, fn)

    # -- installation --------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer boundary; `uninstall` puts every original back."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"relgap.{layer}") for layer in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    if name == "integrate_adaptive":
                        replaced[id(obj)] = (obj, self._wrap_integrate(obj))
                    elif name in IO_FUNCTIONS:
                        replaced[id(obj)] = (obj, self._wrap_io(obj, name))
                    else:
                        replaced[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "relgap" or key.startswith("relgap.")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        for name in LAPACK_CALLS:
            self._set(np.linalg, name, self._wrap_lapack(getattr(np.linalg, name), name))
        self._set(np.linalg, "norm", self._wrap_norm(np.linalg.norm))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__post_init__", "__call__"):
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self._wrap(val, layer, name))
            elif isinstance(val, property) and val.fget is not None:
                self._set(cls, attr, property(self._wrap(val.fget, layer, name)))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self._wrap(val.__func__, layer, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer, inclusive time and call count per (layer,
        name), and the total duration of the top-level spans."""
        self_s = dict.fromkeys(LAYERS + ("lapack",), 0.0)
        incl: dict = {}
        calls: dict = {}
        top = 0.0
        for span in self.spans:
            dur = span[END] - span[START]
            key = (span[LAYER], span[NAME])
            self_s[span[LAYER]] = self_s.get(span[LAYER], 0.0) + dur - span[CHILD]
            incl[key] = incl.get(key, 0.0) + dur
            calls[key] = calls.get(key, 0) + 1
            if span[PARENT] == 0:
                top += dur
        return {"self_s": self_s, "incl_s": incl, "calls": calls, "top_s": top}
