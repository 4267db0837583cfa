"""Span tracer that wraps kpcalab's public functions from outside the package.

``from .linalg import sym_eig`` copies the function into every importing
module, so a wrapper is installed at every module attribute that holds the
original function, and each of those attributes is put back by restore().

A span is (name, start, end, parent); its id is its index in ``spans``, so
ids increase in start order.  Spans are kept in memory and written out by
the caller.  A span started on a thread whose own stack is empty (a worker
of ``run_grid``'s thread pool) takes as parent the innermost open span of
the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# layer (module) -> public functions traced in it
TRACED = {
    "rng": ("derive_seed",),
    "measures": ("draw_samples",),
    "kernels": ("make_finite_rank_kernel", "gram", "cross_gram"),
    "features": ("sample_finite_rank", "feature_matrix"),
    "kpca": ("fit_exact", "fit_rf"),
    "oracle": ("op_jj", "op_aa", "proj_pop", "proj_hat", "proj_hat_rf", "recon_error",
               "proj_distance", "oracle_snapshot"),
    "linalg": ("sym_eig", "matrix_norm", "fractional_power", "spectral_projector"),
    "bounds": ("make_perturbation_cases", "perturb_check", "operator_inequality_suite",
               "mc_tail"),
    "rates": ("run_grid", "transition_study"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _count_sym_eig(counters, args, kwargs, result):
    dim = len(args[0] if args else kwargs["a"])
    counters["linalg.sym_eig.n3_sum"] += dim ** 3
    counters["linalg.sym_eig.dim_max"] = max(counters["linalg.sym_eig.dim_max"], dim)


def _count_feature_matrix(counters, args, kwargs, result):
    counters["features.feature_matrix.elems"] += result.size


def _count_run_grid(counters, args, kwargs, result):
    counters["rates.cells"] += len(result.rows)
    counters["rates.invalid_cells"] += sum(r.value != r.value for r in result.rows)


# Counts taken from a call's arguments or result, beyond calls and self time.
_COUNTERS = {
    "linalg.sym_eig": _count_sym_eig,
    "features.feature_matrix": _count_feature_matrix,
    "rates.run_grid": _count_run_grid,
}
COUNTER_NAMES = ("linalg.sym_eig.n3_sum", "linalg.sym_eig.dim_max",
                 "features.feature_matrix.elems", "rates.cells", "rates.invalid_cells")


class Tracer:
    """Wraps the TRACED functions of an imported kpcalab while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: list = []
        self._patched: list = []  # (module, attribute, original)

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and name.split(".")[0] == "kpcalab"]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._root = []
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"kpcalab.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                span_name = f"{layer}.{fn_name}"
                wrappers[id(original)] = (original, self._wrap(span_name, original,
                                                               _COUNTERS.get(span_name)))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and counters recorded so far and start afresh."""
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans = []
            self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        return spans, counters

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._root[-1] if tracer._root else None)
            start = time.perf_counter()
            with tracer._lock:
                spans = tracer.spans
                sid = len(spans)
                spans.append(None)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if count is not None:
                with tracer._lock:
                    count(tracer.counters, args, kwargs, result)
            return result

        return traced


def self_times(spans, start: float, end: float) -> tuple[dict, float]:
    """Self time per span name over [start, end], and the time no span covers.

    At each instant the elapsed time goes to the open spans that have no
    open child, split evenly between them when threads overlap.  For spans
    nested on one thread this is a span's duration minus the time its
    children cover.  The self times plus the uncovered time add up to
    end - start.
    """
    events = []
    for sid, (_, s, e, _) in enumerate(spans):
        events.append((s, 1, sid))   # parents (lower ids) open first
        events.append((e, 0, -sid))  # ends before starts; children close first
    events.sort()
    own = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    counted = [False] * len(spans)
    leaves: dict = {}  # ordered set of open spans without open children
    uncovered = 0.0
    prev = start
    for t, kind, key in events:
        dt = t - prev
        if dt > 0.0:
            if leaves:
                share = dt / len(leaves)
                for sid in leaves:
                    own[sid] += share
            else:
                uncovered += dt
            prev = t
        sid = key if kind else -key
        parent = spans[sid][3]
        if kind:
            is_open[sid] = True
            if parent is not None and is_open[parent]:
                counted[sid] = True
                open_children[parent] += 1
                leaves.pop(parent, None)
            leaves[sid] = None
        else:
            is_open[sid] = False
            leaves.pop(sid, None)
            if counted[sid]:
                open_children[parent] -= 1
                if open_children[parent] == 0 and is_open[parent]:
                    leaves[parent] = None
    uncovered += max(end - prev, 0.0)
    by_name: dict = {}
    for sid, (name, _, _, _) in enumerate(spans):
        by_name[name] = by_name.get(name, 0.0) + own[sid]
    return by_name, uncovered
