"""Per-layer tracing from outside the program, and the kernel probe.

``Tracer.install`` replaces each traced name wherever liecurv looks it up:
a function is replaced in every ``liecurv`` module namespace that holds it
(``verify`` imports ``normalized_curvature_many`` from ``metric``, so both
copies are wrapped), and a method or constructor is replaced on its class.
Every call records a span (name, start, end, parent span, item id) in
memory, and per-name counts of calls, rows, total time and self time.  Self
time is a span's duration minus the time its child spans cover.  A traced
name that no longer exists is reported as absent and otherwise ignored.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    name: str  # the metric prefix
    module: str  # module under liecurv
    qualname: str  # "function", "Class.method" or "Class" (its constructor)
    rows_arg: int | None = None  # positional index of the (n, dim) row stack


# the layers' boundaries; row counts are the first dimension of the stack
TARGETS = (
    Target("algebra.bracket_many", "algebra", "LieAlgebra.bracket_many", rows_arg=1),
    Target("metric.normalized_curvature_many", "metric", "normalized_curvature_many", rows_arg=1),
    Target("metric.puttmann_curvature", "metric", "puttmann_curvature"),
    Target("metric.LeftInvariantMetric", "metric", "LeftInvariantMetric"),
    Target("variation.kappa_third_deriv_many", "variation", "kappa_third_deriv_many", rows_arg=2),
    Target("variation.InverseLinearPath.metric_at", "variation", "InverseLinearPath.metric_at"),
    Target("verify.min_curvature", "verify", "min_curvature"),
    Target("verify.path_scan", "verify", "path_scan"),
    Target("verify.infinitesimal_check", "verify", "infinitesimal_check"),
    Target("verify.lemma_k_check", "verify", "lemma_k_check"),
    Target("normalform.psi_normal_form", "normalform", "psi_normal_form"),
    Target("normalform.invariant_plane_residual", "normalform", "invariant_plane_residual"),
    Target("suites.run_suite", "suites", "run_suite"),
    Target("cli.main", "cli", "main"),
)
PROBE_ROWS = (16, 64, 100_000)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, item)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, rows, total_ns, self_ns]
        self.item = None
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, rows: int, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats.setdefault(name, [0, 0, 0, 0])
            st[0] += 1
            st[1] += rows
            st[2] += dur
            st[3] += dur - frame[1]
            self.spans.append((sid, parent, name, start, end, self.item))

    def _wrap(self, target: Target, fn):
        name, idx = target.name, target.rows_arg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = len(args[idx]) if idx is not None and len(args) > idx else 0
            return self.span(name, fn, rows, args, kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        self.absent = []
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "liecurv" or name.startswith("liecurv.")
        ]
        for target in TARGETS:
            module = sys.modules.get(f"liecurv.{target.module}")
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:  # a method, patched on its class
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(target.name)
                    continue
                self._patch(owner, attr, self._wrap(target, original))
                continue
            original = getattr(module, attr, None)
            if isinstance(original, type):  # a class: trace its constructor
                init = vars(original).get("__init__")
                if init is None:
                    self.absent.append(target.name)
                    continue
                self._patch(original, "__init__", self._wrap(target, init))
            elif callable(original):
                wrapped = self._wrap(target, original)
                for mod in modules:  # every namespace that looks the name up
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            else:
                self.absent.append(target.name)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def counts(self) -> dict[str, tuple[int, int]]:
        return {name: (st[0], st[1]) for name, st in sorted(self.stats.items())}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for target in TARGETS:
            calls, rows, total_ns, self_ns = self.stats.get(target.name, (0, 0, 0, 0))
            out[f"{target.name}.calls"] = (calls, "count")
            out[f"{target.name}.self_s"] = (self_ns * 1e-9, "s")
            if target.rows_arg is not None:
                out[f"{target.name}.rows"] = (rows, "count")
                # throughput as the caller sees it: rows over inclusive time
                rate = rows / (total_ns * 1e-9) if total_ns else 0.0
                out[f"{target.name}.rows_per_s"] = (rate, "rows/s")
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, item in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, item]) + "\n")


# ---------------------------------------------------------------------------
# kernel probe

def _rate(call, rows: int, min_seconds: float = 0.05, repeats: int = 3) -> float:
    """Median over ``repeats`` of rows per second, each repeat looping the
    call for at least ``min_seconds``."""
    rates = []
    for _ in range(repeats):
        calls = 0
        start = time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        rates.append(rows * calls / elapsed)
    return statistics.median(rates)


def kernel_probe(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """rows_per_s of the three row kernels at 16, 64 and 1e5 rows.

    A kernel that no longer exists reads 0 and is listed as absent.
    """
    import liecurv as lc

    g = lc.so4()
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    metric = lc.LeftInvariantMetric(g, q @ np.diag(rng.uniform(0.5, 2.0, 6)) @ q.T)
    psi = rng.standard_normal((6, 6))
    psi = 0.5 * (psi + psi.T)
    kernels = {  # name -> (function or None, leading arguments)
        "algebra.bracket_many": (getattr(type(g), "bracket_many", None), (g,)),
        "metric.normalized_curvature_many": (
            getattr(lc.metric, "normalized_curvature_many", None), (metric,)
        ),
        "variation.kappa_third_deriv_many": (
            getattr(lc.variation, "kappa_third_deriv_many", None), (g, psi)
        ),
    }
    out, absent = {}, []
    for name, (fn, lead) in kernels.items():
        if fn is None:
            absent.append(name)
        for n in PROBE_ROWS:
            x = rng.standard_normal((n, 6))
            y = rng.standard_normal((n, 6))
            rate = 0.0 if fn is None else _rate(lambda: fn(*lead, x, y), n)
            out[f"{name}.rows_per_s.n{n}"] = (rate, "rows/s")
    return out, absent
