"""Span recorder that wraps asymtail's public functions from outside.

Each wrapped function is replaced in the namespace its callers look it up
in (for example `asymtail.bounds.b_opt`, which `combined_bound_grid`
reads from the `bounds` module globals), so no library file changes.
A span is (name, start, end, parent, op, error); spans of one benchmark
operation share the op id.  Spans are kept in flat arrays in memory and
written out once, when the run ends.

Every wrapped call happens on the benchmark's own thread: the only
worker threads in asymtail (the supermartingale block pool) call none
of the wrapped functions, so one span stack is enough.
"""
from __future__ import annotations

import json
from array import array
from collections import Counter
from importlib import import_module
from time import perf_counter
from types import SimpleNamespace

import numpy as np

# (span name, layer, call sites).  The layer is the module whose code the
# span's self time is spent in; `verifier.mc_bound_grid` is the bound grid
# that supermartingale_mc builds, so its own time belongs to `bounds`.
SPANS = [
    ("bounds.combined_bound", "bounds", [("asymtail.bounds", "combined_bound")]),
    ("bounds.combined_bound_grid", "bounds", [("asymtail.bounds", "combined_bound_grid")]),
    ("verifier.mc_bound_grid", "bounds", [("asymtail.verifier", "combined_bound_grid")]),
    ("bounds.b_opt", "bounds", [("asymtail.bounds", "b_opt")]),
    ("bounds.hoeffding_bound", "bounds", [("asymtail.bounds", "hoeffding_bound")]),
    ("optimize.golden_section", "optimize",
     [("asymtail.bounds", "golden_section"), ("asymtail.thresholds", "golden_section")]),
    ("dist.iid_sum", "dist",
     [("asymtail.bounds", "iid_sum"), ("asymtail.verifier", "iid_sum"),
      ("asymtail.selfnorm", "iid_sum")]),
    ("dist.weighted_bs_sum", "dist", [("asymtail.verifier", "weighted_bs_sum")]),
    ("dist.sample", "dist", [("asymtail.selfnorm", "sample")]),
    ("majorant.lin_lc_majorant", "majorant", [("asymtail.bounds", "lin_lc_majorant")]),
    ("majorant.lc_majorant", "majorant",
     [("asymtail.bounds", "lc_majorant"), ("asymtail.selfnorm", "lc_majorant")]),
    ("majorant.lattice_params", "majorant",
     [("asymtail.bounds", "lattice_params"), ("asymtail.majorant", "lattice_params")]),
    ("thresholds.threshold_row", "thresholds", [("asymtail.thresholds", "threshold_row")]),
    ("verifier.delta_grid_check", "verifier", [("asymtail.verifier", "delta_grid_check")]),
    ("verifier.enumeration_check", "verifier", [("asymtail.verifier", "enumeration_check")]),
    ("verifier.exactness_witness", "verifier", [("asymtail.verifier", "exactness_witness")]),
    ("verifier.schur_sweep", "verifier", [("asymtail.verifier", "schur_sweep")]),
    ("verifier.supermartingale_mc", "verifier", [("asymtail.verifier", "supermartingale_mc")]),
    ("selfnorm.selfnorm_bound_check", "selfnorm",
     [("asymtail.selfnorm", "selfnorm_bound_check")]),
    ("selfnorm.reciprocate", "selfnorm", [("asymtail.selfnorm.ReciprocatingMap", "reciprocate")]),
    ("selfnorm.selfnorm_stat", "selfnorm", [("asymtail.selfnorm", "selfnorm_stat")]),
    ("selfnorm.bound_curve", "selfnorm", [("asymtail.selfnorm", "_bound_curve")]),
]

# Clopper-Pearson limits are `beta_dist.ppf` calls in these modules, and
# `.ppf` is all they use of `beta_dist`.
CP_SPANS = [("verifier.cp_lower", "verifier", "asymtail.verifier"),
            ("selfnorm.cp_lower", "selfnorm", "asymtail.selfnorm")]

# Functions called too often for a span each: only their calls are counted.
COUNTED = [
    ("bounds.partial_moment.calls", [("asymtail.bounds", "partial_moment")]),
    ("thresholds.m_star.calls",
     [("asymtail.bounds", "m_star"), ("asymtail.verifier", "m_star"),
      ("asymtail.selfnorm", "m_star"), ("asymtail.thresholds", "m_star")]),
]

BENCH_SPANS = ["bench.op", "bench.oracle"]


def _resolve(path: str):
    """Module or class object named by a dotted path."""
    try:
        return import_module(path)
    except ModuleNotFoundError:
        owner, _, attr = path.rpartition(".")
        return getattr(import_module(owner), attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = [""]  # error-type id 0 means none
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.err = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.carrier_atoms = 0
        self.carrier_slots = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        for name in BENCH_SPANS:
            self._nid(name, "bench")

    def _nid(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    # -- span bookkeeping --------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.err.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, exc: BaseException | None = None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if exc is not None:
            kind = type(exc).__name__
            if kind not in self.errors:
                self.errors.append(kind)
            self.err[idx] = self.errors.index(kind)

    def _span_wrapper(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            self.close(idx)
            if on_result is not None:
                on_result(res)
            return res
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _count_hull(self, maj) -> None:
        self.counts["majorant.hull_vertices"] += len(maj.hull_x)

    def _count_paths(self, report) -> None:
        self.counts["selfnorm.paths"] += report.n_paths

    # -- install / remove --------------------------------------------------
    def install(self) -> None:
        hooks = {"majorant.lin_lc_majorant": self._count_hull,
                 "majorant.lc_majorant": self._count_hull,
                 "selfnorm.selfnorm_bound_check": self._count_paths}
        for name, layer, sites in SPANS:
            self._nid(name, layer)
            for path, attr in sites:
                owner = _resolve(path)
                self._patch(owner, attr,
                            self._span_wrapper(name, getattr(owner, attr), hooks.get(name)))
        for name, layer, path in CP_SPANS:
            self._nid(name, layer)
            owner = _resolve(path)
            ppf = self._span_wrapper(name, owner.beta_dist.ppf)
            self._patch(owner, "beta_dist", SimpleNamespace(ppf=ppf))
        for key, sites in COUNTED:
            for path, attr in sites:
                owner = _resolve(path)
                self._patch(owner, attr, self._count_wrapper(key, getattr(owner, attr)))
        bounds = _resolve("asymtail.bounds")
        carrier_sum = bounds.carrier_sum

        def counted_carrier(p, n, s_m):
            d = carrier_sum(p, n, s_m)
            self.carrier_atoms += d.n_atoms
            self.carrier_slots += n + 1
            return d
        self._patch(bounds, "carrier_sum", counted_carrier)

    def remove(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return {"name": np.frombuffer(self.name_id, dtype=np.int32), "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int32),
                "err": np.frombuffer(self.err, dtype=np.int32),
                "start": start, "dur": dur, "self": dur - covered}

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) and self seconds."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        busy = np.bincount(a["name"], weights=a["dur"], minlength=k)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=k)
        return {name: {"layer": self.layers[i], "calls": int(calls[i]),
                       "busy_s": float(busy[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def escaped_errors(self, layer: str) -> Counter:
        """Exceptions leaving the outermost span of `layer`, by type."""
        a = self.arrays()
        layer_of = np.array([lay == layer for lay in self.layers])
        in_layer = layer_of[a["name"]]
        parent_in_layer = np.zeros_like(in_layer)
        has_parent = a["parent"] >= 0
        parent_in_layer[has_parent] = in_layer[a["parent"][has_parent]]
        hit = in_layer & ~parent_in_layer & (a["err"] > 0)
        return Counter(self.errors[e] for e in a["err"][hit])

    def write(self, path) -> None:
        a = self.arrays()
        t0 = float(a["start"][0]) if len(a["start"]) else 0.0
        with open(path, "w") as fh:
            json.dump({"names": self.names, "layers": self.layers, "errors": self.errors,
                       "columns": ["name", "parent", "op", "err", "start_s", "dur_s"]}, fh)
            fh.write("\n")
            for row in zip(a["name"].tolist(), a["parent"].tolist(), a["op"].tolist(),
                           a["err"].tolist(), (a["start"] - t0).tolist(), a["dur"].tolist()):
                fh.write(json.dumps(row))
                fh.write("\n")
