"""Spans around netrobust's public functions, recorded from outside the package.

install() replaces each traced function by a wrapper under every name that
binds it in a netrobust module, so calls between modules are seen where they
cross (for example ``netrobust.experiments.connectivity_at_least`` and
``netrobust.generators.Graph``). The Graph class is wrapped only in the
modules that call it: ``netrobust.graph`` keeps the class itself, so
``Graph.__eq__`` and ``isinstance`` work even while tracing is on.
uninstall() puts every original back and proves that none is left wrapped.

Spans are kept in memory in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns


def _connectivity_label(args, kwargs) -> str:
    k = kwargs["k"] if "k" in kwargs else args[1]
    return "k2" if k == 2 else "k3plus" if k >= 3 else "k01"


# (module, attribute, how a call is labelled beyond module.attribute)
TARGETS = (
    ("robustness", "robustness", None),
    ("robustness", "is_r_robust", None),
    ("robustness", "find_relaxed_degree_cut", None),
    ("robustness", "check_subsets_reachable", None),
    ("connectivity", "connectivity_at_least", _connectivity_label),
    ("connectivity", "vertex_connectivity", None),
    ("graph", "Graph", None),
    ("generators", "graph_from_pair_mask", None),
    ("generators", "pair_uniforms", None),
    ("hardness", "build_g_phi", None),
    ("hardness", "build_g_rho_phi", None),
    ("hardness", "assignment_from_cut", None),
    ("dynamics", "run_consensus", None),
    ("dynamics", "wmsr_round", None),
    ("dynamics", "validate_f_local", None),
    ("dynamics", "cascade_step", None),
    ("dynamics", "run_cascade", None),
    ("dynamics", "cascade_trace", None),
    ("dynamics", "contagion_from_any_m", None),
    ("experiments", "run_er_sweep", None),
    ("io", "read_graph", None),
)

# The one span that also counts how often it returned something (a cut).
FOUND = "robustness.find_relaxed_degree_cut"

_MARK = "__netrobust_bench_span__"


def layer_metrics() -> list:
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for mod_name, attr, label in TARGETS:
        bases = [f"{mod_name}.{attr}"]
        if label is _connectivity_label:
            bases = [f"{bases[0]}.k2", f"{bases[0]}.k3plus"]
        for base in bases:
            out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
    out.append((f"{FOUND}.found_ratio", "ratio"))
    out += [("dynamics.validate_f_local.calls_per_round", "ratio"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Flat in-memory span store: one row per call of a wrapped function."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("q")
        self.end = array("q")
        self.found = 0  # FOUND calls that returned a cut
        self.item_id = -1  # set by the caller before each item
        self._open: list = []

    def call(self, name, fn, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self.item_id)
        self.start.append(0)
        self.end.append(0)
        self._open.append(idx)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._open.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if name == FOUND and result is not None:
            self.found += 1
        return result

    def calls(self) -> Counter:
        counts = Counter()
        for nid in self.name_id:
            counts[self.names[nid]] += 1
        return counts

    def self_seconds(self) -> dict:
        """Span time minus the time covered by its direct child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        total: dict = {}
        for nid, ns in zip(self.name_id, own):
            name = self.names[nid]
            total[name] = total.get(name, 0) + ns
        return {name: ns / 1e9 for name, ns in total.items()}

    def write(self, path) -> None:
        """One tab-separated row per span: id, parent, item, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id\tparent\titem\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.item[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "netrobust" or name.startswith("netrobust.")]


def _wrapper(tracer: Tracer, base: str, fn, label):
    if label is None:
        def wrapped(*args, **kwargs):
            return tracer.call(base, fn, args, kwargs)
    else:
        def wrapped(*args, **kwargs):
            return tracer.call(f"{base}.{label(args, kwargs)}", fn, args, kwargs)
    setattr(wrapped, _MARK, fn)
    return wrapped


def install(tracer: Tracer) -> list:
    """Wrap every target under every netrobust name bound to it. Returns
    the (module, attribute, original) bindings to restore."""
    restore = []
    for mod_name, _, _ in TARGETS:
        importlib.import_module("netrobust." + mod_name)
    modules = _package_modules()
    for mod_name, attr, label in TARGETS:
        original = getattr(sys.modules["netrobust." + mod_name], attr)
        wrapped = _wrapper(tracer, f"{mod_name}.{attr}", original, label)
        for module in modules:
            if attr == "Graph" and module.__name__ in ("netrobust", "netrobust.graph"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    restore.append((module, key, original))
    return restore


def uninstall(restore: list) -> None:
    """Put every original binding back, then fail if any wrapper survives."""
    for module, key, original in restore:
        setattr(module, key, original)
    left = [
        f"{module.__name__}.{key}"
        for module in _package_modules()
        for key, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")
