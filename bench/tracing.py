"""Per-layer tracing of permatch from outside the package.

A Tracer wraps listed public functions and methods of permatch. A function
is replaced in its defining module and in every permatch module that bound
it by name (``from .perms import subgroup_search`` makes a second name), so
calls through any name are seen. ``restore`` puts every original back.

Each wrapped call records a span ``(name, start, end, parent, question)``,
kept in memory. Self time is a span's duration minus the time covered by
its child spans; everything runs on one thread, so layers only ever hold
busy time, never waiting time. ``Perm.__mul__`` runs millions of times, so
it is counted without a span.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (name, defining module, attribute path) of every spanned call.
SPANNED = (
    ("perms.PermGroup", "permatch.perms", "PermGroup.__init__"),
    ("perms.PermGroup.rebase", "permatch.perms", "PermGroup.rebase"),
    ("perms.subgroup_search", "permatch.perms", "subgroup_search"),
    ("perms.PermGroup.setwise_stabilizer", "permatch.perms", "PermGroup.setwise_stabilizer"),
    ("perms.induced_action", "permatch.perms", "induced_action"),
    ("perms.is_2transitive", "permatch.perms", "is_2transitive"),
    ("autiso.automorphism_group", "permatch.autiso", "automorphism_group"),
    ("autiso.canonical_graph6", "permatch.autiso", "canonical_graph6"),
    ("graphs.Graph.is_automorphism", "permatch.graphs", "Graph.is_automorphism"),
    ("matchings.find_matching", "permatch.matchings", "find_matching"),
    ("matchings.matching_stabilizer", "permatch.matchings", "matching_stabilizer"),
    ("matchings.matching_report", "permatch.matchings", "matching_report"),
    ("classify.enumerate_connected", "permatch.classify", "enumerate_connected"),
    ("classify.perfect_matchings", "permatch.classify", "perfect_matchings"),
    ("classify.classify_perfect_matchings", "permatch.classify", "classify_perfect_matchings"),
    ("voltage.derived_cover", "permatch.voltage", "derived_cover"),
    ("voltage.lift_automorphism", "permatch.voltage", "lift_automorphism"),
    ("voltage.lift_group", "permatch.voltage", "lift_group"),
    ("voltage.cycle_system_matching", "permatch.voltage", "cycle_system_matching"),
    ("polygonal.near_polygonal_certificate", "permatch.polygonal", "near_polygonal_certificate"),
    ("cli.main", "permatch.cli", "main"),
)

# Counts taken from results, not from spans.
COUNTED = (
    "perms.Perm.mul.calls",
    "autiso.automorphism_group.generators",
    "matchings.find_matching.found_ratio",
    "classify.enumerate_connected.classes",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for name, _, _ in SPANNED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in COUNTED:
        units[name] = "ratio" if name.endswith("_ratio") else "count"
    units["trace.overhead"] = "ratio"
    return units


def _permatch_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "permatch" or name.startswith("permatch."))]


class Tracer:
    """Install with ``install()``, always undo with ``restore()``."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.question: str | None = None
        self.mul_calls = 0
        self.generators = 0
        self.found = 0
        self.classes = 0
        self.missing: list[str] = []  # listed names the package no longer has
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch(self, module_name: str, path: str, wrapper) -> None:
        module = sys.modules.get(module_name)
        if "." in path:  # a method: one class attribute serves every caller
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            method = vars(cls).get(attr) if isinstance(cls, type) else None
            if method is None:
                self.missing.append(path)
            else:
                self._replace(cls, attr, wrapper(method))
            return
        original = getattr(module, path, None)
        if original is None:
            self.missing.append(path)
            return
        traced = wrapper(original)
        for mod in _permatch_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, traced)

    def install(self) -> None:
        """Wrap every listed name; a name the package no longer has is
        recorded in ``missing`` and reports no calls."""
        import permatch  # noqa: F401  (loads the library modules)
        import permatch.cli  # noqa: F401

        on_result = {
            "autiso.automorphism_group": self._count_generators,
            "matchings.find_matching": self._count_found,
            "classify.enumerate_connected": self._count_classes,
        }
        try:
            for name, module_name, path in SPANNED:
                self._patch(module_name, path,
                            functools.partial(self._spanned, name, on_result.get(name)))
            self._patch("permatch.perms", "Perm.__mul__", self._counted_mul)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, on_result, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.question)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted_mul(self, fn):
        @functools.wraps(fn)
        def counted(a, b):
            self.mul_calls += 1
            return fn(a, b)

        return counted

    def _count_generators(self, group) -> None:
        self.generators += len(group.generators)

    def _count_found(self, witness) -> None:
        self.found += witness is not None

    def _count_classes(self, reps) -> None:
        self.classes += len(reps)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per spanned name, plus the result counts."""
        out: dict[str, float] = {}
        for name, _, _ in SPANNED:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for span, own in zip(self.spans, self.self_times()):
            out[span[0] + ".calls"] += 1
            out[span[0] + ".self_s"] += own
        finds = out["matchings.find_matching.calls"]
        out["perms.Perm.mul.calls"] = self.mul_calls
        out["autiso.automorphism_group.generators"] = self.generators
        out["matchings.find_matching.found_ratio"] = self.found / finds if finds else 0.0
        out["classify.enumerate_connected.classes"] = self.classes
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "question"],
                       "spans": self.spans}, fh)
