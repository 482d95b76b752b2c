"""Span tracing for the benchmark's traced run.

The library is measured from outside: every public function named in
:data:`TARGETS` is replaced, at every module binding it is reachable under,
by a wrapper that records one span (name, start, end, parent span, op id).
Counts are recorded by the same wrappers, at the same boundaries. Spans stay
in memory as parallel lists until the run ends; :func:`self_times` then
turns them into per-span self time (span time minus the time its child spans
cover) and :func:`summarize` aggregates them per metric and per layer.

Nothing here is installed unless :meth:`Tracer.install` is called, so the
untraced run executes the library unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: The seven layers, one per library module, in report order.
LAYERS = ("dist", "lattice", "redundancy", "sid", "engine", "systems", "cli")


def _count_outcomes(factor):
    def hook(counts, args, result, exc):
        counts["dist.outcomes_scanned"] += factor * len(args[0].support)

    return hook


def _count_entropy_exact(counts, args, result, exc):
    counts["dist.outcomes_scanned"] += len(args[0].support)
    counts["dist.entropy_exact.calls"] += 1
    counts["dist.entropy_exact.hits"] += result is not None


def _count_constraints(counts, args, result, exc):
    if result is not None:
        counts["engine.constraints"] += len(result.constraints)


def _count_status(counts, args, result, exc):
    if isinstance(exc, RuntimeError):
        counts["engine.nonconverged"] += 1
    elif result is not None:
        counts[f"engine.status.{result.status}"] += 1


def _count_replay(counts, args, result, exc):
    counts["engine.replay.accepted"] += result is True


def _count_subsets(counts, args, result, exc):
    if result is not None:
        counts["systems.scan.subsets"] += result.subsets_checked


#: (metric name, module, attribute, count hook). An attribute with a dot is
#: a method looked up on a class; several functions may share one metric.
TARGETS = (
    ("dist.from_pmf", "infodecomp.dist", "JointDistribution.from_pmf", None),
    ("dist.from_circuit", "infodecomp.dist", "from_circuit", None),
    ("dist.measure", "infodecomp.dist", "JointDistribution.entropy", _count_outcomes(1)),
    ("dist.measure", "infodecomp.dist", "JointDistribution.entropy_exact", _count_entropy_exact),
    ("dist.measure", "infodecomp.dist", "JointDistribution.conditional_entropy", None),
    ("dist.measure", "infodecomp.dist", "JointDistribution.mutual_information", None),
    ("dist.measure", "infodecomp.dist", "JointDistribution.mutual_information_exact", None),
    ("dist.support_check", "infodecomp.dist", "JointDistribution.is_deterministic", _count_outcomes(1)),
    ("dist.support_check", "infodecomp.dist", "JointDistribution.is_independent", _count_outcomes(3)),
    ("lattice.enumerate", "infodecomp.lattice", "enumerate_full", None),
    ("lattice.enumerate", "infodecomp.lattice", "enumerate_half", None),
    ("lattice.leq", "infodecomp.lattice", "leq", None),
    ("lattice.leq", "infodecomp.lattice", "AntichainLattice.leq", None),
    ("lattice.downset", "infodecomp.lattice", "AntichainLattice.downset", None),
    ("redundancy.common_partition", "infodecomp.redundancy", "common_partition", None),
    ("sid.entropy_vector", "infodecomp.sid", "EntropyVector.from_distribution", None),
    ("sid.validate", "infodecomp.sid", "EntropyVector.validate", None),
    ("sid.si_atoms", "infodecomp.sid", "si_atoms", None),
    ("sid.decompose", "infodecomp.sid", "decompose", None),
    ("sid.verify_linear_system", "infodecomp.sid", "verify_linear_system", None),
    ("sid.exact_rank", "infodecomp.sid", "exact_rank", None),
    ("sid.check_sum_rules", "infodecomp.sid", "check_sum_rules", None),
    ("engine.build_constraints", "infodecomp.engine", "build_constraints", _count_constraints),
    ("engine.propagate", "infodecomp.engine", "propagate", _count_status),
    ("engine.wesp_report", "infodecomp.engine", "wesp_report", None),
    ("engine.replay", "infodecomp.engine", "replay_certificate", _count_replay),
    ("systems.derive_tables", "infodecomp.systems", "derive_system1_table", None),
    ("systems.derive_tables", "infodecomp.systems", "derive_system2_table", None),
    ("systems.verify_matching_tables", "infodecomp.systems", "verify_matching_tables", None),
    ("systems.scan", "infodecomp.systems", "scan_universal_subsets", _count_subsets),
    ("systems.run_all_checks", "infodecomp.systems", "run_all_checks", None),
    ("cli.main", "infodecomp.cli", "main", None),
)

#: Distinct metric names, in TARGETS order.
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))


class Tracer:
    """Records spans of wrapped library calls; one tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn, hook):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if hook is not None:
                    hook(counts, args, None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, args, result, None)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every target at every module binding that holds it. The
        bindings are found on the first call; later calls only re-patch."""
        if not self._bindings:
            self._bindings = list(self._find_bindings())
        for owner, key, _, replacement in self._bindings:
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, key, original, _ in reversed(self._bindings):
            setattr(owner, key, original)

    def _find_bindings(self):
        """(owner, attribute, original, wrapper) for every patch site."""
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    yield owner, method, raw, classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    yield owner, method, raw, self._wrap(name, raw, hook)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        yield loaded, key, original, wrapped

    def write(self, path) -> None:
        """Write the spans as tab-separated rows, times in ns from the first."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            spans = zip(self.names, self.starts, self.ends, self.parents, self.ops)
            for index, (name, start, end, parent, op) in enumerate(spans):
                fh.write(
                    f"{index}\t{op}\t{parent}\t{name}\t"
                    f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and merged before being
    subtracted, so overlapping or out-of-bounds children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """(value, unit) per metric: calls and self time per op for every layer
    and every span name, each layer's share of the total self time, and the
    counts the wrappers recorded, normalised per op or given as ratios."""
    per_self = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for name, duration in zip(tracer.names, per_self):
        calls[name] += 1
        self_s[name] += duration
    ops = max(ops, 1)
    total = sum(self_s.values()) or 1.0
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        members = [n for n in SPAN_NAMES if n.split(".")[0] == layer]
        layer_self = sum(self_s[n] for n in members)
        out[f"{layer}.calls"] = (sum(calls[n] for n in members) / ops, "calls/op")
        out[f"{layer}.self_ms"] = (layer_self * 1e3 / ops, "ms/op")
        out[f"{layer}.share"] = (layer_self / total, "ratio")
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3 / ops, "ms/op")

    counts = tracer.counts

    def ratio(numerator: str, denominator: float) -> float:
        return counts.get(numerator, 0) / denominator if denominator else 0.0

    out["dist.outcomes_scanned"] = (ratio("dist.outcomes_scanned", ops), "outcomes/op")
    out["dist.exact_hit_ratio"] = (
        ratio("dist.entropy_exact.hits", counts.get("dist.entropy_exact.calls", 0)), "ratio"
    )
    out["engine.constraints_per_system"] = (
        ratio("engine.constraints", calls["engine.build_constraints"]), "count"
    )
    for status in ("solved", "open", "contradiction"):
        out[f"engine.status.{status}"] = (ratio(f"engine.status.{status}", ops), "count/op")
    out["engine.nonconverged"] = (ratio("engine.nonconverged", ops), "count/op")
    out["engine.replay.accepted_ratio"] = (
        ratio("engine.replay.accepted", calls["engine.replay"]), "ratio"
    )
    checks = calls["systems.run_all_checks"]
    nested = _calls_under(tracer, "systems.verify_matching_tables", "systems.run_all_checks")
    out["systems.verify_matching_tables.per_verify_paper"] = (
        nested / checks if checks else 0.0, "count"
    )
    out["systems.scan.subsets_per_s"] = (ratio("systems.scan.subsets", self_s["systems.scan"]), "1/s")
    return out


def _calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """How many spans called ``name`` have a span called ``ancestor`` above."""
    names, parents = tracer.names, tracer.parents
    found = 0
    for index, span_name in enumerate(names):
        if span_name != name:
            continue
        parent = parents[index]
        while parent >= 0 and names[parent] != ancestor:
            parent = parents[parent]
        found += parent >= 0
    return found
