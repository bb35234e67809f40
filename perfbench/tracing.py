"""Spans around critenum's layer boundaries, recorded from outside the package.

critenum's modules import their collaborators by name (``from .patterns
import free_after_extension``), so a call is intercepted by replacing the
name in the module that looks it up, not in the module that defines it.
:data:`PATCHES` lists every such name and the span it records.

A span is ``(span_id, parent_id, trace_id, name, start_ns, end_ns)``; spans
stay in memory until the caller writes them out.  Start and end are read
from the speed probe's program clock, so the speed samples taken during a
traced phase (``speed.py``) are not counted in any span, and
:func:`layer_metrics` converts span times to reference seconds with the
phase's speed factor.  Only the calling process is traced: no workload runs
critenum's process pool.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable


def _note_pass(tracer, args, result):
    tracer.counts["patterns.free_after_extension.pass"] += bool(result)


def _note_refuted(tracer, args, result):
    tracer.counts["coloring.is_k_colorable.refuted"] += result is None


def _note_obligation(tracer, args, result):
    tracer.counts["critical.find_obligations.hit"] += bool(result)
    tracer.counts["critical.masks"] += 1 << args[0].n


# (module that looks the name up, attribute, span name, outcome recorder)
PATCHES = (
    ("critenum.enumeration", "enumerate_5vc", "enumeration.enumerate_5vc", None),
    ("critenum.enumeration", "recursively_enumerate", "enumeration.recursively_enumerate", None),
    ("critenum.enumeration", "free_after_extension", "patterns.free_after_extension", _note_pass),
    ("critenum.enumeration", "is_family_free", "patterns.is_family_free", None),
    ("critenum.enumeration", "canonical_form", "canon.canonical_form", None),
    ("critenum.enumeration", "sort_graphs", "canon.sort_graphs", None),
    ("critenum.enumeration", "is_k_colorable", "coloring.is_k_colorable", _note_refuted),
    ("critenum.enumeration", "find_obligations", "critical.find_obligations", _note_obligation),
    ("critenum.critical", "is_k_vertex_critical", "critical.is_k_vertex_critical", None),
    ("critenum.critical", "is_k_colorable", "coloring.is_k_colorable", _note_refuted),
    ("critenum.certify", "certify_4_colorability", "certify.certify_4_colorability", None),
    ("critenum.certify", "is_family_free", "patterns.is_family_free", None),
    ("critenum.certify", "is_k_colorable", "coloring.is_k_colorable", _note_refuted),
    ("critenum.certify", "canonical_form", "canon.canonical_form", None),
    ("critenum.certify", "find_induced", "patterns.find_induced", None),
    ("critenum.graph6", "write_graph6_file", "graph6.write_graph6_file", None),
)


class Traced:
    """A stand-in for one looked-up name that records a span per call."""

    def __init__(self, tracer: "Tracer", fn, name: str, note=None):
        self.tracer = tracer
        self.fn = fn
        self.name = name
        self.note = note

    def __call__(self, *args, **kwargs):
        t = self.tracer
        sid = t.next_id
        t.next_id += 1
        parent = t.stack[-1]
        t.stack.append(sid)
        start = t.clock()
        try:
            result = self.fn(*args, **kwargs)
        finally:
            end = t.clock()
            t.stack.pop()
            t.spans.append((sid, parent, t.trace_id, self.name, start, end))
        if self.note is not None:
            self.note(t, args, result)
        return result


class Tracer:
    """In-memory spans and outcome counts for one traced phase, timed by ``clock``."""

    def __init__(self, clock: Callable[[], int]):
        self.clock = clock
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.stack = [0]
        self.next_id = 1
        self.trace_id = 0

    @contextmanager
    def recording_phase(self, trace_id: int):
        """Patch every name in :data:`PATCHES`, record, then restore them."""
        self.spans = []
        self.counts = Counter()
        self.trace_id = trace_id
        saved = []
        for modname, attr, name, note in PATCHES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, Traced(self, fn, name, note))
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers are not counted twice.
        """
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, _, name, start, end in self.spans:
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += (end - start) / 1e9
            t["self_s"] += (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["span", "parent", "trace", "name",
                                            "start_ns", "end_ns"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Levels:
    """The public ``progress`` callback: frontier size and arrival time per level."""

    def __init__(self, clock: Callable[[], int]):
        self.clock = clock
        self.events: list[tuple[int, int, int]] = []

    def __call__(self, order: int, count: int) -> None:
        self.events.append((order, count, self.clock()))


LAYERS = ("enumeration", "patterns", "canon", "coloring", "critical", "certify", "graph6")
ORDERS = range(5, 12)  # orders reported per level, over every workload


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, phase, read_s: float, result=None,
                  levels: Levels | None = None, certs=None) -> dict[str, float]:
    """Every per-layer metric of one traced phase; 0 where a layer did not run.

    ``phase`` holds the speed samples taken while it ran: layer totals are
    scaled by its factor, and a level by the samples around it.  ``result``
    is the phase's ``EnumerationResult`` (None if it raised), ``levels`` its
    progress callback and ``certs`` the certificates of a certify pass, in
    host order (trace id i + 1 is host i).  ``read_s`` is the list read of
    the set-up, in reference seconds.
    """
    tot = tracer.totals()
    for t in tot.values():
        t["s"] *= phase.factor
        t["self_s"] *= phase.factor
    cnt = tracer.counts

    def calls(name: str) -> int:
        return tot.get(name, {}).get("calls", 0)

    def secs(name: str, key: str = "s") -> float:
        return tot.get(name, {}).get(key, 0.0)

    m: dict[str, float] = {}
    fae = "patterns.free_after_extension"
    m[f"{fae}.calls"] = calls(fae)
    m[f"{fae}.s"] = secs(fae)
    m[f"{fae}.pass_ratio"] = _ratio(cnt[f"{fae}.pass"], calls(fae))
    cf = "canon.canonical_form"
    nodes = result.nodes_visited if result is not None else 0
    m[f"{cf}.calls"] = calls(cf)
    m[f"{cf}.s"] = secs(cf)
    m["canon.new_ratio"] = _ratio(nodes, calls(cf))
    col = "coloring.is_k_colorable"
    m[f"{col}.calls"] = calls(col)
    m[f"{col}.s"] = secs(col)
    m[f"{col}.refuted_ratio"] = _ratio(cnt[f"{col}.refuted"], calls(col))
    ob = "critical.find_obligations"
    m[f"{ob}.calls"] = calls(ob)
    m[f"{ob}.s"] = secs(ob)
    m[f"{ob}.hit_ratio"] = _ratio(cnt[f"{ob}.hit"], calls(ob))
    # Share of the 2^n candidate masks per expansion never tested for freeness.
    masks = cnt["critical.masks"]
    m["critical.masks_pruned_ratio"] = 1 - calls(fae) / masks if masks else 0.0
    rec = "enumeration.recursively_enumerate"
    m["enumeration.nodes_visited"] = nodes
    m["enumeration.emitted"] = len(result.graphs) if result is not None else 0
    m[f"{rec}.calls"] = calls(rec)
    m[f"{rec}.s"] = secs(rec)
    frontier = dict.fromkeys(ORDERS, 0)
    level_s = dict.fromkeys(ORDERS, 0.0)
    if levels is not None:
        # A level runs from the previous callback, or from the start of the
        # recursively_enumerate call (one per seed) that reports it.
        starts = [sp[4] for sp in tracer.spans if sp[3] == rec]
        prev = 0
        for order, count, t in levels.events:
            begin = max([prev] + [st for st in starts if st <= t])
            frontier[order] = frontier.get(order, 0) + count
            level_s[order] = (level_s.get(order, 0.0)
                              + (t - begin) / 1e9 * phase.factor_near(begin, t))
            prev = t
    for n in ORDERS:
        m[f"enumeration.frontier.n{n}"] = frontier[n]
        m[f"enumeration.level_s.n{n}"] = level_s[n]
    for name in ("patterns.is_family_free", "patterns.find_induced"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    scans = witnesses = 0
    if certs is not None:
        witness_traces = {i + 1 for i, c in enumerate(certs)
                          if not isinstance(c, Exception) and c.witness is not None}
        witnesses = len(witness_traces)
        scans = sum(1 for sp in tracer.spans
                    if sp[3] == "patterns.find_induced" and sp[2] in witness_traces)
    m["certify.witness_scan_len"] = _ratio(scans, witnesses)
    cer = "certify.certify_4_colorability"
    m[f"{cer}.calls"] = calls(cer)
    m[f"{cer}.s"] = secs(cer)
    m[f"{cer}.self_s"] = secs(cer, "self_s")
    m["graph6.read_graph6_file.s"] = read_s
    m["graph6.write_graph6_file.s"] = secs("graph6.write_graph6_file")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((t["self_s"] for name, t in tot.items()
                                    if name.split(".")[0] == layer), 0.0)
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(("_s", ".s")) or ".level_s." in metric:
        return "s"
    return "count"
