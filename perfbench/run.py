"""critenum benchmark: enumerate and certify workloads, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload enum-k13p1-c10 --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb`` and the certify latencies); with ``--trace 1`` they are the
per-layer ones, taken from spans recorded around critenum's layer
boundaries (see ``tracing.py``), plus the tracing overhead.

Every workload runs the same three phases:

* set-up: import critenum, parse the family, load the recorded critical
  list, and generate seeded certify hosts from it;
* the timed phase, repeated until ``--seconds`` have passed: an
  enumeration (``enumerate_5vc`` until the sorted graph6 list is written)
  or one pass of ``certify_4_colorability`` over the hosts;
* certification of the hosts, each host timed on its own.  An enumeration
  workload certifies against the list it has just produced.

All times are in seconds at a reference machine speed, sampled while they
run (see ``speed.py``); traced phases are sampled too.  Outputs are checked
after they are timed; a failed check or an exception counts as a failed
operation.  The benchmark calls only critenum's public API and changes
nothing inside the package.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3  # set-ups per run: this process, then fresh interpreters
CERTIFY_PASSES = 2  # certify passes over the hosts per run, at least
HOST_ORDERS = (11, 16)


@dataclass(frozen=True)
class Workload:
    name: str
    h: str                # the pattern forbidden next to P5
    cap: int              # order cap of the critical list
    list_file: str        # the recorded list, under data/
    sha256: str           # of that list's graph6 bytes
    counts: dict          # published per-order counts of the list
    colorable: int        # certify hosts that get a coloring
    non_colorable: int    # certify hosts that get a witness
    enumerate: bool = True


K13P1_C10 = dict(
    h="k1,3+p1", cap=10, list_file="k13p1-c10.g6",
    sha256="8f37ead919b5569c8d482a0845bb83974d1af6a483af6461722d9d61ad2baed9",
    counts={5: 1, 7: 1, 8: 7, 9: 198, 10: 16},
)
COK32P1_C11 = dict(
    h="co(k3+2p1)", cap=11, list_file="cok32p1-c11.g6",
    sha256="49c0b5c7465fe826fbb20001bbc3d05c00fd07440bfe30575e8cd62a40f1901c",
    counts={5: 1, 7: 1, 8: 6, 9: 180, 10: 2, 11: 5},
)

WORKLOADS = {w.name: w for w in (
    Workload("enum-k13p1-c10", colorable=1000, non_colorable=200, **K13P1_C10),
    Workload("enum-cok32p1-c11", colorable=800, non_colorable=102, **COK32P1_C11),
    Workload("certify-k13p1", colorable=1000, non_colorable=200, enumerate=False, **K13P1_C10),
)}


# --------------------------------------------------------------------- set-up

@dataclass
class Setup:
    lib: dict             # critenum modules by short name
    family: tuple
    critical_list: list
    hosts: list
    probe: speed.SpeedProbe
    read_s: float         # reading the list file, in reference seconds
    seconds: float        # the whole set-up, in reference seconds


def import_critenum() -> dict:
    """critenum's modules, imported from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("critenum")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import critenum from {src}: {exc}")
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: critenum imported from {pkg.__file__}, not {src}")
    names = ("canon", "certify", "coloring", "critical", "enumeration", "graph6", "graphs",
             "patterns")
    return {n: importlib.import_module(f"critenum.{n}") for n in names}


def setup(w: Workload, seed: int) -> Setup:
    probe = speed.SpeedProbe()
    with probe.sampling() as phase:
        t0 = probe.clock_ns()
        lib = import_critenum()
        import hosts as host_gen  # imports critenum, so only once src/ is on the path

        family = (lib["patterns"].parse_pattern("p5"), lib["patterns"].parse_pattern(w.h))
        path = HERE / "data" / w.list_file
        if hashlib.sha256(path.read_bytes()).hexdigest() != w.sha256:
            raise SystemExit(f"perfbench: {path} does not match its recorded sha256")
        t_read = probe.clock_ns()
        critical_list = lib["graph6"].read_graph6_file(str(path))
        read_s = (probe.clock_ns() - t_read) / 1e9
        hosts = host_gen.make_hosts(seed, critical_list, family, w.colorable, w.non_colorable,
                                    *HOST_ORDERS)
        seconds = (probe.clock_ns() - t0) / 1e9
    return Setup(lib, family, critical_list, hosts, probe, read_s * phase.factor,
                 seconds * phase.factor)


def setup_in_children(w: Workload, seed: int, n: int) -> list[float]:
    """Set-up times of ``n`` fresh interpreters, so imports are paid again.

    They run side by side, one per core on the 2-vCPU machine the baseline
    comes from, so a run pays one set-up's time for them; each child
    calibrates its own time by its own speed samples.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              cwd=ROOT) for _ in range(n)]
    try:
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for p, (out, err) in zip(procs, outs):
        if p.returncode != 0:
            raise SystemExit(f"perfbench: set-up child failed: {err.strip()}")
    return [json.loads(out.strip().splitlines()[-1])["setup_s"] for out, _ in outs]


# ------------------------------------------------------------ checks (gates)

def check_enumeration(w: Workload, s: Setup, result, out_bytes: bytes) -> list[str]:
    """Why an enumeration's output is wrong; empty when it is right.

    Counts and the graph6 bytes are compared with the recorded list, and
    every emitted graph is re-verified independently of the search.
    ``nodes_visited`` is not gated: sound pruning may change it.  ``result``
    is the exception when the enumeration raised.
    """
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    lib = s.lib
    problems = []
    if result.per_order_counts != w.counts:
        problems.append(f"per-order counts {result.per_order_counts} != {w.counts}")
    if hashlib.sha256(out_bytes).hexdigest() != w.sha256:
        problems.append("graph6 output differs from the recorded list")
    forms = set()
    for g in result.graphs:
        g6 = lib["graph6"].encode_graph6(g)
        if not lib["patterns"].is_family_free(g, s.family):
            problems.append(f"emitted graph {g6} is not family-free")
        if not lib["critical"].is_k_vertex_critical(g, 5).is_vertex_critical:
            problems.append(f"emitted graph {g6} is not 5-vertex-critical")
        forms.add(lib["canon"].canonical_form(g))
    if len(forms) != len(result.graphs):
        problems.append("emitted graphs are not pairwise non-isomorphic")
    return problems


def check_certificate(lib: dict, host, cert, critical_list) -> str | None:
    """Why a certificate is wrong, or None when it proves the right outcome."""
    if isinstance(cert, Exception):
        return f"raised {type(cert).__name__}: {cert}"
    g = host.graph
    if host.colorable:
        c = cert.coloring
        if c is None:
            return "colorable host got a witness"
        if c.colors_used > 4 or not c.is_proper_for(g):
            return "coloring is not a proper 4-coloring"
        return None
    wit = cert.witness
    if wit is None:
        return "non-colorable host got a coloring"
    if not 0 <= wit.list_index < len(critical_list):
        return "witness list index out of range"
    member = critical_list[wit.list_index]
    if not lib["patterns"].embedding_is_induced(g, member, wit.embedding):
        return "witness embedding is not induced"
    if wit.vertices != lib["graphs"].mask_of(wit.embedding.map):
        return "witness vertex set does not match its embedding"
    if not lib["canon"].are_isomorphic(lib["graphs"].induced_subgraph(g, wit.vertices), member):
        return "witness subgraph is not isomorphic to its list member"
    return None


# --------------------------------------------------------------- timed phases
#
# Durations below are program seconds (``SpeedProbe.clock_ns``); the caller
# converts them to reference seconds with the factor of the phase they ran in.

def enumerate_once(w: Workload, s: Setup, progress=None):
    """The timed enumeration: from the call until the sorted list is written.

    An exception takes the place of the result, and the output is then empty.
    """
    out = OUT / f"{w.name}.g6"
    t0 = s.probe.clock_ns()
    try:
        result = s.lib["enumeration"].enumerate_5vc(s.family[1], max_order=w.cap,
                                                    progress=progress)
        s.lib["graph6"].write_graph6_file(out, result.graphs)
        out_bytes = out.read_bytes()
    except Exception as exc:  # counted as a failed operation by the caller
        result, out_bytes = exc, b""
    return (s.probe.clock_ns() - t0) / 1e9, result, out_bytes


def certify_pass(s: Setup, critical_list, tracer=None):
    """One pass over the hosts: its duration, per-host (start, end) on the
    program clock, and certificates.

    A host that raises keeps the exception in place of its certificate.
    """
    certify = s.lib["certify"]
    clock = s.probe.clock_ns
    spans, certs = [], []
    t0 = clock()
    for i, host in enumerate(s.hosts):
        if tracer is not None:
            tracer.trace_id = i + 1
        a = clock()
        try:
            cert = certify.certify_4_colorability(host.graph, critical_list, s.family)
        except Exception as exc:  # counted as a failed operation by the caller
            cert = exc
        spans.append((a, clock()))
        certs.append(cert)
    return (clock() - t0) / 1e9, spans, certs


def failed_certificates(s: Setup, critical_list, certs) -> int:
    failed = 0
    for i, (host, cert) in enumerate(zip(s.hosts, certs)):
        try:
            why = check_certificate(s.lib, host, cert, critical_list)
        except Exception as exc:  # a malformed certificate
            why = f"checking raised {type(exc).__name__}: {exc}"
        if why is not None:
            failed += 1
            print(f"perfbench: host {i}: {why}", file=sys.stderr)
    return failed


def latency_metrics(hosts, passes: list[list[float]]) -> dict:
    """Median and p95 over hosts of per-host latency, split by the outcome
    a host was built for.

    A host's latency is its fastest pass: the machine's speed changes from
    one 10 ms to the next, which the calibration around a host only partly
    corrects, and a slow moment only ever adds time.  The two
    outcomes are two orders of magnitude apart, so one pooled median would
    jump between them from run to run.
    """
    per_host = [min(col) / 1e6 for col in zip(*passes)]
    out = {}
    for label, colorable in (("coloring", True), ("witness", False)):
        v = [ms for ms, h in zip(per_host, hosts) if h.colorable == colorable]
        out[f"certify_{label}_p50_ms"] = statistics.median(v)
        out[f"certify_{label}_p95_ms"] = statistics.quantiles(v, n=20, method="inclusive")[18]
    return out


@dataclass
class Run:
    walls: list = field(default_factory=list)         # untraced timed phases, reference s
    raw_walls: list = field(default_factory=list)     # the same, program s
    traced_walls: list = field(default_factory=list)  # traced timed phases, reference s
    layers: list = field(default_factory=list)        # per-layer metrics per traced phase
    lat_passes: list = field(default_factory=list)    # per-host reference ns, untraced passes
    attempted: int = 0
    failed: int = 0


def run_workload(w: Workload, s: Setup, seconds: float, tracer=None) -> Run:
    """Repeat the timed phase until ``seconds`` pass, and certify the hosts
    at least ``CERTIFY_PASSES`` times.

    An enumeration workload certifies its hosts against the list it has
    just produced (the recorded list, if the enumeration raised), one pass
    after each repetition, and an untraced run then makes as many passes as
    are still missing.  With a tracer, untraced and traced repetitions
    alternate, so the overhead is measured on the same machine state.  Both
    kinds are speed-sampled; the spans are timed on the probe's clock, which
    leaves the sampling out.
    """
    run = Run()
    probe = s.probe

    @contextmanager
    def timed(traced, trace_id):
        with probe.sampling() as phase:
            if traced:
                with traced.recording_phase(trace_id):
                    yield phase
            else:
                yield phase

    def record(traced, wall, phase):
        if traced:
            run.traced_walls.append(wall * phase.factor)
        else:
            run.raw_walls.append(wall)
            run.walls.append(wall * phase.factor)

    def certify_hosts(critical_list, traced=None):
        with timed(traced, 1) as phase:
            wall, spans, certs = certify_pass(s, critical_list, traced)
        run.attempted += len(certs)
        run.failed += failed_certificates(s, critical_list, certs)
        if not traced:
            run.lat_passes.append([(b - a) * phase.factor_near(a, b) for a, b in spans])
        return wall, phase, certs

    produced = s.critical_list  # the list the hosts are certified against
    t_start = probe.clock_ns()
    rep = 0

    def more() -> bool:
        if rep == 0 or (probe.clock_ns() - t_start) / 1e9 < seconds:
            return True
        return tracer is not None and rep < 2  # one untraced and one traced repetition

    while more():
        traced = tracer if tracer is not None and rep % 2 == 1 else None
        if w.enumerate:
            levels = tracing.Levels(probe.clock_ns) if traced else None
            with timed(traced, rep + 1) as phase:
                wall, result, out_bytes = enumerate_once(w, s, levels)
            failed = isinstance(result, Exception)
            problems = check_enumeration(w, s, result, out_bytes)
            for p in problems:
                print(f"perfbench: {w.name}: {p}", file=sys.stderr)
            run.attempted += 1
            run.failed += bool(problems)
            record(traced, wall, phase)
            if traced:
                run.layers.append(tracing.layer_metrics(tracer, phase, s.read_s,
                                                        result=None if failed else result,
                                                        levels=levels))
            produced = s.critical_list if failed else result.graphs
            certify_hosts(produced)
        else:
            wall, phase, certs = certify_hosts(produced, traced=traced)
            record(traced, wall, phase)
            if traced:
                run.layers.append(tracing.layer_metrics(tracer, phase, s.read_s, certs=certs))
        rep += 1
    while tracer is None and len(run.lat_passes) < CERTIFY_PASSES:
        certify_hosts(produced)
    return run


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "certify_coloring_p50_ms": "ms", "certify_coloring_p95_ms": "ms",
             "certify_witness_p50_ms": "ms", "certify_witness_p95_ms": "ms"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    s = setup(w, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": s.seconds}))
        return 0
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(s.probe.clock_ns) if args.trace else None
    run = run_workload(w, s, args.seconds, tracer)
    print(f"perfbench: raw wall_s {statistics.median(run.raw_walls)!r}"
          " (program seconds, not speed-calibrated)", file=sys.stderr)
    if tracer is not None:
        metrics = {k: statistics.median(m[k] for m in run.layers) for k in run.layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(run.traced_walls)
                                       - statistics.median(run.walls))
        tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        metrics = {"peak_rss_mb": peak_rss_mb()}  # before the set-up children run
        setups = [s.seconds] + setup_in_children(w, args.seed, SETUP_SAMPLES - 1)
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = statistics.median(run.walls)
        metrics.update(latency_metrics(s.hosts, run.lat_passes))
        units = E2E_UNITS
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
