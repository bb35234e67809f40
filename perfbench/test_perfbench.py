"""Tests of the benchmark itself: a tiny run, and every correctness gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hosts  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from critenum import (  # noqa: E402
    Coloring,
    Graph,
    certify_4_colorability,
    complete,
    disjoint_union,
    encode_graph6,
    enumerate_5vc,
    induced_subgraph,
    parse_pattern,
    path,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CAP8_COUNTS = {5: 1, 7: 1, 8: 7}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The k1,3+p1 workload cut down to cap 8 and a dozen hosts."""
    d = tmp_path_factory.mktemp("tiny")
    lines = (HERE / "data" / "k13p1-c10.g6").read_bytes().splitlines(keepends=True)
    data = b"".join(lines[: sum(CAP8_COUNTS.values())])
    (d / "cap8.g6").write_bytes(data)
    w = dataclasses.replace(run.WORKLOADS["enum-k13p1-c10"], name="tiny", cap=8,
                            list_file=str(d / "cap8.g6"), counts=CAP8_COUNTS,
                            sha256=hashlib.sha256(data).hexdigest(),
                            colorable=8, non_colorable=4)
    return w, d


def _run_main(monkeypatch, capsys, tiny, trace: int) -> dict:
    w, d = tiny
    monkeypatch.setitem(run.WORKLOADS, "tiny", w)
    monkeypatch.setattr(run, "OUT", d)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)  # children would not know "tiny"
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(monkeypatch, capsys, tiny, trace, kind):
    out = _run_main(monkeypatch, capsys, tiny, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.fixture(scope="module")
def cap8(tiny):
    w, _ = tiny
    s = run.setup(w, seed=5)
    result = enumerate_5vc(parse_pattern("k1,3+p1"), max_order=8)
    out = "".join(encode_graph6(g) + "\n" for g in result.graphs).encode("ascii")
    return w, s, result, out


def test_enumeration_gate_passes_on_the_real_output(cap8):
    w, s, result, out = cap8
    assert run.check_enumeration(w, s, result, out) == []


def test_enumeration_gate_trips_on_a_wrong_count(cap8):
    w, s, result, out = cap8
    bad = dataclasses.replace(result, per_order_counts={**result.per_order_counts, 8: 6})
    assert any("per-order counts" in p for p in run.check_enumeration(w, s, bad, out))


def test_enumeration_gate_trips_on_changed_bytes(cap8):
    w, s, result, out = cap8
    assert any("graph6 output" in p for p in run.check_enumeration(w, s, result, out + b"\n"))


def test_enumeration_gate_trips_on_a_non_critical_graph(cap8):
    w, s, result, out = cap8
    k5_plus_p1 = disjoint_union(complete(5), Graph(1, (0,)))  # family-free, chi 5, not critical
    bad = dataclasses.replace(result, graphs=result.graphs[:-1] + [k5_plus_p1])
    assert any("not 5-vertex-critical" in p for p in run.check_enumeration(w, s, bad, out))


def test_enumeration_gate_trips_on_a_graph_that_is_not_family_free(cap8):
    w, s, result, out = cap8
    bad = dataclasses.replace(result, graphs=result.graphs[:-1] + [path(5)])
    assert any("not family-free" in p for p in run.check_enumeration(w, s, bad, out))


def test_an_enumeration_that_raises_is_a_failed_operation(monkeypatch, capsys, tiny):
    import critenum.enumeration

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(critenum.enumeration, "enumerate_5vc", boom)
    out = _run_main(monkeypatch, capsys, tiny, trace=0)
    assert out["correct"] is False and out["failed"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_enumeration_gate_trips_on_a_duplicate(cap8):
    w, s, result, out = cap8
    bad = dataclasses.replace(result, graphs=result.graphs[:-1] + [result.graphs[0]])
    assert any("non-isomorphic" in p for p in run.check_enumeration(w, s, bad, out))


def _certified(s, colorable: bool):
    host = next(h for h in s.hosts if h.colorable == colorable)
    return host, certify_4_colorability(host.graph, s.critical_list, s.family)


def test_certificate_gate_passes_on_real_certificates(cap8):
    _, s, _, _ = cap8
    for host in s.hosts:
        cert = certify_4_colorability(host.graph, s.critical_list, s.family)
        assert run.check_certificate(s.lib, host, cert, s.critical_list) is None


def test_certificate_gate_trips_on_a_recolored_vertex(cap8):
    _, s, _, _ = cap8
    host, cert = _certified(s, colorable=True)
    u, v = next(host.graph.edges())
    colors = list(cert.coloring.assignment)
    colors[u] = colors[v]
    bad = dataclasses.replace(cert, coloring=Coloring(tuple(colors), cert.coloring.colors_used))
    assert run.check_certificate(s.lib, host, bad, s.critical_list) is not None


def test_certificate_gate_trips_on_a_wrong_witness(cap8):
    _, s, _, _ = cap8
    host, cert = _certified(s, colorable=False)
    other = (cert.witness.list_index + 1) % len(s.critical_list)
    bad = dataclasses.replace(cert, witness=dataclasses.replace(cert.witness, list_index=other))
    assert run.check_certificate(s.lib, host, bad, s.critical_list) is not None


def test_certificate_gate_trips_on_the_wrong_outcome_and_on_exceptions(cap8):
    _, s, _, _ = cap8
    host, _ = _certified(s, colorable=True)
    _, witness_cert = _certified(s, colorable=False)
    assert run.check_certificate(s.lib, host, witness_cert, s.critical_list) is not None
    assert run.check_certificate(s.lib, host, ValueError("boom"), s.critical_list) is not None


def test_the_hosts_own_four_coloring_is_proper(cap8):
    _, s, _, _ = cap8
    for g in s.critical_list:
        part = induced_subgraph(g, range(1, g.n))
        colors = hosts._four_coloring(part)
        assert max(colors) < 4
        assert all(colors[u] != colors[v] for u, v in part.edges())


def test_hosts_are_seeded_family_free_and_in_range(cap8):
    w, s, _, _ = cap8
    again = hosts.make_hosts(5, s.critical_list, s.family, w.colorable, w.non_colorable,
                             *run.HOST_ORDERS)
    assert again == s.hosts
    lo, hi = run.HOST_ORDERS
    for h in s.hosts:
        assert lo <= h.graph.n <= hi
        assert s.lib["patterns"].is_family_free(h.graph, s.family)
    assert sum(h.colorable for h in s.hosts) == w.colorable
    assert sum(not h.colorable for h in s.hosts) == w.non_colorable
    quotas = hosts._quotas(w.colorable, range(lo, hi + 1), True)
    assert sum(0 in h.graph.rows for h in s.hosts if h.colorable) == sum(
        round(q * hosts.ISOLATED_SHARE) for q in quotas.values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(BENCH["command"] + ["--workload", "enum-k13p1-c10", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.sampling() as phase:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(phase.samples) >= 3 and probe.kernel_ns >= sum(phase.samples)
    assert phase.factor > 0
    far = phase.at[-1] + 10**12
    assert phase.factor_near(far, far) == phase.factor  # no samples there


def _calibrated_ratio(probe, competitors_base: int, competitors_more: int) -> tuple[float, float]:
    """Median raw and calibrated time ratios of 6 against 5 cap-8 enumerations.

    The two runs of a pair may have busy-looping competitor processes
    beside them, so the machine's load differs between them.
    """
    h = parse_pattern("k1,3+p1")

    def timed(reps: int, competitors: int) -> tuple[float, float]:
        busy = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(competitors)]
        try:
            with probe.sampling() as phase:
                t0 = probe.clock_ns()
                for _ in range(reps):
                    enumerate_5vc(h, max_order=8)
                took = probe.clock_ns() - t0
        finally:
            for p in busy:
                p.kill()
            for p in busy:
                p.wait()
        return took, took * phase.factor

    raw, cal = [], []
    for _ in range(5):
        raw_base, cal_base = timed(5, competitors_base)
        raw_more, cal_more = timed(6, competitors_more)
        raw.append(raw_more / raw_base)
        cal.append(cal_more / cal_base)
    return statistics.median(raw), statistics.median(cal)


@pytest.mark.parametrize("competitors_base,competitors_more", [(0, 0), (0, 1), (1, 0)])
def test_calibration_keeps_a_known_slowdown(competitors_base, competitors_more):
    """20% more work reads as about 20% more reference time.

    One competitor leaves this process a core of its own on a 2-vCPU
    machine but shares the machine with it, as other tenants do.
    """
    _, cal = _calibrated_ratio(speed.SpeedProbe(), competitors_base, competitors_more)
    assert 1.1 <= cal <= 1.3


def test_calibration_does_not_hide_time_sharing():
    """With a competitor per core the process waits for a core part of the time.

    A sample that waits reads slow, so the calibration may take out some
    of the extra wall time, but not the 20% of extra work.
    """
    _, cal = _calibrated_ratio(speed.SpeedProbe(), 0, min(os.cpu_count() or 2, 4))
    assert cal >= 1.1
