import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import critenum
from critenum import (
    Graph,
    SearchConfig,
    chromatic_number,
    complete,
    cycle,
    decode_graph6,
    delete_vertex,
    disjoint_union,
    encode_graph6,
    parse_pattern,
    path,
    recursively_enumerate,
    seeds_for,
    write_graph6_file,
)
from critenum.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_small_run(tmp_path, capsys):
    out = tmp_path / "co7.g6"
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "co(k3+2p1)",
         "--seed", "auto", "--max-order", "7", "--out", str(out)],
        capsys,
    )
    assert code == 2  # branches remain open at the cap
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    graphs = [decode_graph6(line) for line in lines]
    assert [g.n for g in graphs] == [5, 7]
    assert "TRUNCATED at the order cap with 27 open nodes" in err  # co-C9 among them


def test_enumerate_deterministic_across_jobs(tmp_path, capsys):
    args = ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "k1,3+p1",
            "--seed", "auto", "--max-order", "8"]
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    assert run(args + ["--out", str(a)], capsys)[0] == 2
    assert run(args + ["--out", str(b), "--jobs", "2"], capsys)[0] == 2
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_seed_dsl_complete(tmp_path, capsys):
    out = tmp_path / "k5.g6"
    code, _, _ = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--seed", "k5", "--max-order", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0  # K5 is emitted and nothing is left open
    assert out.read_text() == "D~{\n"


def test_enumerate_seed_file(tmp_path, capsys):
    seeds = tmp_path / "seeds.g6"
    write_graph6_file(seeds, [complete(5)])
    out = tmp_path / "out.g6"
    code, _, _ = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--seed", str(seeds), "--max-order", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text() == "D~{\n"


def test_enumerate_seed_above_cap_skipped(tmp_path, capsys):
    out = tmp_path / "out.g6"
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--seed", "co(c9)",
         "--max-order", "7", "--out", str(out)],
        capsys,
    )
    assert code == 2  # the seed is never searched, so the search is not complete
    assert out.read_text() == ""
    assert "wrote 0 graphs" in err
    assert err.splitlines()[-1].endswith("with 1 open nodes: completeness not established")


def test_enumerate_seed_auto_below_c5_exits_2(tmp_path, capsys):
    # k = 3 {P5}: K3 is written, and C5, a seed above the cap, leaves the run open
    out = tmp_path / "k3.g6"
    code, _, err = run(
        ["enumerate", "--k", "3", "--forbid", "p5", "--seed", "auto", "--max-order", "4",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert len(out.read_text().splitlines()) == 1
    assert err.splitlines()[-1].endswith("with 1 open nodes: completeness not established")


def test_enumerate_empty_seed_file(tmp_path, capsys):
    seeds = tmp_path / "empty.g6"
    write_graph6_file(seeds, [])
    out = tmp_path / "out.g6"
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--seed", str(seeds),
         "--max-order", "7", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err.strip() == f"error: no seed graphs in {seeds}"
    assert not out.exists()


def test_enumerate_missing_seed_file(tmp_path, capsys):
    # a --seed that is no file is read as a pattern; the error names the argument
    seeds = tmp_path / "seeds.g6"
    out = tmp_path / "out.g6"
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--seed", str(seeds),
         "--max-order", "7", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err.splitlines() == [
        f"error: --seed {seeds} is neither an existing file nor a pattern: "
        "expected 'p', 'c', 'k' or 'co(' (at position 0)"]
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["enumerate", "--forbid", "p5", "--seed", "auto", "--max-order", "8"], 1),
    (["enumerate", "--k", "five", "--forbid", "p5", "--seed", "auto", "--max-order", "8"], 1),
    (["certify", "--forbid", "p5", "--list", "o.g6"], 4),
    (["certify", "--forbid", "p5", "--list", "o.g6", "--input", "i.g6", "--extra"], 4),
    (["enumerat", "--k", "5"], 1),
    ([], 1),
], ids=["no-k", "bad-k", "certify-no-input", "certify-unknown-flag",
        "unknown-command", "no-command"])
def test_usage_errors(tmp_path, capsys, argv, code):
    # one error line and the command's own code: 2 is a truncated search to enumerate
    out = tmp_path / "x.g6"
    if argv[:1] == ["enumerate"]:
        argv = [*argv, "--out", str(out)]
    got, _, err = run(argv, capsys)
    assert got == code
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert "--max-order" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--k", "0", "--forbid", "p5", "--max-order", "8"], "k must be positive"),
    (["--k", "4", "--forbid", "p6", "--max-order", "8"], "the seed theorem needs p5 in the family"),
    (["--k", "4", "--forbid", "p5"], "the following arguments are required: --max-order "
                                     "(see 'critenum enumerate --help')"),
], ids=["k0", "no-p5", "no-cap"])
def test_enumerate_auto_rejects_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "x.g6"
    code, _, err = run(["enumerate", *argv, "--seed", "auto", "--out", str(out)], capsys)
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_enumerate_auto_validation(tmp_path, capsys):
    # the paper's maximum orders for its named H are results to check, not default caps
    out = tmp_path / "x.g6"
    for h in ("k1,3+p1", "k1,4+p1", "co(k3+2p1)"):
        code, _, err = run(["enumerate", "--k", "5", "--forbid", "p5", "--forbid", h,
                            "--seed", "auto", "--out", str(out)], capsys)
        assert code == 1
        assert len(err.splitlines()) == 1 and "--max-order" in err, err
        assert not out.exists()


def test_enumerate_auto_k4_equals_library_search(tmp_path, capsys):
    out, lib = tmp_path / "cli.g6", tmp_path / "lib.g6"
    code, _, err = run(["enumerate", "--k", "4", "--forbid", "p5", "--forbid", "k1,3+p1",
                        "--seed", "auto", "--max-order", "9", "--out", str(out)], capsys)
    assert code == 2 and "with 19 open nodes" in err
    family = (parse_pattern("p5"), parse_pattern("k1,3+p1"))
    cfg = SearchConfig(4, family, 9, tuple(seeds_for(4, family)))
    write_graph6_file(lib, recursively_enumerate(cfg).graphs)
    assert out.read_bytes() == lib.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_enumerate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "co(k3+2p1)",
         "--seed", "auto", "--max-order", "7", "--jobs", jobs, "--out", str(tmp_path / "x.g6")],
        capsys,
    )
    assert code == 1
    assert err.splitlines() == [f"error: jobs must be at least 1, got {jobs}"]


def test_enumerate_names_a_seed_that_is_not_family_free(tmp_path, capsys):
    seeds = tmp_path / "seeds.g6"
    write_graph6_file(seeds, [cycle(5), path(5)])
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--seed", str(seeds),
         "--max-order", "7", "--out", str(tmp_path / "x.g6")],
        capsys,
    )
    assert code == 1
    g6 = encode_graph6(path(5))
    assert err.splitlines() == [f"error: seed 2 of 2 ({g6}) is not family-free"]


def test_enumerate_no_prune_same_output(tmp_path, capsys):
    base = ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "co(k3+2p1)",
            "--seed", "auto", "--max-order", "8"]
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    run(base + ["--out", str(a)], capsys)
    run(base + ["--out", str(b), "--no-prune"], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_verify_accepts_enumerate_output(tmp_path, capsys):
    out = tmp_path / "list.g6"
    run(["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "co(k3+2p1)",
         "--seed", "auto", "--max-order", "8", "--out", str(out)], capsys)
    code, stdout, _ = run(
        ["verify", "--k", "5", "--forbid", "p5", "--forbid", "co(k3+2p1)", str(out)],
        capsys,
    )
    assert code == 0
    assert "n=5: 1" in stdout and "n=8: 6" in stdout


@pytest.mark.parametrize("graphs", [[], [complete(5)]], ids=["empty", "k5"])
def test_verify_rejects_k_below_one(tmp_path, capsys, graphs):
    # an empty file is not read, so it cannot pass with 0 ok
    src = tmp_path / "in.g6"
    write_graph6_file(src, graphs)
    code, out, err = run(["verify", "--k", "0", "--forbid", "p5", str(src)], capsys)
    assert (code, out, err) == (1, "", "error: k must be positive\n")


def test_verify_flags_failures(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    write_graph6_file(bad, [complete(5), cycle(5)])
    code, _, err = run(["verify", "--k", "5", "--forbid", "p5", str(bad)], capsys)
    assert code == 1
    assert "line 2" in err


def test_verify_names_a_deletable_vertex(tmp_path, capsys):
    k6_minus_edge = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                                         if (u, v) != (0, 5)])
    k5_pendant = Graph.from_edges(6, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                                  + [(5, 2)])
    graphs = [complete(5), k6_minus_edge, k5_pendant, disjoint_union(complete(5), complete(2))]
    bad = tmp_path / "noncritical.g6"
    write_graph6_file(bad, graphs)
    code, _, err = run(["verify", "--k", "5", "--forbid", "p5", str(bad)], capsys)
    assert code == 1
    named = re.findall(r"line (\d+): not 5-vertex-critical "
                       r"\(deleting vertex (\d+) keeps chi >= 5\)", err)
    assert [int(line) for line, _ in named] == [2, 3, 4]
    for line, v in named:
        assert chromatic_number(delete_vertex(graphs[int(line) - 1], int(v))) >= 5


def test_verify_edge_critical(tmp_path, capsys):
    lst = tmp_path / "k5.g6"
    write_graph6_file(lst, [complete(5)])
    code, stdout, _ = run(
        ["verify", "--k", "5", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--edge-critical", str(lst)],
        capsys,
    )
    assert code == 0
    assert "n=5: 1" in stdout
    assert "total: 1 ok, 0 failed" in stdout


def test_certify_witness_exit_code(tmp_path, capsys):
    lst = tmp_path / "list.g6"
    run(["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--seed", "auto", "--max-order", "8", "--out", str(lst)], capsys)
    inp = tmp_path / "input.g6"
    write_graph6_file(inp, [complete(5)])
    code, stdout, _ = run(
        ["certify", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--list", str(lst), "--input", str(inp)],
        capsys,
    )
    assert code == 1
    assert stdout.strip() == "WITNESS 0 1 2 3 4 D~{"


def test_certify_coloring_exit_code(tmp_path, capsys):
    lst = tmp_path / "list.g6"
    write_graph6_file(lst, [complete(5)])
    inp = tmp_path / "input.g6"
    write_graph6_file(inp, [cycle(5)])
    code, stdout, _ = run(
        ["certify", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--list", str(lst), "--input", str(inp)],
        capsys,
    )
    assert code == 0
    assert stdout.startswith("COLORING v0=")
    parts = dict(p.split("=") for p in stdout.split()[1:])
    colors = [int(parts[f"v{i}"]) for i in range(5)]
    c5 = cycle(5)
    assert all(colors[u] != colors[v] for u, v in c5.edges())
    assert len(set(colors)) <= 4


def test_certify_precondition_exit_code(tmp_path, capsys):
    lst = tmp_path / "list.g6"
    write_graph6_file(lst, [complete(5)])
    inp = tmp_path / "input.g6"
    write_graph6_file(inp, [path(6)])
    code, _, err = run(
        ["certify", "--forbid", "p5", "--list", str(lst), "--input", str(inp)],
        capsys,
    )
    assert code == 3
    assert "family-free" in err


def test_certify_incomplete_list(tmp_path, capsys):
    lst = tmp_path / "list.g6"
    write_graph6_file(lst, [])
    inp = tmp_path / "input.g6"
    write_graph6_file(inp, [complete(5)])
    code, _, err = run(
        ["certify", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--list", str(lst), "--input", str(inp)],
        capsys,
    )
    assert code == 4
    assert "truncated" in err


def test_stats(tmp_path, capsys):
    lst = tmp_path / "list.g6"
    write_graph6_file(lst, [complete(5), cycle(5), cycle(5)])
    code, stdout, _ = run(["stats", str(lst)], capsys)
    assert code == 0
    assert "graphs: 3" in stdout
    assert "5: 3" in stdout  # order histogram
    assert "10: 1" in stdout and "5: 2" in stdout  # edge histogram
    assert "chi histogram" in stdout


def test_convert_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.g6"
    graphs = [cycle(5), complete(4), path(1)]
    write_graph6_file(src, graphs)
    edges = tmp_path / "edges.txt"
    back = tmp_path / "back.g6"
    assert run(["convert", "--to", "edges", str(src), str(edges)], capsys)[0] == 0
    text = edges.read_text()
    assert text.startswith("n 5\n0 1\n")
    assert run(["convert", "--to", "graph6", str(edges), str(back)], capsys)[0] == 0
    assert back.read_text() == src.read_text()


def test_bad_pattern_and_missing_file(tmp_path, capsys):
    code, _, err = run(["stats", str(tmp_path / "missing.g6")], capsys)
    assert code == 1
    out = tmp_path / "x.g6"
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "q9", "--seed", "auto", "--max-order", "8",
         "--out", str(out)],
        capsys,
    )
    assert code == 1 and "position" in err
    deep = "co(" * 400 + "p1" + ")" * 400
    for bad in [deep, "p" + "9" * 5000]:
        code, _, err = run(
            ["enumerate", "--k", "5", "--forbid", bad, "--seed", "auto", "--max-order", "8",
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_enumerate_unwritable_out_fails_before_search(tmp_path, capsys):
    out = tmp_path / "missing" / "a.g6"
    code, _, err = run(
        ["enumerate", "--k", "3", "--forbid", "p5", "--seed", "p1", "--max-order", "5",
         "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "expanding" not in err
    assert not out.parent.exists()


def test_failed_enumerate_leaves_no_new_out_file(tmp_path, capsys):
    # an empty --out file would read as a valid list with no graphs in it
    out, kept = tmp_path / "new.g6", tmp_path / "kept.g6"
    kept.write_text("old contents\n")
    for extra in (["--seed", "p5", "--max-order", "7"],
                  ["--forbid", "k1,3+p1", "--seed", "auto", "--max-order", "99"]):
        for target in (out, kept):
            code, _, err = run(["enumerate", "--k", "5", "--forbid", "p5", *extra,
                                "--out", str(target)], capsys)
            assert code == 1 and err.startswith("error:"), err
    assert not out.exists()
    assert kept.read_text() == "old contents\n"


def _interrupt_enumerate(tmp_path, jobs):
    """SIGINT a k1,4+p1 run past order 8: one error line, exit 130, no --out."""
    env = dict(os.environ, PYTHONPATH=str(Path(critenum.__file__).parents[1]))
    cmd = [sys.executable, "-m", "critenum.cli", "enumerate", "--k", "5", "--forbid", "p5",
           "--forbid", "k1,4+p1", "--seed", "auto", "--max-order", "13", "--jobs", str(jobs),
           "--out", str(tmp_path / "x.g6")]
    proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        for line in proc.stderr:
            m = re.match(r"  expanding \d+ graphs of order (\d+)$", line)
            if m and int(m[1]) >= 8:
                break
        else:
            pytest.fail(f"the run ended before order 8 with exit code {proc.wait()}")
        time.sleep(0.5)  # well into the next level, so any workers are mid-task
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=15)
        assert proc.returncode == 130
        assert "Traceback" not in err and err.splitlines()[-1] == "error: interrupted", err
        assert not (tmp_path / "x.g6").exists()
        with pytest.raises(ProcessLookupError):  # no worker is left behind
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 needs two CPUs")
def test_enumerate_jobs_2_exits_on_sigint(tmp_path):
    # A worker killed mid-task never returns its result, so the pool must
    # be terminated, not joined.
    _interrupt_enumerate(tmp_path, 2)


def test_enumerate_jobs_1_exits_on_sigint(tmp_path):
    _interrupt_enumerate(tmp_path, 1)


def test_non_ascii_graph6_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"D~{\n\xff\n")
    code, _, err = run(["stats", str(bad)], capsys)
    assert code == 1
    assert err.strip() == f"error: {bad}:2: non-ASCII byte 0xff"
    good = tmp_path / "good.g6"
    write_graph6_file(good, [complete(5)])
    code, _, err = run(["certify", "--forbid", "p5", "--list", str(bad), "--input", str(good)],
                       capsys)
    assert code == 4
    assert err.strip() == f"error: {bad}:2: non-ASCII byte 0xff"


@pytest.mark.parametrize("text, line, message", [
    ("n 3\n0 1\n0 1 2\n", 3, "expected an edge 'u v', got 3 fields"),
    ("n 3\n1 x\n", 2, "invalid literal for int() with base 10: 'x'"),
    ("n 2\n0 1\n\nn -1\n", 4, "order -1 outside 0..64"),
    ("n 3\n2 3\n", 2, "edge (2, 3) is not a pair of distinct vertices of 0..2"),
    ("0 1\n", 1, "block must start with 'n <order>'"),
], ids=["three-fields", "not-an-integer", "negative-order", "vertex-out-of-range", "no-header"])
def test_malformed_edge_list_names_file_and_line(tmp_path, capsys, text, line, message):
    bad = tmp_path / "edges.txt"
    bad.write_text(text)
    out = tmp_path / "out.g6"
    code, _, err = run(["convert", "--to", "graph6", str(bad), str(out)], capsys)
    assert code == 1
    assert err.strip() == f"error: {bad}:{line}: {message}"
    assert not out.exists()
