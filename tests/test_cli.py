from critenum import complete, cycle, decode_graph6, encode_graph6, path, write_graph6_file
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
    assert "TRUNCATED" in err


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
    assert code == 0
    assert out.read_text() == ""
    assert "wrote 0 graphs" in err


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


def test_enumerate_auto_validation(tmp_path, capsys):
    out = tmp_path / "x.g6"
    code, _, err = run(
        ["enumerate", "--k", "4", "--forbid", "p5", "--forbid", "k1,3+p1",
         "--seed", "auto", "--out", str(out)],
        capsys,
    )
    assert code == 1 and "auto" in err
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", "p5", "--forbid", "c4",
         "--seed", "auto", "--out", str(out)],
        capsys,
    )
    assert code == 1 and "auto" in err


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


def test_verify_flags_failures(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    write_graph6_file(bad, [complete(5), cycle(5)])
    code, _, err = run(["verify", "--k", "5", "--forbid", "p5", str(bad)], capsys)
    assert code == 1
    assert "line 2" in err


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
        ["enumerate", "--k", "5", "--forbid", "q9", "--seed", "auto", "--out", str(out)],
        capsys,
    )
    assert code == 1 and "position" in err
    deep = "co(" * 400 + "p1" + ")" * 400
    code, _, err = run(
        ["enumerate", "--k", "5", "--forbid", deep, "--seed", "auto", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
