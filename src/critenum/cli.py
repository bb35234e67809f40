"""Command-line interface: enumerate, verify, certify, stats, convert.

Results go to stdout (or the output file); diagnostics and progress go to
stderr.  Exit codes: ``enumerate`` returns 0 when the search closed below
the order cap and 2 when branches were truncated; ``certify`` returns 0
for a coloring, 1 for a witness, 3 for a precondition violation and 4 for
other errors; the remaining commands return 0 on success and 1 on any
failure or error.  A usage error (a missing, malformed or unknown argument,
or no command) is an error like any other: one ``error:`` line on stderr
and exit code 4 under ``certify``, 1 otherwise; ``--help`` exits 0.
Ctrl-C ends any command with exit code 130.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from .certify import IncompleteListError, NotInClassError, certify_4_colorability
from .coloring import chromatic_number
from .critical import is_k_critical_in_class, is_k_vertex_critical
from .enumeration import SearchConfig, recursively_enumerate, seeds_for
from .graph6 import Graph6Error, ascii_lines, encode_graph6, read_graph6_file, write_graph6_file
from .graphs import MAX_ORDER, Graph, bits, induced_subgraph
from .patterns import is_family_free, parse_pattern


def _p(msg: str) -> None:
    print(msg, file=sys.stderr)


def _seed_graphs(source: str) -> list[Graph]:
    if not os.path.exists(source):
        try:
            return [parse_pattern(source)]
        except ValueError as exc:
            raise ValueError(f"--seed {source} is neither an existing file nor a pattern: {exc}"
                             ) from None
    seeds = read_graph6_file(source)
    if not seeds:
        raise ValueError(f"no seed graphs in {source}")
    return seeds


def cmd_enumerate(args) -> int:
    family = tuple(map(parse_pattern, args.forbid))

    def progress(order, count):
        _p(f"  expanding {count} graphs of order {order}")

    if args.seed == "auto":
        seeds = seeds_for(args.k, family)
    else:
        seeds = _seed_graphs(args.seed)
    cfg = SearchConfig(args.k, family, args.max_order, tuple(seeds), pruning=not args.no_prune)
    created = not os.path.exists(args.out)
    open(args.out, "a").close()  # an unwritable --out fails here, not after the search
    try:
        result = recursively_enumerate(cfg, jobs=args.jobs, progress=progress)
        write_graph6_file(args.out, result.graphs)
    except BaseException:
        if created:  # an empty file would read as a valid, empty list
            os.remove(args.out)
        raise
    _p(f"wrote {len(result.graphs)} graphs to {args.out}")
    for n, c in result.per_order_counts.items():
        _p(f"  n={n}: {c}")
    _p(f"nodes visited: {result.nodes_visited}")
    _p("search complete" if result.complete else
       f"search TRUNCATED at the order cap with {result.open_nodes} open nodes: "
       "completeness not established")
    return 0 if result.complete else 2


def cmd_verify(args) -> int:
    if args.k < 1:  # an empty file would otherwise pass
        raise ValueError("k must be positive")
    family = tuple(map(parse_pattern, args.forbid))
    graphs = read_graph6_file(args.file)
    failures = 0
    histogram: Counter[int] = Counter()
    for lineno, g in enumerate(graphs, 1):
        if not is_family_free(g, family):
            _p(f"line {lineno}: graph is not family-free")
            failures += 1
            continue
        report = is_k_vertex_critical(g, args.k)
        if not report.is_vertex_critical:
            detail = (f"chi={report.chi}" if report.chi != args.k
                      else f"deleting vertex {report.failing_vertex} keeps chi >= {args.k}")
            _p(f"line {lineno}: not {args.k}-vertex-critical ({detail})")
            failures += 1
            continue
        if args.edge_critical and not is_k_critical_in_class(g, args.k, family):
            _p(f"line {lineno}: not {args.k}-critical within the class")
            failures += 1
            continue
        histogram[g.n] += 1
    for n in sorted(histogram):
        print(f"n={n}: {histogram[n]}")
    print(f"total: {sum(histogram.values())} ok, {failures} failed")
    return 1 if failures else 0


def cmd_certify(args) -> int:
    family = tuple(map(parse_pattern, args.forbid))
    critical_list = read_graph6_file(args.list)
    inputs = read_graph6_file(args.input)
    if not inputs:
        raise ValueError(f"no graphs in {args.input}")
    g = inputs[0]
    cert = certify_4_colorability(g, critical_list, family)
    if cert.coloring is not None:
        parts = " ".join(f"v{i}={c}" for i, c in enumerate(cert.coloring.assignment))
        print(f"COLORING {parts}".rstrip())
        return 0
    witness = cert.witness
    verts = sorted(bits(witness.vertices))
    sub = induced_subgraph(g, witness.vertices)
    print(f"WITNESS {' '.join(map(str, verts))} {encode_graph6(sub)}")
    return 1


def cmd_stats(args) -> int:
    graphs = read_graph6_file(args.file)
    orders = Counter(g.n for g in graphs)
    edges = Counter(g.edge_count() for g in graphs)
    chis = Counter(chromatic_number(g) for g in graphs)
    print(f"graphs: {len(graphs)}")
    print("order histogram:")
    for n in sorted(orders):
        print(f"  {n}: {orders[n]}")
    print("edge-count histogram:")
    for m in sorted(edges):
        print(f"  {m}: {edges[m]}")
    print("chi histogram:")
    for c in sorted(chis):
        print(f"  {c}: {chis[c]}")
    return 0


def _read_edge_blocks(path: str) -> list[Graph]:
    """Blocks of 'n <order>' and one 'u v' line per edge, separated by blank lines."""
    graphs = []
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, line in ascii_lines(path):
        fields = line.split()
        if not fields:  # a blank line closes the block
            if n is not None:
                graphs.append(Graph.from_edges(n, edges))
            n, edges = None, []
            continue
        try:
            if n is None:
                if len(fields) != 2 or fields[0] != "n":
                    raise ValueError("block must start with 'n <order>'")
                n = int(fields[1])
                if not 0 <= n <= MAX_ORDER:
                    raise ValueError(f"order {n} outside 0..{MAX_ORDER}")
                continue
            if len(fields) != 2:
                raise ValueError(f"expected an edge 'u v', got {len(fields)} fields")
            u, v = int(fields[0]), int(fields[1])
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"edge ({u}, {v}) is not a pair of distinct vertices of 0..{n - 1}")
            edges.append((u, v))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is not None:
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def _write_edge_blocks(path: str, graphs: list[Graph]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i, g in enumerate(graphs):
            if i:
                fh.write("\n")
            fh.write(f"n {g.n}\n")
            for u, v in g.edges():
                fh.write(f"{u} {v}\n")


def cmd_convert(args) -> int:
    if args.to == "edges":
        graphs = read_graph6_file(args.input)
        _write_edge_blocks(args.output, graphs)
    else:
        graphs = _read_edge_blocks(args.input)
        write_graph6_file(args.output, graphs)
    _p(f"converted {len(graphs)} graphs")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError for :func:`main` to report, in place of
    argparse's usage block and exit code 2, which ``enumerate`` gives to a
    truncated search.  Subparsers inherit the class."""

    def error(self, message: str):
        raise ValueError(f"{message} (see '{self.prog} --help')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="critenum",
        description="Enumerate, verify and certify k-vertex-critical family-free graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate", help="exhaustively generate k-vertex-critical graphs",
        description="Exhaustively generate k-vertex-critical family-free graphs.  The closing "
                    "'nodes visited' count is the number of distinct graphs (one per "
                    "isomorphism class) the search classified as critical, dead, truncated "
                    "or expanded.  Unless --no-prune is given, each parent classifies "
                    "its children, and a dead child (chromatic number k, not critical) "
                    "is never built, so it is not counted.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--forbid", action="append", required=True, metavar="DSL",
                   help="forbidden induced pattern (repeatable)")
    p.add_argument("--seed", required=True,
                   help="'auto' (K_k and the family-free odd antiholes of chromatic number "
                        "at most k; needs p5 in the family), a graph6 file, or a DSL string")
    p.add_argument("--max-order", type=int, required=True,
                   help="largest graph order searched; a graph of this order with "
                        "chromatic number below k is left unextended, and the run then "
                        "exits 2 (truncated)")
    p.add_argument("--out", required=True)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; must be at least 1, and no more than the CPU "
                        "count are started (default 1)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="re-check criticality of every graph in a list")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--forbid", action="append", required=True, metavar="DSL")
    p.add_argument("--edge-critical", action="store_true",
                   help="additionally require in-class k-criticality")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="4-coloring or 5-vertex-critical witness")
    p.add_argument("--forbid", action="append", required=True, metavar="DSL")
    p.add_argument("--list", required=True, help="graph6 file with the critical list")
    p.add_argument("--input", required=True, help="graph6 file; first graph is certified")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("stats", help="order/edge/chi histograms of a graph6 file")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", help="convert between graph6 and edge-list text")
    p.add_argument("--to", choices=["graph6", "edges"], required=True)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None  # the parser has no options before the command
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NotInClassError as exc:
        _p(f"error: {exc}")
        return 3
    except IncompleteListError as exc:
        _p(f"error: {exc}")
        return 4
    except (ValueError, Graph6Error, OSError) as exc:
        _p(f"error: {exc}")
        return 4 if command == "certify" else 1
    except KeyboardInterrupt:
        _p("error: interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
