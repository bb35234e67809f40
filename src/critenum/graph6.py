"""graph6 text format: order header plus packed upper-triangle bits.

The encoding is the de-facto standard used by the common graph tooling and
published graph lists: header byte ``63 + n`` for ``n <= 62`` (the four-byte
``~``-escaped form above that), followed by the upper triangle of the
adjacency matrix read column by column -- pairs (0,1), (0,2), (1,2),
(0,3), ... -- packed big-endian into 6-bit groups, zero padded, each group
emitted as ``chr(value + 63)``.

Decoding is strict: bad headers, wrong payload length and nonzero padding
bits are all rejected.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

from .graphs import MAX_ORDER, Graph, _graph


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    out = [head]
    acc = 0
    nbits = 0
    rows = g.rows
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def decode_graph6(text: str) -> Graph:
    line = text.strip()
    if not line:
        raise Graph6Error("empty graph6 line")
    vals = []
    for ch in line:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise Graph6Error(f"byte {ch!r} outside graph6 range")
        vals.append(v)
    if vals[0] == 63:
        if len(vals) < 4:
            raise Graph6Error("truncated multi-byte order header")
        if vals[1] == 63:
            raise Graph6Error("8-byte order headers are not supported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_ORDER:
        raise Graph6Error(f"order {n} exceeds the {MAX_ORDER}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} payload bytes for order {n}, got {len(body)}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] >> (5 - k % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    if need and body[-1] & ((1 << (6 * need - nbits)) - 1):
        raise Graph6Error("nonzero padding bits")
    return _graph(n, tuple(rows))


def ascii_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """The numbered lines of an ASCII text file; any other byte is an error naming its line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():  # each byte above 0x7f was read as U+DC80 + (byte - 0x80)
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise Graph6Error(f"{path}:{lineno}: non-ASCII byte 0x{byte:02x}")
            yield lineno, line


def read_graph6_file(path: str) -> list[Graph]:
    graphs = []
    for lineno, line in ascii_lines(path):
        if not line.strip():
            continue
        try:
            graphs.append(decode_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"{path}:{lineno}: {exc}") from None
    return graphs


def write_graph6_file(path: str | os.PathLike, graphs: Iterable[Graph]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(encode_graph6(g))
            fh.write("\n")
