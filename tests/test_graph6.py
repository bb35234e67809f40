import random

import pytest

from critenum import (
    Graph6Error,
    complete,
    cycle,
    decode_graph6,
    encode_graph6,
    path,
    read_graph6_file,
    write_graph6_file,
)
from oracles import random_graph


def test_fixed_encodings():
    assert encode_graph6(complete(1)) == "@"
    assert encode_graph6(complete(2)) == "A_"
    assert encode_graph6(cycle(5)) == "Dhc"
    assert encode_graph6(complete(5)) == "D~{"


def test_fixed_decodings():
    assert decode_graph6("@") == complete(1)
    assert decode_graph6("A_") == complete(2)
    assert decode_graph6("Dhc") == cycle(5)


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(2000):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_large_order_header():
    g = path(63)
    text = encode_graph6(g)
    assert text.startswith("~")
    assert decode_graph6(text) == g
    g64 = path(64)
    assert decode_graph6(encode_graph6(g64)) == g64


def test_strict_decode_rejections():
    with pytest.raises(Graph6Error):
        decode_graph6("")
    with pytest.raises(Graph6Error):
        decode_graph6("D")  # truncated payload for n=5
    with pytest.raises(Graph6Error):
        decode_graph6("Dhcc")  # overlong payload
    with pytest.raises(Graph6Error):
        decode_graph6("A`")  # nonzero padding bits for n=2
    with pytest.raises(Graph6Error):
        decode_graph6("Dh\x1c")  # byte below 63
    with pytest.raises(Graph6Error):
        decode_graph6("~??~" + "?" * 700)  # wrong payload size for n=63


def test_order_cap_rejected():
    # n=65 needs the multi-byte header; the package caps orders at 64
    head = "~" + chr(63 + 0) + chr(63 + 1) + chr(63 + 1)
    with pytest.raises(Graph6Error):
        decode_graph6(head + "?" * 347)


def test_list_file_roundtrip(tmp_path):
    graphs = [complete(1), cycle(5), complete(5), path(2)]
    target = tmp_path / "list.g6"
    write_graph6_file(target, graphs)
    text = target.read_text()
    assert text == "@\nDhc\nD~{\nA_\n"
    assert read_graph6_file(target) == graphs


def test_list_file_error_names_line(tmp_path):
    target = tmp_path / "bad.g6"
    target.write_text("@\nD\n")
    with pytest.raises(Graph6Error, match="bad.g6:2"):
        read_graph6_file(target)
