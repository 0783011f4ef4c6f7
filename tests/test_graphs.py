"""Bitmask graph type and the graph6 / edge-list codecs."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turantrees.cli import main
from turantrees.graphs import (
    SimpleGraph,
    from_edge_text,
    from_graph6,
    iter_bits,
    read_graph_file,
    read_text_file,
    to_edge_text,
    to_graph6,
    write_graph_file,
)

from reference import edge_text_per_line, pair_slots


def graph_from_mask(p: int, mask: int) -> SimpleGraph:
    slots = pair_slots(p)
    return SimpleGraph.from_edges(
        p, [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
    )


def random_graph(rng: random.Random, p: int) -> SimpleGraph:
    bits = p * (p - 1) // 2
    return graph_from_mask(p, rng.getrandbits(bits) if bits else 0)


# st.integers for the order plus a seed; the mask itself can run to
# thousands of bits for large orders, which a seeded PRNG handles cheaply.
orders_and_seeds = st.tuples(st.integers(0, 70), st.integers(0, 2**32 - 1))


# ----------------------------------------------------------------- basic type

def test_empty_and_complete():
    assert SimpleGraph.empty(5).edge_count() == 0
    assert SimpleGraph.complete(5).edge_count() == 10
    assert SimpleGraph.complete(0).order == 0
    assert SimpleGraph.complete(1).edge_count() == 0


def test_from_edges_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError, match="loop at vertex 2"):
        SimpleGraph.from_edges(4, [(2, 2)])
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph.from_edges(4, [(0, 4)])
    with pytest.raises(ValueError, match="non-negative"):
        SimpleGraph.empty(-1)


def test_degrees_and_edges_order():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert g.degree(1) == 3
    assert g.degree_sequence() == (3, 1, 1, 1)
    assert g.max_degree() == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (1, 3)]
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 2)
    assert sorted(g.neighbors(1)) == [0, 2, 3]


def test_components_and_connectivity():
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    comps = g.components()
    assert sorted(len(c) for c in comps) == [1, 2, 3]
    assert not g.is_connected()
    assert SimpleGraph.complete(4).is_connected()
    assert SimpleGraph.empty(1).is_connected()
    assert SimpleGraph.empty(0).is_connected()


def test_relabeled_is_isomorphic_relabeling():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.relabeled([3, 2, 1, 0])
    assert h.degree_sequence() == g.degree_sequence()
    assert h.has_edge(3, 2) and h.has_edge(1, 0)
    with pytest.raises(ValueError, match="permutation"):
        g.relabeled([0, 0, 1, 2])


def test_circulant_against_hand_expansion():
    c5 = SimpleGraph.circulant(5, [1])
    assert sorted(c5.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(ValueError, match="offsets"):
        SimpleGraph.circulant(5, [3])


@given(st.integers(1, 30), st.data())
def test_circulant_is_regular(m, data):
    offsets = data.draw(
        st.lists(st.integers(1, max(m // 2, 1)), unique=True, max_size=m // 2)
        if m >= 2
        else st.just([])
    )
    g = SimpleGraph.circulant(m, offsets)
    degs = set(g.degree_sequence() or (0,))
    assert len(degs) <= 1, "circulant graphs are vertex-transitive, hence regular"


def circulant_by_definition(m: int, offsets) -> SimpleGraph:
    adj = [0] * m
    for v in range(m):
        for o in offsets:
            adj[v] |= 1 << ((v + o) % m) | 1 << ((v - o) % m)
    return SimpleGraph(m, adj)


@given(st.integers(0, 40), st.integers(0, 2**20 - 1))
@settings(max_examples=300)
def test_circulant_rows_match_definition(m, subset):
    offsets = [o for o in range(1, m // 2 + 1) if subset >> (o - 1) & 1]
    assert SimpleGraph.circulant(m, offsets) == circulant_by_definition(m, offsets)


@given(orders_and_seeds)
@settings(max_examples=60)
def test_handshake(params):
    p, seed = params
    g = random_graph(random.Random(seed), min(p, 25))
    assert 2 * g.edge_count() == sum(g.degree_sequence())


@given(orders_and_seeds)
@settings(max_examples=60)
def test_complement_involution(params):
    p, seed = params
    p = min(p, 25)
    g = random_graph(random.Random(seed), p)
    assert g.complement().complement() == g
    assert g.complement().edge_count() == p * (p - 1) // 2 - g.edge_count()


def test_complement_of_empty_is_complete():
    assert SimpleGraph.empty(7).complement() == SimpleGraph.complete(7)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_disjoint_union_degrees_and_associativity(seed):
    rng = random.Random(seed)
    a, b, c = (random_graph(rng, rng.randrange(0, 7)) for _ in range(3))
    left = a.disjoint_union(b).disjoint_union(c)
    right = a.disjoint_union(b.disjoint_union(c))
    assert left.order == right.order == a.order + b.order + c.order
    assert sorted(left.degree_sequence()) == sorted(right.degree_sequence())
    assert left == right  # identical shift layout, not just isomorphic
    merged = sorted(a.degree_sequence() + b.degree_sequence() + c.degree_sequence())
    assert sorted(left.degree_sequence()) == merged


# --------------------------------------------------------------- graph6 codec

# Hand-computed literals pin the bit convention (column-major upper
# triangle, most significant bit first, bytes offset by 63).
FROZEN_G6 = [
    (SimpleGraph.empty(0), "?"),
    (SimpleGraph.empty(1), "@"),
    (SimpleGraph.empty(2), "A?"),
    (SimpleGraph.complete(2), "A_"),
    (SimpleGraph.complete(3), "Bw"),
    (SimpleGraph.complete(4), "C~"),
]


@pytest.mark.parametrize("g,text", FROZEN_G6)
def test_graph6_frozen_literals(g, text):
    assert to_graph6(g) == text
    assert from_graph6(text) == g


def test_graph6_accepts_standard_header():
    assert from_graph6(">>graph6<<Bw") == SimpleGraph.complete(3)


def test_graph6_long_form_boundary():
    # 62 is the last short-form order, 63 the first long-form one.
    g62 = SimpleGraph.complete(62)
    g63 = SimpleGraph.complete(63)
    s62, s63 = to_graph6(g62), to_graph6(g63)
    assert s62[0] != "~" and s63[0] == "~"
    assert len(s63) == 4 + -(-(63 * 62 // 2) // 6)
    assert from_graph6(s62) == g62
    assert from_graph6(s63) == g63


def test_graph6_rejects_malformed_input():
    with pytest.raises(ValueError, match="empty"):
        from_graph6("")
    with pytest.raises(ValueError, match="byte out of range"):
        from_graph6("B!")
    with pytest.raises(ValueError, match="expected"):
        from_graph6("D")  # order 5 with no body
    with pytest.raises(ValueError, match="expected"):
        from_graph6("Bwz")  # trailing garbage after a complete K3
    # A long-form header wrapping an order that fits in short form must be
    # rejected: each graph has exactly one encoding.
    k3 = to_graph6(SimpleGraph.complete(3))
    fake = "~" + chr(63) + chr(63) + chr(63 + 3) + k3[1:]
    with pytest.raises(ValueError, match="non-canonical"):
        from_graph6(fake)
    with pytest.raises(ValueError, match="not supported"):
        from_graph6("~~" + chr(63) * 6)


@given(orders_and_seeds)
@settings(max_examples=80, deadline=None)
def test_graph6_round_trip_both_regimes(params):
    p, seed = params
    g = random_graph(random.Random(seed), p)
    assert from_graph6(to_graph6(g)) == g


def graph6_per_bit(g: SimpleGraph) -> str:
    """The graph6 encoding written out one bit at a time."""
    n = g.n
    head = [n + 63]
    if n > 62:
        head = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    bits = [g.adj[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + sum(bit << (5 - i) for i, bit in enumerate(bits[j : j + 6]))
        for j in range(0, len(bits), 6)
    ]
    return bytes(head + body).decode("ascii")


def graph6_body_per_bit(n: int, body: bytes) -> SimpleGraph:
    """A graph6 body decoded one bit at a time."""
    adj = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if (body[idx // 6] - 63) >> (5 - idx % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            idx += 1
    return SimpleGraph(n, adj)


def test_graph6_codec_matches_per_bit_codec():
    rng = random.Random(20141)
    for p in [*range(0, 80), *range(80, 300, 17), 300]:
        g = random_graph(rng, p)
        text = to_graph6(g)
        assert text == graph6_per_bit(g)
        assert from_graph6(text) == g
        # Any body, padding bits included, decodes as the per-bit reader does.
        head = 1 if p <= 62 else 4
        body = bytes(rng.randrange(63, 127) for _ in range(len(text) - head))
        expected = graph6_body_per_bit(p, body)
        assert from_graph6(text[:head] + body.decode("ascii")) == expected


# Orders on both sides of the long-header switch (62/63) and of powers of
# two up to 1024; the decoder's transpose pads its rows to whole bytes.
DECODER_ORDERS = [*range(0, 10), *range(62, 66), 127, 128, 129, 255, 256, 257, 1025]


@pytest.mark.parametrize("density", [0, 0.5, 1])
def test_graph6_decoder_matches_per_bit_decoder(density):
    rng = random.Random(f"g6-{density}")
    for n in DECODER_ORDERS:
        nbytes = -(-(n * (n - 1) // 2) // 6)
        if density == 0.5:
            body = bytes(rng.randrange(63, 127) for _ in range(nbytes))
        else:
            body = bytes([63 + 63 * density]) * nbytes
        head = to_graph6(SimpleGraph.empty(n))[: 1 if n <= 62 else 4]
        g = from_graph6(head + body.decode("ascii"))
        assert g == graph6_body_per_bit(n, body), n
        if density != 0.5:
            assert g == (SimpleGraph.complete(n) if density else SimpleGraph.empty(n))


def test_graph6_rejects_every_byte_outside_the_range_at_any_position():
    good = to_graph6(random_graph(random.Random(7), 20))
    body = len(good) - 1
    for byte in [*range(0, 63), *range(127, 256)]:
        for pos in (1, 1 + body // 2, body):
            text = good[:pos] + chr(byte) + good[pos + 1 :]
            if chr(byte).isspace() and pos == body:
                message = "truncated"  # stripped as trailing whitespace
            elif byte > 127:
                message = "ascii"  # not ASCII: the encode step names the codec
            else:
                message = "byte out of range"
            with pytest.raises(ValueError, match=message):
                from_graph6(text)


def test_graph6_encoder_memory_is_linear_in_the_pairs():
    # the bit stream needs about 2 bytes per vertex pair; a string per
    # six-bit group needed 13
    p = 3000
    g = SimpleGraph.circulant(p, range(1, 400))
    tracemalloc.start()
    try:
        to_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * p * (p - 1) // 2


# ------------------------------------------------------------ edge-list codec

def test_edge_text_round_trip_and_comments():
    g = SimpleGraph.from_edges(5, [(0, 3), (1, 2)])
    text = to_edge_text(g)
    assert from_edge_text(text) == SimpleGraph.from_edges(4, [(0, 3), (1, 2)])
    parsed = from_edge_text("# comment\n0 1\n\n2 3  # till end of line\n")
    assert sorted(parsed.edges()) == [(0, 1), (2, 3)]


def test_edge_text_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        from_edge_text("0 1 2")
    with pytest.raises(ValueError, match="non-integer"):
        from_edge_text("a b")
    with pytest.raises(ValueError, match="negative"):
        from_edge_text("-1 2")
    with pytest.raises(ValueError, match="loop"):
        from_edge_text("3 3")


# Edge-text lines of every kind the parser meets: blanks, comments, both
# header forms, edges with tabs and trailing comments, and the malformed
# kinds.  Vertex indices run on both sides of the order bound 258047.
_index = st.one_of(st.integers(0, 12), st.integers(258045, 258048))
_blank = st.sampled_from(["", "  ", "\t", " \t "])
_comment = st.sampled_from(["#", "# note", "  # 3 4", "#p"])
_header = st.builds(
    "{}p={}".format, st.sampled_from(["", "# ", "#", " #\t"]),
    st.one_of(st.integers(0, 14), st.integers(258046, 258048)),
)
_edge = st.builds(
    "{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), _index,
    st.sampled_from([" ", "\t", " \t "]), _index,
    st.sampled_from(["", " ", "\t", " # end", "#x"]),
)
_malformed = st.one_of(
    st.builds("{} {} {}".format, _index, _index, _index),  # three tokens
    st.sampled_from(["a b", "1 x", "1.5 2", "3", "0 1z", "p=3 # late"]),
    st.builds("-{} {}".format, st.integers(1, 9), _index),  # negative
    st.builds("{0} {0}".format, _index),  # loop
    st.sampled_from(["+3 4", "1_0 2", "-0 5", "\x1f0 1"]),  # odd but valid
)
_line = st.one_of(_blank, _comment, _header, _edge, _edge, _edge, _malformed)


@given(st.lists(st.tuples(_line, st.sampled_from(["\n", "\r\n"])), max_size=12),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_edge_text_parser_matches_per_line_reference(lines, trailing_break):
    text = "".join(line + brk for line, brk in lines)
    if lines and not trailing_break:
        text = text[: -len(lines[-1][1])]
    try:
        expected = edge_text_per_line(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            from_edge_text(text)
        assert str(raised.value) == str(exc)
        return
    g = from_edge_text(text)
    edges = {(u, w) for u, row in enumerate(g.adj) if row for w in iter_bits(row) if u < w}
    assert (g.n, edges) == expected


def test_file_round_trip_and_sniffing(tmp_path):
    g = SimpleGraph.from_edges(6, [(0, 1), (2, 5), (3, 4)])
    g6_path = tmp_path / "g.g6"
    ed_path = tmp_path / "g.edges"
    write_graph_file(g, str(g6_path), "g6")
    write_graph_file(g, str(ed_path), "edges")
    assert read_graph_file(str(g6_path)) == g
    assert read_graph_file(str(ed_path)) == g
    with pytest.raises(ValueError, match="unknown graph format"):
        write_graph_file(g, str(tmp_path / "x"), "gml")
    missing = tmp_path / "missing.g6"
    with pytest.raises(OSError):
        read_graph_file(str(missing))


def test_edge_file_keeps_trailing_isolated_vertices(tmp_path):
    g = SimpleGraph.from_edges(7, [(0, 1), (1, 2)])
    path = tmp_path / "g.edges"
    write_graph_file(g, str(path), "edges")
    assert read_graph_file(str(path)) == g
    empty = SimpleGraph.empty(3)
    write_graph_file(empty, str(path), "edges")
    assert read_graph_file(str(path)) == empty


def test_edge_text_count_header():
    assert from_edge_text("p=5\n0 1\n") == SimpleGraph.from_edges(5, [(0, 1)])
    assert from_edge_text("# a comment\n# p=4\n0 1\n").n == 4
    assert from_edge_text("p=3\n").n == 3
    with pytest.raises(ValueError, match=r"p=2 .*\(4\)"):
        from_edge_text("p=2\n0 3\n")
    with pytest.raises(ValueError, match="line 2"):
        from_edge_text("0 1\np=5\n")  # only before the first edge


def test_edge_text_order_bound():
    # the largest order graph6 can encode; beyond it the parser refuses
    # before it allocates a row per vertex
    assert from_edge_text("# p=258047\n").n == 258047
    assert from_edge_text("258046 0\n").n == 258047
    for text in ("258047 0\n", "0 999999999999\n", "# p=258048\n", "p=999999999999\n0 1\n"):
        with pytest.raises(ValueError, match="258047"):
            from_edge_text(text)


def test_sniffer_reads_header_only_files(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("p=4\n")
    assert read_graph_file(str(path)) == SimpleGraph.empty(4)


def test_graph6_file_comments_are_ignored(tmp_path, capsys):
    g = from_graph6("Dr{")
    path = tmp_path / "g.g6"
    path.write_text("# a host\nDr{\n")
    assert read_graph_file(str(path)) == g
    path.write_text("Dr{  # a host\n# the end\n")
    assert read_graph_file(str(path)) == g
    # one graph per file: a second graph line is still refused
    path.write_text("# two hosts\nDr{\nDr{\n")
    assert main(["--quiet", "check", str(path), "path:3"]) == 2
    assert "graph6 byte out of range" in capsys.readouterr().err


def test_utf8_comments_are_ignored(tmp_path):
    # the line breaks and every character outside a comment are ASCII, so
    # each comment character reads as '?' and no line moves
    path = tmp_path / "g.edges"
    path.write_bytes("# p=5 — hôte\r\n0 1 # café\r\n1 2\n".encode("utf-8"))
    assert read_text_file(str(path)) == "# p=5 ? h?te\r\n0 1 # caf?\r\n1 2\n"
    assert read_graph_file(str(path)) == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    path.write_bytes("# p=5\n0 1 # café\n".encode("utf-8"))
    assert read_graph_file(str(path)) == SimpleGraph.from_edges(5, [(0, 1)])


@pytest.mark.parametrize(
    "data,line",
    [
        ("0 1\n1 2 café\n".encode("utf-8"), 2),
        ("0 1\n١ ٢\n".encode("utf-8"), 2),  # digits that int() would read
        ("0 1 # ok\n1 2\x85 2 3\n".encode("utf-8"), 2),  # a non-ASCII line break
        ("0 1 # é\n\n3 4 é\n".encode("utf-8"), 3),
        (b"0 1\r\n1 2 # caf\xe9\n", 2),
        (b"\xff\n", 1),
        (b"0 1\n1 2\n\xc3", 3),
    ],
)
def test_non_ascii_outside_comments_names_the_line(tmp_path, data, line):
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^line {line}: (non-ASCII|not UTF-8)"):
        read_graph_file(str(path))
