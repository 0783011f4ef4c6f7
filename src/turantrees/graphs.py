"""Simple undirected graphs on vertex set {0, ..., n-1}, stored as bitmasks.

The adjacency structure is a list ``adj`` of ``n`` Python ints; bit ``u`` of
``adj[v]`` is set iff ``{u, v}`` is an edge.  All graphs are finite, simple
(no loops, no multi-edges) and undirected, so ``adj`` is symmetric and has a
zero diagonal.  Bitmask rows make the hot operations of this package --
neighbourhood intersection, degree counting, component sweeps -- single
machine-word-ish operations via ``int.bit_count``.

Serialization supports two formats:

* **graph6** -- the compact ASCII format for simple graphs (one line per
  graph).  Both header regimes are implemented: single-byte orders
  ``n <= 62`` and the three-byte long form for ``63 <= n <= 258047``.
* **edge text** -- one ``u v`` pair per line, zero-based, ``#`` comments and
  blank lines ignored.  An optional header ``p=<count>`` before the first
  edge gives the vertex count, so trailing isolated vertices survive;
  without it the count is ``max index + 1``.  Either way the count is at
  most 258047, the graph6 limit.  Graph files written in this
  format start with the header as a comment line, ``# p=<count>``, which
  keeps every line a two-token line that any edge-list reader skips.

Both decoders take time linear in the file size, with no Python loop per bit
or per character.  graph6 is decoded by ``binascii`` and cut into one int per
column; the mirror half of the rows comes from a bit-matrix transpose whose
transient memory is about three packed ``n x n`` bit matrices (``n**2 / 8``
bytes each).  Edge text is checked by one regular-expression search and read
by ``str.split``; only the lines up to the first edge, and a file with a
malformed line, are read line by line.
"""

from __future__ import annotations

import binascii
import re
from operator import eq
from typing import Iterable, Iterator

__all__ = [
    "SimpleGraph",
    "from_graph6",
    "to_graph6",
    "from_edge_text",
    "to_edge_text",
    "read_graph_file",
    "read_text_file",
    "write_graph_file",
    "iter_bits",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimpleGraph:
    """An immutable-by-convention simple graph on ``{0, ..., n-1}``."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[int] | None = None):
        if n < 0:
            raise ValueError("graph order must be non-negative")
        self.n = n
        self.adj = [0] * n if adj is None else adj

    # ------------------------------------------------------------ constructors

    @staticmethod
    def empty(n: int) -> "SimpleGraph":
        """The edgeless graph on ``n`` vertices."""
        return SimpleGraph(n)

    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        """The complete graph K_n."""
        full = (1 << n) - 1
        return SimpleGraph(n, [full ^ (1 << v) for v in range(n)])

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build a graph on ``n`` vertices from an iterable of edge pairs.

        Raises ``ValueError`` on loops or endpoints outside ``[0, n)``.
        Repeated edges are collapsed.
        """
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return SimpleGraph(n, adj)

    @staticmethod
    def circulant(n: int, offsets: Iterable[int]) -> "SimpleGraph":
        """Circulant graph: ``i ~ j`` iff ``(i - j) mod n`` is ±an offset.

        Offsets must lie in ``[1, n/2]``.  The resulting degree is
        ``2 * #offsets``, minus one if ``n`` is even and ``n/2`` is used
        (that offset contributes a perfect matching, one neighbour each).
        """
        offs = sorted(set(offsets))
        if offs and not (1 <= offs[0] and offs[-1] <= n // 2):
            raise ValueError(f"offsets must lie in [1, {n // 2}] for order {n}")
        # Row v is row 0 rotated left by v within n bits.
        full = (1 << n) - 1
        row = 0
        for o in offs:
            row |= 1 << o | 1 << (n - o)
        adj = []
        for _ in range(n):
            adj.append(row)
            row = (row << 1 | row >> (n - 1)) & full
        return SimpleGraph(n, adj)

    # ------------------------------------------------------------ basic queries

    @property
    def order(self) -> int:
        return self.n

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """All vertex degrees, sorted in non-increasing order."""
        return tuple(sorted(map(int.bit_count, self.adj), reverse=True))

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ``(u, v)`` with ``u < v``, in lexicographic order."""
        for u in range(self.n):
            yield from ((u, w) for w in iter_bits(self.adj[u] >> (u + 1) << (u + 1)))

    # ------------------------------------------------------------ combinators

    def complement(self) -> "SimpleGraph":
        full = (1 << self.n) - 1
        return SimpleGraph(
            self.n, [(full ^ row ^ (1 << v)) for v, row in enumerate(self.adj)]
        )

    def disjoint_union(self, other: "SimpleGraph") -> "SimpleGraph":
        """Disjoint union; ``other``'s vertices are shifted up by ``self.n``."""
        shift = self.n
        adj = list(self.adj) + [row << shift for row in other.adj]
        return SimpleGraph(self.n + other.n, adj)

    def relabeled(self, perm: list[int]) -> "SimpleGraph":
        """Image under the permutation ``v -> perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of the vertex set")
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            target = 0
            for u in iter_bits(row):
                target |= 1 << perm[u]
            adj[perm[v]] = target
        return SimpleGraph(self.n, adj)

    # ------------------------------------------------------------ connectivity

    def component_masks(self) -> list[int]:
        """Vertex bitmasks of the connected components, by smallest member."""
        unseen = (1 << self.n) - 1
        out: list[int] = []
        while unseen:
            start = unseen & -unseen
            comp = start
            frontier = start
            unseen ^= start
            while frontier:
                nxt = 0
                for v in iter_bits(frontier):
                    nxt |= self.adj[v] & unseen
                unseen &= ~nxt
                comp |= nxt
                frontier = nxt
            out.append(comp)
        return out

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples."""
        return [tuple(iter_bits(mask)) for mask in self.component_masks()]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.component_masks()) == 1

    # ------------------------------------------------------------ dunder

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count()})"


# ---------------------------------------------------------------- graph6

_G6_LONG = 126  # '~'
_MAX_ORDER = 258047  # the largest order graph6 can encode
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_BYTES = bytes(range(63, 127))
# base64 digit <-> graph6 byte: both code one six-bit group per byte, most
# significant bit first.
_B64_TO_G6 = bytes.maketrans(_B64, _G6_BYTES)
_G6_TO_B64 = bytes.maketrans(_G6_BYTES, _B64)
# byte -> the same byte with its bit order reversed
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# per byte, the bits ``i`` with ``i & j == 0``, for the swaps of _transpose
_SWAP_MASKS = ((4, b"\x0f"), (2, b"\x33"), (1, b"\x55"))


def to_graph6(g: SimpleGraph) -> str:
    """Encode a graph as a graph6 string (without the optional ``>>graph6<<``
    prefix).  Orders up to 258047 are supported."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= _MAX_ORDER:
        head = [_G6_LONG, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    else:
        raise ValueError(f"graph too large for this graph6 encoder (n > {_MAX_ORDER})")

    # Upper-triangle bits in column order: x(0,1), x(0,2), x(1,2), x(0,3), ...
    # Column v is bits 0..v-1 of adj[v], lowest first, so the reversed stream
    # is the columns from the last one down, each written highest bit first.
    # The stream, padded to whole base64 groups of 24 bits, is coded in one
    # pass, so the peak memory is about two bytes per vertex pair.
    nbits = n * (n - 1) // 2
    pad = -nbits % 24
    bits = "".join(
        [format(g.adj[v] & ((1 << v) - 1), f"0{v}b") for v in range(n - 1, 0, -1)]
    )[::-1]
    raw = (int(bits or "0", 2) << pad).to_bytes((nbits + pad) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)
    return bytes(head).decode("ascii") + body[: (nbits + 5) // 6].decode("ascii")


def from_graph6(text: str) -> SimpleGraph:
    """Decode a graph6 string.  Accepts an optional ``>>graph6<<`` prefix and
    ignores surrounding whitespace; raises ``ValueError`` on malformed input
    (bad header, bytes outside ``[63, 126]``, wrong body length)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    data = s.encode("ascii", errors="strict")
    if not data:
        raise ValueError("empty graph6 string")
    if data.translate(None, _G6_BYTES):
        raise ValueError("graph6 byte out of range [63, 126]")

    if data[0] == _G6_LONG:
        if len(data) >= 2 and data[1] == _G6_LONG:
            raise ValueError("graph6 orders >= 258048 are not supported")
        if len(data) < 4:
            raise ValueError("truncated graph6 long-form header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
        if n <= 62:
            raise ValueError("non-canonical long-form header for small order")
    else:
        n = data[0] - 63
        body = data[1:]

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        kind = "truncated" if len(body) < nbytes else "trailing garbage in"
        raise ValueError(f"{kind} graph6 body: expected {nbytes} bytes, got {len(body)}")

    # Padded to whole base64 groups with zero digits ('?'), the body decodes
    # to the bit stream, most significant bit first in each byte; reversed,
    # stream bit i is bit i of the little-endian buffer.
    stream = binascii.a2b_base64(
        (body + b"?" * (-len(body) % 4)).translate(_G6_TO_B64)
    ).translate(_REVERSED)
    # Column v holds x(0,v) .. x(v-1,v): bits 0..v-1 of adj[v], lowest first.
    low = [0] * n
    start = 0
    for v in range(1, n):
        col = int.from_bytes(stream[start >> 3 : (start + v + 7) >> 3], "little")
        low[v] = col >> (start & 7) & ((1 << v) - 1)
        start += v
    return SimpleGraph(n, [row | up for row, up in zip(low, _transpose(low))])


def _transpose(rows: list[int]) -> list[int]:
    """The transpose of the square bit matrix ``rows``: bit ``u`` of row ``v``
    becomes bit ``v`` of row ``u``.

    The rows are packed, ``w`` bytes each, into eight ints by index mod 8,
    so row ``8R + k`` is row ``R`` of int ``k``.  Three masked swaps between
    those ints transpose every 8 x 8 block in place (Warren, *Hacker's
    Delight*, 7-3); the block at byte row ``R``, byte column ``C`` then
    holds, in byte ``C`` of row ``R`` of int ``k``, bits ``8R .. 8R+7`` of
    output row ``8C + k``, so each output row is one strided byte slice.
    Besides the result, this holds about three packed copies of the matrix.
    """
    n = len(rows)
    w = (n + 7) >> 3
    padded = rows + [0] * (8 * w - n)
    ints = [
        int.from_bytes(b"".join([r.to_bytes(w, "little") for r in padded[k::8]]), "little")
        for k in range(8)
    ]
    for j, pattern in _SWAP_MASKS:
        # Swap bit c of row 8R+k with bit c-j of row 8R+k+j, for k and c
        # with bit j clear in k and set in c.
        mask = int.from_bytes(pattern * (w * w), "little")
        for k in range(8):
            if not k & j:
                t = (ints[k] >> j ^ ints[k + j]) & mask
                ints[k + j] ^= t
                ints[k] ^= t << j
        del mask, t
    packed = [m.to_bytes(w * w, "little") for m in ints]
    del ints
    return [int.from_bytes(packed[u & 7][u >> 3 :: w], "little") for u in range(n)]


# ---------------------------------------------------------------- edge text

_P_HEADER = re.compile(r"(?:#\s*)?p=(\d+)")
# the line breaks of str.splitlines ("\r\n" counts as one)
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# One line as str.splitlines cuts it, group 1 without its break; finditer
# reads them lazily, and may add a blank line after the last one.
_LINE = re.compile(rf"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\Z)")
_COMMENT = re.compile(rf"#[^{_BREAKS}]*")
# A line other than a blank, a comment or "u v" with digits, blanks and
# tabs, optionally with a trailing comment; '\r' ends a "\r\n" line break.
_ODD_LINE = re.compile(
    rf"^(?![ \t]*(?:[0-9]+[ \t]+[0-9]+[ \t]*)?(?:#[^{_BREAKS}]*)?\r?$)", re.M
)


def _edge_line(raw: str, lineno: int) -> tuple[int, ...]:
    """The endpoints on one edge-text line, or ``()`` for a blank or comment
    line; raises ``ValueError`` naming the line if it holds no edge."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return ()
    parts = line.split()
    if len(parts) != 2:
        raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}") from exc
    if u < 0 or v < 0:
        raise ValueError(f"line {lineno}: negative vertex index")
    if u == v:
        raise ValueError(f"line {lineno}: loop at vertex {u}")
    return u, v


def to_edge_text(g: SimpleGraph) -> str:
    """Render a graph as ``u v`` lines (zero-based, lexicographically sorted)."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def from_edge_text(text: str) -> SimpleGraph:
    """Parse ``u v`` lines into a graph on ``max index + 1`` vertices, or on
    ``count`` vertices when a header line ``p=<count>`` (or ``# p=<count>``)
    comes before the first edge.

    Blank lines and other ``#`` comments are ignored.  An empty edge list
    without a header yields the empty graph on zero vertices.  A header count
    below ``max index + 1``, or a count above 258047, raises ``ValueError``.
    """
    count = None
    body, first = "", 1
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        raw = line.group(1)
        if count is None and (header := _P_HEADER.fullmatch(raw.strip())):
            count = int(header.group(1))
        elif raw.split("#", 1)[0].strip():
            body, first = text[line.start() :], lineno
            break

    ends = None
    if not _ODD_LINE.search(body):
        try:
            ends = list(map(int, _COMMENT.sub("", body).split()))
        except ValueError:  # a number longer than int() reads
            pass
    if ends is None or True in map(eq, ends[::2], ends[1::2]):
        # A malformed line, a loop, or a line only int() reads ('+3', '1_0',
        # other blanks): judge each line, which raises the first error.
        ends = [
            end
            for lineno, raw in enumerate(body.splitlines(), start=first)
            for end in _edge_line(raw, lineno)
        ]

    top = max(ends, default=-1)
    if count is None:
        count = top + 1
    elif count < top + 1:
        raise ValueError(
            f"header p={count} is below the largest vertex index + 1 ({top + 1})"
        )
    if count > _MAX_ORDER:
        raise ValueError(f"graph order {count} is above the supported maximum {_MAX_ORDER}")
    adj = [0] * count
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return SimpleGraph(count, adj)


def write_graph_file(g: SimpleGraph, path: str, fmt: str = "g6") -> None:
    """Write a graph to ``path`` in ``g6`` or ``edges`` format."""
    if fmt == "g6":
        payload = to_graph6(g) + "\n"
    elif fmt == "edges":
        payload = f"# p={g.n}\n" + to_edge_text(g)
    else:
        raise ValueError(f"unknown graph format {fmt!r} (expected 'g6' or 'edges')")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(payload)


def read_text_file(path: str) -> str:
    """The text of the graph or tree file ``path``, in ASCII.

    The file is read as ASCII first.  Otherwise it must be UTF-8 text whose
    non-ASCII characters all lie inside ``#`` comments; each of them reads
    as ``?``.  Any other file raises ``ValueError`` naming the first line
    that breaks the rule.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        pass
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte is valid UTF-8; "." counts its last line
        lineno = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ValueError(f"line {lineno}: not UTF-8 text") from None
    for lineno, line in enumerate(_LINE.finditer(text), start=1):
        if not _COMMENT.sub("", line.group(0)).isascii():
            raise ValueError(
                f"line {lineno}: non-ASCII character outside a '#' comment"
            )
    return text.encode("ascii", "replace").decode("ascii")


def read_graph_file(path: str) -> SimpleGraph:
    """Read a graph from ``path`` (see ``read_text_file``), sniffing the
    format.

    A first non-comment line holding two whitespace-separated integers or a
    ``p=<count>`` header is treated as edge text; anything else is parsed as
    graph6 (whose bytes never include ``=`` or ``#``) once its ``#``
    comments are removed.
    """
    text = read_text_file(path)
    for found in _LINE.finditer(text):
        line = found.group(1).split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if _P_HEADER.fullmatch(line) or (
            len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts)
        ):
            return from_edge_text(text)
        return from_graph6(_COMMENT.sub("", text) if "#" in text else text)
    return from_edge_text(text)  # only blanks/comments: empty graph
