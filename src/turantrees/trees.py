"""The forbidden trees: three spider-like families plus paths, stars, and
explicit trees.

Each of the three main families lives on vertices ``v_0, ..., v_{n-1}``
(``n >= 6``) and has maximum degree ``n - 4`` once ``n`` is large.  All three
share the edges ``v_0 v_1, ..., v_0 v_{n-4}`` and differ in where the last
three leaves ``v_{n-3}, v_{n-2}, v_{n-1}`` attach:

* ``t3``   -- all three attach to ``v_1``           (degrees: n-4, 4, 1, ...)
* ``tpp``  -- two attach to ``v_1``, one to ``v_2``  (degrees: n-4, 3, 2, ...)
* ``tppp`` -- one each to ``v_1``, ``v_2``, ``v_3``  (degrees: n-4, 2, 2, 2, ...)

``path:n`` is the path on ``n`` vertices and ``star:s`` the star with ``s``
leaves (order ``s + 1``).  ``explicit`` wraps an arbitrary tree given by an
edge list.  A family value is a frozen, hashable description; ``realize``
produces the concrete graph with ``v_i`` mapped to integer vertex ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, from_edge_text, read_text_file

__all__ = [
    "TreeFamily",
    "t3",
    "tpp",
    "tppp",
    "path",
    "star",
    "explicit_tree",
    "realize",
    "is_tree",
    "parse_family_spec",
    "spec_string",
]


@dataclass(frozen=True, slots=True)
class TreeFamily:
    """A tagged description of one forbidden tree."""

    kind: str  # "t3" | "tpp" | "tppp" | "path" | "star" | "explicit"
    n: int  # number of vertices of the tree
    s: int | None = None  # leaf count, for kind == "star"
    edges: tuple[tuple[int, int], ...] | None = None  # for kind == "explicit"


# ---------------------------------------------------------------- constructors

def t3(n: int) -> TreeFamily:
    """Spider with hub ``v_0`` of degree ``n - 4`` and three extra leaves on
    ``v_1``."""
    if n < 6:
        raise ValueError("t3 requires n >= 6")
    return TreeFamily("t3", n)


def tpp(n: int) -> TreeFamily:
    """Like ``t3`` but the extra leaves split 2 + 1 over ``v_1, v_2``."""
    if n < 6:
        raise ValueError("tpp requires n >= 6")
    return TreeFamily("tpp", n)


def tppp(n: int) -> TreeFamily:
    """Like ``t3`` but the extra leaves split 1 + 1 + 1 over
    ``v_1, v_2, v_3``."""
    if n < 6:
        raise ValueError("tppp requires n >= 6")
    return TreeFamily("tppp", n)


def path(n: int) -> TreeFamily:
    """The path P_n on ``n`` vertices."""
    if n < 1:
        raise ValueError("path requires n >= 1")
    return TreeFamily("path", n)


def star(s: int) -> TreeFamily:
    """The star K_{1,s} (``s`` leaves, ``s + 1`` vertices)."""
    if s < 1:
        raise ValueError("star requires s >= 1")
    return TreeFamily("star", s + 1, s=s)


def is_tree(g: SimpleGraph) -> bool:
    return g.n >= 1 and g.edge_count() == g.n - 1 and g.is_connected()


def explicit_tree(edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> TreeFamily:
    """An arbitrary tree given by its edge list (vertices ``0..max``)."""
    edge_tuple = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    if not edge_tuple:
        raise ValueError("explicit tree needs at least one edge")
    n = max(max(e) for e in edge_tuple) + 1
    g = SimpleGraph.from_edges(n, edge_tuple)
    if not is_tree(g):
        raise ValueError("explicit edge list is not a tree")
    return TreeFamily("explicit", n, edges=edge_tuple)


# ---------------------------------------------------------------- realization

# Where each spider attaches ``v_{n-3}, v_{n-2}, v_{n-1}`` (the paper's
# ``E_1, E_2, E_3``).
_ATTACH = {"t3": (1, 1, 1), "tpp": (1, 1, 2), "tppp": (1, 2, 3)}


def realize(f: TreeFamily) -> SimpleGraph:
    """The concrete tree, with ``v_i`` at integer vertex ``i``."""
    n = f.n
    if f.kind in _ATTACH:
        edges = [(0, i) for i in range(1, n - 3)]
        edges += zip(_ATTACH[f.kind], range(n - 3, n))
    elif f.kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif f.kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif f.kind == "explicit":
        edges = list(f.edges or ())
    else:
        raise ValueError(f"unknown tree family kind {f.kind!r}")
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------- spec strings

def parse_family_spec(spec: str) -> TreeFamily:
    """Parse a colon family spec: ``t3:15``, ``tpp:15``, ``tppp:15``,
    ``path:7``, ``star:9``, or ``file:<edge-list path>``."""
    tag, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"bad family spec {spec!r}: expected '<tag>:<arg>'")
    if tag == "file":
        g = from_edge_text(read_text_file(arg))
        return explicit_tree(list(g.edges()))
    try:
        value = int(arg)
    except ValueError as exc:
        raise ValueError(f"bad family spec {spec!r}: non-integer argument") from exc
    makers = {"t3": t3, "tpp": tpp, "tppp": tppp, "path": path, "star": star}
    if tag not in makers:
        raise ValueError(
            f"unknown family tag {tag!r} (expected t3, tpp, tppp, path, star, file)"
        )
    return makers[tag](value)


def spec_string(f: TreeFamily) -> str:
    """Inverse of ``parse_family_spec`` for the non-file kinds."""
    if f.kind == "star":
        return f"star:{f.s}"
    if f.kind == "explicit":
        return f"explicit:n={f.n}"
    return f"{f.kind}:{f.n}"
