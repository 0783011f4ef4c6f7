"""Extremal host graphs matching the closed-form edge counts.

Four building blocks appear:

* ``clique_union(k, n, r)`` -- ``k`` blocks ``K_{n-1}`` followed by ``K_r``;
  the universal lower-bound witness at every residue.
* ``near_regular(m, d)`` -- a circulant-based graph on ``m`` vertices that is
  ``d``-regular when ``d m`` is even and has a single vertex of degree
  ``d - 1`` otherwise; ``floor(d m / 2)`` edges, the star-free maximizer and
  the "regular arm" of the two-arm maxima.
* ``lemma46_even`` / ``lemma46_odd`` -- a connected graph on ``2n - 9``
  vertices whose edge count exceeds the clique union at its residue once
  ``n >= 28``; three vertices reach the degree ceiling ``n - 4``.
* ``lemma47_construct`` -- a connected graph on ``2n - 8`` vertices (four
  congruence cases mod 4) that exceeds the clique union once ``n >= 41``;
  ``v_0`` plus a block of "high" vertices reach degree ``n - 4``.

``extremal_graph`` assembles the right base for a family and residue,
prepends ``k - 1`` complete blocks at the lowest vertex indices, and asserts
that the edge count equals the closed-form value.  Its bases and block rows
come from small bounded caches and are copied into each new host; the public
functions above return a fresh graph on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .graphs import SimpleGraph
from .trees import TreeFamily
from .formulas import MIN_N, decompose, extremal_value, residue_case

__all__ = [
    "ConstructionRecipe",
    "block_rows",
    "clique_union",
    "near_regular",
    "lemma46_even",
    "lemma46_odd",
    "lemma47_construct",
    "extremal_graph",
]


@dataclass(frozen=True, slots=True)
class ConstructionRecipe:
    """What ``extremal_graph`` built: base kind, block count, and sizes."""

    family: str
    n: int
    p: int
    base: str  # "clique-union" | "near-regular" | "L4.6-even" | "L4.6-odd" | "L4.7-case1".."L4.7-case4"
    prepended_blocks: int
    base_order: int
    edges: int


# ---------------------------------------------------------------- basic bases

def clique_union(k: int, n: int, r: int) -> SimpleGraph:
    """``k`` copies of K_{n-1} (lowest indices) followed by K_r."""
    if k < 1:
        raise ValueError(f"clique_union requires k >= 1 (got k={k})")
    if n < 3:
        raise ValueError(f"clique_union requires n >= 3 (got n={n})")
    if not 0 <= r <= n - 2:
        raise ValueError(f"clique_union requires 0 <= r <= n-2 (got r={r}, n={n})")
    g = _prepend_blocks(SimpleGraph.complete(r), k, n)
    assert g.edge_count() == k * comb(n - 1, 2) + comb(r, 2)
    return g


def near_regular(m: int, d: int) -> SimpleGraph:
    """A ``d``-regular graph on ``m`` vertices when ``d m`` is even; otherwise
    ``d m`` is odd and exactly one vertex (index ``(m-1)//2``) has degree
    ``d - 1``.  Always ``floor(d m / 2)`` edges.

    Built as the circulant with offsets ``1..d//2`` plus, for odd ``d``,
    either the ``m/2`` offset (even ``m``: a perfect matching) or a
    near-perfect matching ``{i, i + (m+1)/2 mod m}`` for
    ``i = 0..(m-3)/2`` (odd ``m``).
    """
    if m < 1:
        raise ValueError(f"near_regular requires m >= 1 (got m={m})")
    if not 0 <= d <= m - 1:
        raise ValueError(f"near_regular requires 0 <= d <= m-1 (got d={d}, m={m})")
    offsets = set(range(1, d // 2 + 1))
    if d % 2 and m % 2 == 0:
        offsets.add(m // 2)
    g = SimpleGraph.circulant(m, offsets)
    if d % 2 and m % 2:
        half = (m + 1) // 2
        extra = [(i, (i + half) % m) for i in range((m - 1) // 2)]
        adj = list(g.adj)
        for a, b in extra:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        g = SimpleGraph(m, adj)
    assert g.edge_count() == d * m // 2
    return g


# ---------------------------------------------------------------- ad-hoc bases

def _check_degrees(g: SimpleGraph, expected: list[int]) -> None:
    got = list(g.degree_sequence())
    want = sorted(expected, reverse=True)
    assert got == want, f"degree multiset mismatch: got {got}, want {want}"


def _spine_layout(
    n: int, low: int, companions: int, edges: list[tuple[int, int]]
) -> SimpleGraph:
    """The host layout both connected bases share, on ``n - 3 + companions``
    vertices: ``edges`` (the core and the pairing) plus the hub ``v_0``
    joined to the spine ``v_1..v_{n-4}``, every spine vertex above ``v_low``
    joined to every lower spine vertex, and a clique on the companions
    ``u_1..u_companions`` at ``n-3..``."""
    edges = list(edges)
    edges += [(0, i) for i in range(1, n - 3)]
    edges += [(a, h) for h in range(low + 1, n - 3) for a in range(1, h)]
    edges += combinations(range(n - 3, n - 3 + companions), 2)
    return SimpleGraph.from_edges(n - 3 + companions, edges)


def _sparse_complement(m: int, start: int, count: int) -> list[tuple[int, int]]:
    """The edges on ``v_1..v_m`` of the complement of the cycle ``1..m`` plus
    the chords ``v_i v_{start+i-1}`` for ``i = 1..count`` (``start >= 2``, so
    every pair is written low end first)."""
    h = {(i, i + 1) for i in range(1, m)} | {(1, m)}
    h |= {(i, start + i - 1) for i in range(1, count + 1)}
    return [e for e in combinations(range(1, m + 1), 2) if e not in h]


def _paired(n: int, pairs: int) -> list[tuple[int, int]]:
    """Lemma 4.6's pairing: spine pair ``(v_{2i-1}, v_{2i})`` joined
    completely to companion pair ``(u_{2i-1}, u_{2i})`` for ``i <= pairs``."""
    return [
        (2 * i - a, n - 4 + 2 * i - b)
        for i in range(1, pairs + 1)
        for a in (0, 1)
        for b in (0, 1)
    ]


def lemma46_even(n: int) -> SimpleGraph:
    """Connected base on ``2n - 9`` vertices for even ``n >= 26``.

    Layout (vertex indices): hub ``v_0 = 0``; spine ``v_1..v_{n-4}`` at
    ``1..n-4``; companions ``u_1..u_{n-6}`` at ``n-3..2n-10``.  Edges:
    ``v_0`` to every spine vertex; ``v_{n-5}`` and ``v_{n-4}`` to all of
    ``v_1..v_{n-6}`` and to each other; an ``(n-10)``-regular circulant core
    on ``v_1..v_{n-6}``; a complete graph on the companions; and a pairing
    joining spine pair ``(v_{2i-1}, v_{2i})`` completely to companion pair
    ``(u_{2i-1}, u_{2i})``.

    Exactly three vertices (``v_0``, ``v_{n-5}``, ``v_{n-4}``) have degree
    ``n - 4``; all others have degree ``n - 5``.  Edge count
    ``(2 n^2 - 19 n + 48) / 2``.
    """
    if n < 26 or n % 2:
        raise ValueError(f"lemma46_even requires even n >= 26 (got n={n})")
    core = [(1 + a, 1 + b) for a, b in near_regular(n - 6, n - 10).edges()]
    g = _spine_layout(n, n - 6, n - 6, core + _paired(n, (n - 6) // 2))
    assert g.edge_count() == (2 * n * n - 19 * n + 48) // 2
    _check_degrees(g, [n - 4] * 3 + [n - 5] * (2 * n - 12))
    return g


def lemma46_odd(n: int) -> SimpleGraph:
    """Connected base on ``2n - 9`` vertices for odd ``n >= 27``.

    Same layout as :func:`lemma46_even`, but the core on ``v_1..v_{n-6}`` is
    the *complement* of a sparse graph H (a cycle plus a chord matching
    ``v_i v_{i+(n-7)/2}`` for ``i = 1..(n-7)/2``), and the pairing covers
    ``v_1..v_{n-7}`` in pairs plus the single join ``v_{n-6} u_{n-6}``.

    Degrees: three vertices at ``n - 4``, one (``u_{n-6}``) at ``n - 6``,
    the remaining ``2n - 13`` at ``n - 5``.  Edge count
    ``(2 n^2 - 19 n + 47) / 2``.
    """
    if n < 27 or n % 2 == 0:
        raise ValueError(f"lemma46_odd requires odd n >= 27 (got n={n})")
    core = _sparse_complement(n - 6, (n - 5) // 2, (n - 7) // 2)
    core.append((n - 6, 2 * n - 10))  # the leftover single pairing v_{n-6} u_{n-6}
    g = _spine_layout(n, n - 6, n - 6, core + _paired(n, (n - 7) // 2))
    assert g.edge_count() == (2 * n * n - 19 * n + 47) // 2
    _check_degrees(g, [n - 4] * 3 + [n - 5] * (2 * n - 13) + [n - 6])
    return g


def lemma47_construct(n: int) -> SimpleGraph:
    """Connected base on ``2n - 8`` vertices for ``n >= 37``.

    Layout: hub ``v_0 = 0``; spine ``v_1..v_{n-4}`` at ``1..n-4`` split into
    a *low* range ``v_1..v_L`` and a *high* range ``v_{L+1}..v_{n-4}``;
    companions ``u_1..u_{n-5}`` at ``n-3..2n-9`` forming a complete graph.
    ``v_0`` joins every spine vertex; every high vertex joins every
    lower-indexed spine vertex (so the high range plus anything below it is
    complete).  The low range carries a sparse-complement (or directly
    near-regular) core, and each low vertex is paired with one or two
    companions so that every companion has exactly one spine neighbour.

    With ``s = (n - 1) mod 4`` (cases 1..4 are ``n = 1, 2, 3, 0 mod 4``),
    ``L = (n - 5 + s) / 2``; for ``s > 0`` the core is the complement of the
    cycle on the low range plus ``(n - 5 - s) / 4`` chords starting at
    ``v_{(n-1-s)/4}``, for ``s = 0`` it is ``near_regular(L, (n - 13) / 2)``;
    the last ``s`` low vertices take one companion each, the others two.
    Degrees: ``v_0`` and every high vertex at ``n - 4``, everything else at
    ``n - 5``.  Edge count ``n^2 - 9 n + 29 + (n - 37) // 4``.
    """
    if n < 37:
        raise ValueError(f"lemma47_construct requires n >= 37 (got n={n})")
    s = (n - 1) % 4
    low = (n - 5 + s) // 2
    if s:
        edges = _sparse_complement(low, (n - 1 - s) // 4, (n - 5 - s) // 4)
    else:
        edges = [(1 + a, 1 + b) for a, b in near_regular(low, (n - 13) // 2).edges()]
    # Low vertex i takes companions u_{2i-1}, u_{2i}; the last s take one each.
    doubled = low - s
    edges += [(i, n - 4 + 2 * i - b) for i in range(1, doubled + 1) for b in (0, 1)]
    edges += [(doubled + t, n - 4 + 2 * doubled + t) for t in range(1, s + 1)]
    g = _spine_layout(n, low, n - 5, edges)
    assert g.edge_count() == n * n - 9 * n + 29 + (n - 37) // 4
    _check_degrees(g, [n - 4] * (n - 3 - low) + [n - 5] * (n - 5 + low))
    return g


# ---------------------------------------------------------------- assembly

@lru_cache(maxsize=256)
def block_rows(blocks: int, n: int) -> tuple[int, ...]:
    """The adjacency rows of ``blocks`` disjoint complete blocks ``K_{n-1}``
    on the lowest ``blocks * (n - 1)`` vertex indices."""
    rows: list[int] = []
    for start in range(0, blocks * (n - 1), n - 1):
        full = ((1 << (n - 1)) - 1) << start
        rows += [full ^ (1 << v) for v in range(start, start + n - 1)]
    return tuple(rows)


def _prepend_blocks(base: SimpleGraph, blocks: int, n: int) -> SimpleGraph:
    """``blocks`` complete blocks ``K_{n-1}`` at the lowest indices, then
    ``base`` shifted above them, in a new row list."""
    shift = blocks * (n - 1)
    adj = list(block_rows(blocks, n))
    adj += [row << shift for row in base.adj]
    return SimpleGraph(shift + base.n, adj)


# Remainder bases on ``n - 1 + r`` vertices, keyed by ``ResidueCase.base``,
# each with the label recorded in its recipe.
_BASES = {
    "clique-union": lambda n, r: (clique_union(1, n, r), "clique-union"),
    "near-regular": lambda n, r: (near_regular(n - 1 + r, n - 5), "near-regular"),
    "L4.6": lambda n, r: (
        (lemma46_even(n), "L4.6-even") if n % 2 == 0 else (lemma46_odd(n), "L4.6-odd")
    ),
    "L4.7": lambda n, r: (lemma47_construct(n), f"L4.7-case{[4, 1, 2, 3][n % 4]}"),
}


@lru_cache(maxsize=64)
def _base(use: str, n: int, r: int) -> tuple[SimpleGraph, str]:
    """``_BASES[use](n, r)``, built once per key.  Callers only read the
    base: ``_prepend_blocks`` copies its rows into a new host."""
    return _BASES[use](n, r)


def extremal_graph(
    f: TreeFamily, p: int, connected: bool = False
) -> tuple[SimpleGraph, ConstructionRecipe]:
    """An extremal host of order ``p`` avoiding the family tree, plus the
    recipe used.  The edge count is asserted to equal the closed-form value.

    For the spider families the base comes from the residue case (see
    ``formulas.CASES``): the case's own base where it beats the clique union,
    the clique union otherwise.  ``connected=True`` switches to a connected
    base whenever one attaining the value exists (the ``t3`` residues
    ``n-8`` with ``n >= 26`` and ``n-7`` with ``n >= 37``); otherwise it is a
    no-op.
    """
    kind = f.kind
    n = f.n

    if kind == "explicit":
        raise ValueError("no extremal construction known for explicit trees")
    if kind == "star":
        assert f.s is not None
        if p < f.s + 1:
            raise ValueError(f"construction requires p >= s+1 (got p={p}, s={f.s})")
        g = near_regular(p, f.s - 1)
        recipe = ConstructionRecipe(kind, n, p, "near-regular", 0, p, g.edge_count())
        assert recipe.edges == extremal_value(f, p).value
        return g, recipe
    if kind == "path":
        if n < 3 or p < n - 1:
            raise ValueError(f"construction requires n >= 3, p >= n-1 (got p={p}, n={n})")
    elif n < MIN_N[kind]:
        raise ValueError(f"construction for {kind} requires n >= {MIN_N[kind]} (got n={n})")
    elif p < n:
        raise ValueError(f"construction for {kind} requires p >= n (got p={p}, n={n})")

    d = decompose(p, n)
    use = "clique-union"
    if kind != "path":
        case = residue_case(kind, n, d.r)
        if case.bonus(n, d.r) > 0 or (connected and case.has_connected(n)):
            use = case.base
    base, label = _base(use, n, d.r)
    g = _prepend_blocks(base, d.k - 1, n)
    recipe = ConstructionRecipe(kind, n, p, label, d.k - 1, n - 1 + d.r, g.edge_count())
    assert recipe.edges == extremal_value(f, p).value, (
        f"construction/formula mismatch for {kind}, n={n}, p={p}"
    )
    return g, recipe
