"""Extremal host constructions: edge counts, degree multisets, dispatch."""

from __future__ import annotations

import hashlib
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turantrees import constructions
from turantrees.constructions import (
    clique_union,
    extremal_graph,
    lemma46_even,
    lemma46_odd,
    lemma47_construct,
    near_regular,
)
from turantrees.containment import contains_tree
from turantrees.formulas import decompose, extremal_value
from turantrees.trees import explicit_tree, path, star, t3, tpp, tppp


def degree_multiset(g) -> Counter:
    return Counter(g.degree_sequence())


# ---------------------------------------------------------------- clique_union

@pytest.mark.parametrize(
    "k,n,r,order,edges",
    [(1, 15, 6, 20, 106), (2, 15, 0, 28, 182), (1, 15, 8, 22, 119)],
)
def test_clique_union_frozen(k, n, r, order, edges):
    g = clique_union(k, n, r)
    assert g.order == order
    assert g.edge_count() == edges


@given(st.integers(1, 4), st.integers(3, 20), st.data())
def test_clique_union_component_structure(k, n, data):
    r = data.draw(st.integers(0, n - 2))
    g = clique_union(k, n, r)
    sizes = sorted(len(c) for c in g.components())
    assert sizes == sorted([n - 1] * k + ([r] if r else []))
    assert g.edge_count() == k * comb(n - 1, 2) + comb(r, 2)
    # each component is complete: degrees are size-1 within it
    assert degree_multiset(g) == Counter(
        {n - 2: k * (n - 1), **({r - 1: r} if r else {})}
    )


def test_clique_union_domain():
    with pytest.raises(ValueError, match="k >= 1"):
        clique_union(0, 15, 3)
    with pytest.raises(ValueError, match="n >= 3"):
        clique_union(1, 2, 0)
    with pytest.raises(ValueError, match="0 <= r <= n-2"):
        clique_union(1, 15, 14)


# ---------------------------------------------------------------- near_regular

def test_near_regular_frozen():
    g = near_regular(42, 25)
    assert g.edge_count() == 525
    assert set(g.degree_sequence()) == {25}
    g = near_regular(5, 2)
    assert g.edge_count() == 5
    assert g.degree_sequence() == (2, 2, 2, 2, 2)
    g = near_regular(7, 3)
    assert g.degree_sequence() == (3, 3, 3, 3, 3, 3, 2)
    assert g.edge_count() == 10


@given(st.integers(1, 40), st.data())
@settings(max_examples=120)
def test_near_regular_degree_contract(m, data):
    d = data.draw(st.integers(0, m - 1))
    g = near_regular(m, d)
    assert g.order == m
    assert g.edge_count() == d * m // 2
    assert g.max_degree() == (d if m > 1 or d == 0 else 0)
    counts = degree_multiset(g)
    if (d * m) % 2 == 0:
        assert counts == Counter({d: m})
    else:
        assert counts == Counter({d: m - 1, d - 1: 1})


def test_near_regular_domain():
    with pytest.raises(ValueError, match="m >= 1"):
        near_regular(0, 0)
    with pytest.raises(ValueError, match="0 <= d <= m-1"):
        near_regular(5, 5)


# ------------------------------------------------------- the named base graphs

def test_lemma46_even_frozen():
    g = lemma46_even(26)
    assert g.order == 43
    assert g.edge_count() == 453
    assert degree_multiset(g) == Counter({22: 3, 21: 40})
    assert g.is_connected()
    assert lemma46_even(28).edge_count() == 542
    assert lemma46_even(28).order == 47


@pytest.mark.parametrize("n", [26, 28, 30, 36, 44])
def test_lemma46_even_degree_law(n):
    g = lemma46_even(n)
    assert g.order == 2 * n - 9
    assert degree_multiset(g) == Counter({n - 4: 3, n - 5: 2 * n - 12})
    # displayed degree sum: three hubs at n-4, the rest at n-5
    assert 2 * g.edge_count() == 3 * (n - 4) + (2 * n - 12) * (n - 5)
    assert g.max_degree() == n - 4


def test_lemma46_odd_frozen():
    g = lemma46_odd(27)
    assert g.order == 45
    assert g.edge_count() == 496
    assert degree_multiset(g) == Counter({23: 3, 22: 41, 21: 1})
    assert g.is_connected()


@pytest.mark.parametrize("n", [27, 29, 31, 37, 45])
def test_lemma46_odd_degree_law(n):
    g = lemma46_odd(n)
    assert g.order == 2 * n - 9
    assert degree_multiset(g) == Counter({n - 4: 3, n - 5: 2 * n - 13, n - 6: 1})
    assert 2 * g.edge_count() == 2 * n * n - 19 * n + 47
    assert g.max_degree() == n - 4


def test_lemma46_domain():
    with pytest.raises(ValueError, match="even n >= 26"):
        lemma46_even(27)
    with pytest.raises(ValueError, match="even n >= 26"):
        lemma46_even(24)
    with pytest.raises(ValueError, match="odd n >= 27"):
        lemma46_odd(26)
    with pytest.raises(ValueError, match="odd n >= 27"):
        lemma46_odd(25)


LEMMA47_FROZEN = [
    # n, order, edges, hub degree count (the rest sit one lower)
    (37, 66, 1065, 18),
    (38, 68, 1131, 18),
    (39, 70, 1199, 18),
    (40, 72, 1269, 18),
]


@pytest.mark.parametrize("n,order,edges,hubs", LEMMA47_FROZEN)
def test_lemma47_frozen(n, order, edges, hubs):
    g = lemma47_construct(n)
    assert g.order == order
    assert g.edge_count() == edges
    assert degree_multiset(g) == Counter({n - 4: hubs, n - 5: order - hubs})
    assert g.is_connected()


@pytest.mark.parametrize("n", list(range(37, 53)))
def test_lemma47_value_law(n):
    g = lemma47_construct(n)
    assert g.order == 2 * n - 8
    assert g.edge_count() == n * n - 9 * n + 29 + (n - 37) // 4
    assert g.max_degree() == n - 4


def test_lemma47_domain():
    with pytest.raises(ValueError, match="n >= 37"):
        lemma47_construct(36)


@pytest.mark.parametrize(
    "build,n",
    [(lemma46_even, 26), (lemma46_even, 30), (lemma46_odd, 27), (lemma46_odd, 31)],
)
def test_lemma46_bases_are_family_free(build, n):
    g = build(n)
    assert contains_tree(g, t3(n)) is None


@pytest.mark.parametrize("n", [37, 38, 39, 40])
def test_lemma47_bases_are_family_free(n):
    assert contains_tree(lemma47_construct(n), t3(n)) is None


# sha256 over repr(g.adj) for every order of the range, in order: pins every
# adjacency row of the three connected bases.
CONNECTED_BASE_DIGESTS = [
    (lemma46_even, range(26, 121, 2),
     "55328043694d4a88c9262efece315d3e1d8cf3dcce4bb9fb49cf3234b7e653ec"),
    (lemma46_odd, range(27, 121, 2),
     "53f5649a34d86fa85fa130482196733450d0e3a5d69bcc582cad040f0e7a2b75"),
    (lemma47_construct, range(37, 121),
     "0bc9ee255522decbf1100bc403e72033930a554137677dc666067c06fc83cf04"),
]


@pytest.mark.parametrize(
    "build,orders,digest",
    CONNECTED_BASE_DIGESTS,
    ids=[build.__name__ for build, _, _ in CONNECTED_BASE_DIGESTS],
)
def test_connected_bases_are_byte_identical(build, orders, digest):
    h = hashlib.sha256()
    for n in orders:
        h.update(repr(build(n).adj).encode())
    assert h.hexdigest() == digest


# -------------------------------------------------------------- extremal_graph

def test_extremal_graph_frozen_dispatch():
    g, recipe = extremal_graph(t3(15), 23)
    assert recipe.base == "clique-union"
    assert recipe.edges == 127 == g.edge_count()
    assert sorted(len(c) for c in g.components()) == [9, 14]

    g, recipe = extremal_graph(t3(15), 21)
    assert recipe.base == "clique-union"
    assert recipe.edges == 112
    assert sorted(len(c) for c in g.components()) == [7, 14]

    g, recipe = extremal_graph(tpp(30), 42)
    assert recipe.base == "near-regular"
    assert recipe.edges == 525
    assert g.is_connected()

    g, recipe = extremal_graph(t3(15), 48)
    assert recipe.base == "clique-union"
    assert recipe.prepended_blocks == 2
    assert recipe.edges == 288
    assert sorted(len(c) for c in g.components()) == [6, 14, 14, 14]


def test_extremal_graph_connected_variants():
    g, recipe = extremal_graph(t3(26), 43, connected=True)
    assert recipe.base == "L4.6-even"
    assert recipe.edges == 453
    assert g.is_connected()

    g, recipe = extremal_graph(t3(27), 45, connected=True)
    assert recipe.base == "L4.6-odd"
    assert recipe.edges == 496

    for n, case in ((37, 1), (38, 2), (39, 3), (40, 4)):
        p = 2 * n - 8
        g, recipe = extremal_graph(t3(n), p, connected=True)
        assert recipe.base == f"L4.7-case{case}"
        assert g.is_connected()

    # default stays with the disconnected clique union at the tie points
    _, recipe = extremal_graph(t3(26), 43)
    assert recipe.base == "clique-union"
    _, recipe = extremal_graph(t3(37), 66)
    assert recipe.base == "clique-union"
    # the flag is a no-op where no connected extremal base exists
    _, recipe = extremal_graph(t3(15), 21, connected=True)
    assert recipe.base == "clique-union"


def test_extremal_graph_prefers_connected_automatically_when_strict():
    # above the tie thresholds the connected bases carry strictly more
    # edges, so they win even without the flag
    g, recipe = extremal_graph(t3(28), 2 * 28 - 9)
    assert recipe.base == "L4.6-even"
    g, recipe = extremal_graph(t3(41), 2 * 41 - 8)
    assert recipe.base == "L4.7-case1"


def test_extremal_graph_blocks_occupy_low_indices():
    g, recipe = extremal_graph(t3(15), 48)
    assert recipe.prepended_blocks == 2
    for block in range(2):
        lo = block * 14
        for u in range(lo, lo + 14):
            for v in range(u + 1, lo + 14):
                assert g.has_edge(u, v)


def test_extremal_graph_paths_and_stars():
    g, recipe = extremal_graph(path(4), 7)
    assert recipe.edges == 6 == g.edge_count()
    assert recipe.base == "clique-union"
    g, recipe = extremal_graph(star(3), 8)
    assert recipe.edges == 8
    assert recipe.base == "near-regular"
    assert set(g.degree_sequence()) == {2}  # forbidding K_{1,3} caps degrees at 2


@pytest.mark.parametrize("maker,min_n", [(t3, 15), (tpp, 10), (tppp, 10)])
def test_extremal_graph_achieves_formula_on_a_row(maker, min_n):
    n = min_n + 1
    f = maker(n)
    for p in range(n, 3 * n):
        g, recipe = extremal_graph(f, p)
        assert g.edge_count() == extremal_value(f, p).value
        assert recipe.family == f.kind and recipe.p == p


@pytest.mark.parametrize(
    "f,p",
    [
        (t3(15), 23),
        (t3(16), 24),
        (tpp(12), 19),
        (tppp(12), 19),
        (tpp(30), 42),
        (path(5), 9),
        (star(4), 9),
    ],
)
def test_extremal_graph_outputs_are_tree_free(f, p):
    g, _ = extremal_graph(f, p)
    assert contains_tree(g, f) is None


def test_extremal_graph_max_degree_bounds():
    # near-regular bases stay below the hub degree; connected bases touch it
    g, _ = extremal_graph(tpp(30), 42)
    assert g.max_degree() == 25 == 30 - 5
    g, _ = extremal_graph(t3(28), 2 * 28 - 9)
    assert g.max_degree() == 28 - 4


def test_extremal_graph_domains():
    with pytest.raises(ValueError, match="requires n >= 15"):
        extremal_graph(t3(12), 20)
    with pytest.raises(ValueError, match="requires p >= n"):
        extremal_graph(t3(15), 14)
    with pytest.raises(ValueError, match="requires n >= 10"):
        extremal_graph(tpp(9), 20)
    with pytest.raises(ValueError, match="explicit"):
        extremal_graph(explicit_tree([(0, 1)]), 5)
    with pytest.raises(ValueError, match="p >= s\\+1"):
        extremal_graph(star(4), 4)


# ---------------------------------------------------------------- base cache

def _uncached(monkeypatch, f, p, **variant):
    """``extremal_graph`` with every base built afresh from ``_BASES``."""
    with monkeypatch.context() as m:
        m.setattr(constructions, "_base", lambda use, n, r: constructions._BASES[use](n, r))
        return extremal_graph(f, p, **variant)


def test_extremal_graph_hosts_do_not_share_rows(monkeypatch):
    # changing a returned host must not change the next one
    for f, p in ((t3(28), 2 * 28 - 9), (t3(28), 3 * 28), (tpp(20), 25), (tppp(15), 44)):
        g, _ = extremal_graph(f, p)
        g.adj[:] = [row ^ 1 for row in g.adj]
        again, recipe = extremal_graph(f, p)
        fresh, fresh_recipe = _uncached(monkeypatch, f, p)
        assert again == fresh and recipe == fresh_recipe
    assert near_regular(20, 10).adj is not near_regular(20, 10).adj
    assert clique_union(2, 15, 3).adj is not clique_union(2, 15, 3).adj


@pytest.mark.parametrize("maker", [t3, tpp, tppp])
def test_extremal_graph_cache_matches_fresh_builds(maker, monkeypatch):
    for n in (15, 26, 27, 37, 41, 50):
        f = maker(n)
        for p in range(n, 3 * n + 1):
            for variant in ({}, {"connected": True}):
                g, recipe = extremal_graph(f, p, **variant)
                fresh, fresh_recipe = _uncached(monkeypatch, f, p, **variant)
                assert g.adj == fresh.adj and recipe == fresh_recipe, (n, p, variant)
