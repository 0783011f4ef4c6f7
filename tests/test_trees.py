"""Forbidden-tree families: realization, degrees, spider shapes, spec strings."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from turantrees.graphs import SimpleGraph, iter_bits
from turantrees.trees import (
    explicit_tree,
    is_tree,
    parse_family_spec,
    path,
    realize,
    spec_string,
    star,
    t3,
    tpp,
    tppp,
)

FAMILY_MAKERS = [t3, tpp, tppp]


# ---------------------------------------------------------------- realization

def test_frozen_degree_sequences_at_n15():
    assert realize(t3(15)).degree_sequence() == (11, 4) + (1,) * 13
    assert realize(tpp(15)).degree_sequence() == (11, 3, 2) + (1,) * 12
    assert realize(tppp(15)).degree_sequence() == (11, 2, 2, 2) + (1,) * 11


def test_hub_and_branch_degrees():
    g = realize(t3(15))
    assert g.degree(0) == 11 and g.degree(1) == 4
    g = realize(tpp(15))
    assert g.degree(0) == 11 and g.degree(1) == 3 and g.degree(2) == 2
    g = realize(tppp(15))
    assert g.degree(0) == 11 and all(g.degree(v) == 2 for v in (1, 2, 3))


def test_smallest_family_members():
    # At n=6 the hub degree n-4 = 2 no longer dominates; the third family
    # degenerates to the 6-vertex path.
    assert realize(tppp(6)).degree_sequence() == (2, 2, 2, 2, 1, 1)
    assert realize(t3(6)).degree_sequence() == (4, 2, 1, 1, 1, 1)
    assert realize(tpp(6)).degree_sequence() == (3, 2, 2, 1, 1, 1)


@pytest.mark.parametrize("maker", FAMILY_MAKERS)
@pytest.mark.parametrize("n", list(range(6, 25)))
def test_families_realize_trees(maker, n):
    g = realize(maker(n))
    assert g.order == n
    assert g.edge_count() == n - 1
    assert g.is_connected()
    assert is_tree(g)


@pytest.mark.parametrize("f", [path(1), path(2), path(9), star(1), star(8)])
def test_paths_and_stars_realize_trees(f):
    assert is_tree(realize(f))


def test_realized_order_matches_family_n():
    assert realize(path(7)).order == 7
    assert realize(star(9)).order == 10  # s leaves plus the hub


# -------------------------------------------------------------------- degrees

@pytest.mark.parametrize("maker", FAMILY_MAKERS)
@pytest.mark.parametrize("n", list(range(6, 22)))
def test_max_degree_closed_form(maker, n):
    # The hub has degree n - 4; v_1 carries 3, 2 or 1 of the last leaves.
    branch = {t3: 4, tpp: 3, tppp: 2}[maker]
    assert realize(maker(n)).max_degree() == max(n - 4, branch)


@pytest.mark.parametrize("n", list(range(10, 30)))
def test_all_families_share_hub_degree_from_n10(n):
    assert (
        realize(t3(n)).max_degree()
        == realize(tpp(n)).max_degree()
        == realize(tppp(n)).max_degree()
        == n - 4
    )


def test_max_degree_of_paths_and_stars():
    assert realize(path(1)).max_degree() == 0
    assert realize(path(2)).max_degree() == 1
    assert realize(path(9)).max_degree() == 2
    assert realize(star(7)).max_degree() == 7


# -------------------------------------------------------------- spider shapes

@pytest.mark.parametrize(
    "maker,n_branches,branch_demands",
    [(t3, 1, (3,)), (tpp, 2, (2, 1)), (tppp, 3, (1, 1, 1))],
)
@pytest.mark.parametrize("n", [10, 15, 20])
def test_skeleton_decomposition(maker, n_branches, branch_demands, n):
    # the internal vertices induce a star: centre 0 joined to the branches
    # 1..n_branches, and every other vertex is a leaf of one of them
    t = realize(maker(n))
    branches = range(1, n_branches + 1)
    internal = [v for v in range(n) if t.degree(v) >= 2]
    assert internal == [0, *branches]
    center_leaves = [v for v in iter_bits(t.adj[0]) if t.degree(v) == 1]
    branch_leaves = [[v for v in iter_bits(t.adj[b]) if v != 0] for b in branches]
    assert len(center_leaves) == n - 5 - (n_branches - 1)
    assert tuple(map(len, branch_leaves)) == branch_demands
    assert all(t.degree(v) == 1 for leaves in branch_leaves for v in leaves)
    # internal vertices + all leaves account for every tree vertex
    assert len(internal) + len(center_leaves) + sum(map(len, branch_leaves)) == n


def prufer_tree(n: int, seq: tuple[int, ...]) -> SimpleGraph:
    """The labelled tree on ``n >= 2`` vertices with Prüfer sequence ``seq``."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = deg.index(1)
        edges.append((leaf, x))
        deg[leaf] -= 1
        deg[x] -= 1
    edges.append(tuple(v for v in range(n) if deg[v] == 1))
    return SimpleGraph.from_edges(n, edges)


# ------------------------------------------------------------------- explicit

def test_explicit_tree_accepts_trees_only():
    f = explicit_tree([(0, 1), (1, 2)])
    assert realize(f).degree_sequence() == (2, 1, 1)
    with pytest.raises(ValueError, match="not a tree"):
        explicit_tree([(0, 1), (1, 2), (0, 2)])  # cycle
    with pytest.raises(ValueError, match="not a tree"):
        explicit_tree([(0, 1), (2, 3)])  # disconnected
    with pytest.raises(ValueError, match="at least one edge"):
        explicit_tree([])


@given(st.integers(2, 9), st.randoms(use_true_random=False))
def test_explicit_tree_roundtrips_random_trees(n, rng):
    # random labeled tree: attach each vertex to a random earlier one
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    f = explicit_tree(edges)
    g = realize(f)
    assert is_tree(g)
    assert sorted(g.edges()) == sorted((min(u, v), max(u, v)) for u, v in edges)


# ------------------------------------------------------------- domain errors

@pytest.mark.parametrize("maker", FAMILY_MAKERS)
def test_family_minimum_order(maker):
    with pytest.raises(ValueError, match="n >= 6"):
        maker(5)
    maker(6)  # boundary is allowed


def test_path_star_minimums():
    with pytest.raises(ValueError, match="n >= 1"):
        path(0)
    with pytest.raises(ValueError, match="s >= 1"):
        star(0)


# --------------------------------------------------------------- spec strings

@pytest.mark.parametrize(
    "spec,kind,n",
    [
        ("t3:15", "t3", 15),
        ("tpp:10", "tpp", 10),
        ("tppp:6", "tppp", 6),
        ("path:7", "path", 7),
        ("star:9", "star", 10),
    ],
)
def test_parse_family_spec(spec, kind, n):
    f = parse_family_spec(spec)
    assert f.kind == kind and f.n == n
    assert spec_string(f) == spec


def test_parse_family_spec_from_file(tmp_path):
    p = tmp_path / "tree.edges"
    p.write_text("0 1\n1 2\n1 3\n")
    f = parse_family_spec(f"file:{p}")
    assert f.kind == "explicit"
    assert realize(f).degree_sequence() == (3, 1, 1, 1)
    assert spec_string(f) == "explicit:n=4"


def test_parse_family_spec_errors():
    with pytest.raises(ValueError, match="expected '<tag>:<arg>'"):
        parse_family_spec("t3")
    with pytest.raises(ValueError, match="non-integer"):
        parse_family_spec("t3:x")
    with pytest.raises(ValueError, match="unknown family tag"):
        parse_family_spec("spider:12")
    with pytest.raises(OSError):
        parse_family_spec("file:/nonexistent/tree.edges")
