"""Forbidden-tree families: realization, degrees, skeletons, spec strings."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from turantrees.containment import build_star_skeleton
from turantrees.graphs import SimpleGraph
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


# ------------------------------------------------------------------ skeletons

@pytest.mark.parametrize(
    "maker,n_branches,branch_demands",
    [(t3, 1, (3,)), (tpp, 2, (2, 1)), (tppp, 3, (1, 1, 1))],
)
@pytest.mark.parametrize("n", [10, 15, 20])
def test_skeleton_decomposition(maker, n_branches, branch_demands, n):
    f = maker(n)
    sk = build_star_skeleton(realize(f))
    assert sk is not None
    assert sk.center == 0
    assert sk.branches == tuple(range(1, n_branches + 1))
    assert len(sk.center_leaves) == n - 5 - (n_branches - 1)
    assert tuple(len(b) for b in sk.branch_leaves) == branch_demands
    # internal vertices + all leaves account for every tree vertex
    internal = 1 + len(sk.branches)
    leaves = len(sk.center_leaves) + sum(len(b) for b in sk.branch_leaves)
    assert internal + leaves == n
    # reconstruction: center-leaf edges + branch edges + branch-leaf edges
    # re-derive exactly the realized edge list
    edges = [(sk.center, b) for b in sk.branches]
    edges += [(sk.center, v) for v in sk.center_leaves]
    for b, leaf_block in zip(sk.branches, sk.branch_leaves):
        edges += [(b, v) for v in leaf_block]
    rebuilt = SimpleGraph.from_edges(n, edges)
    assert rebuilt == realize(f)


def test_skeleton_absent_for_degenerate_member():
    # tppp at n=6 is a path; its internal vertices do not induce a star,
    # so the star-skeleton fast path must decline it.
    assert build_star_skeleton(realize(tppp(6))) is None


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


def test_skeleton_on_every_labelled_tree_up_to_7_vertices():
    for n in range(1, 8):
        seqs = itertools.product(range(n), repeat=n - 2) if n >= 2 else []
        trees = [prufer_tree(n, seq) for seq in seqs] or [SimpleGraph(1)]
        for t in trees:
            internal = [v for v in range(n) if t.degree(v) >= 2]
            # brute force: some internal vertex is adjacent to every other
            # internal vertex, and no two others are adjacent
            stars = [
                c for c in internal
                if all(t.has_edge(c, v) for v in internal if v != c)
                and not any(
                    t.has_edge(a, b)
                    for a, b in itertools.combinations(internal, 2)
                    if c not in (a, b)
                )
            ]
            sk = build_star_skeleton(t)
            assert (sk is not None) == bool(stars), t.adj
            if sk is None:
                continue
            # the centre: the only candidate, or of two, the higher degree
            # and then the lower index
            assert sk.center == min(stars, key=lambda c: (-t.degree(c), c))
            assert sorted((sk.center, *sk.branches)) == internal
            counts = [len(ls) for ls in sk.branch_leaves]
            assert counts == sorted(counts, reverse=True)
            edges = [(sk.center, b) for b in sk.branches]
            edges += [(sk.center, v) for v in sk.center_leaves]
            for b, leaf_block in zip(sk.branches, sk.branch_leaves):
                edges += [(b, v) for v in leaf_block]
            assert SimpleGraph.from_edges(n, edges) == t


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
