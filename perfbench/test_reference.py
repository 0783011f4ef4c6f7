"""Tests of the benchmark's reference checks.  Run: python3 -m pytest perfbench"""

from itertools import combinations
from math import comb

import pytest

import reference as ref


def _max_free_edges(p: int, tree_n: int, tree_edges) -> int:
    """ex(p; T) by trying every graph on p labelled vertices."""
    slots = list(combinations(range(p), 2))
    best = 0
    for mask in range(1 << len(slots)):
        m = mask.bit_count()
        if m <= best:
            continue
        adj = ref.from_edges(p, [e for i, e in enumerate(slots) if mask >> i & 1])
        if ref.find_embedding(adj, tree_edges, tree_n) is None:
            best = m
    return best


@pytest.mark.parametrize("n,p", [(3, 4), (4, 5), (4, 6), (5, 6)])
def test_path_value_is_the_exhaustive_maximum(n, p):
    assert ref.ex_path(p, n) == _max_free_edges(p, n, ref.path_edges(n))


@pytest.mark.parametrize("s,p", [(2, 5), (3, 5), (3, 6), (4, 6)])
def test_star_value_is_the_exhaustive_maximum(s, p):
    assert ref.ex_star(p, s) == _max_free_edges(p, s + 1, ref.star_edges(s))


@pytest.mark.parametrize("family", ref.SPIDERS)
@pytest.mark.parametrize("n", [8, 15, 30])
def test_spiders_are_trees_with_hub_degree_n_minus_4(family, n):
    edges = ref.spider_edges(family, n)
    adj = ref.from_edges(n, edges)
    assert len(edges) == n - 1 and len(ref.components(adj)) == 1
    assert len(adj[0]) == n - 4
    assert sorted(len(adj[b]) for b in (1, 2, 3)) == {
        "t3": [1, 1, 4], "tpp": [1, 2, 3], "tppp": [2, 2, 2]}[family]
    # Every vertex lies within distance 2 of the hub.
    assert {0} | adj[0] | set().union(*(adj[w] for w in adj[0])) == set(range(n))


def test_case_table_matches_the_theorems_in_their_own_form():
    for n in range(15, 60):
        for p in range(n, 5 * n):
            k, r = divmod(p, n - 1)
            value, _ = ref.case_table("t3", n, p)
            assert ref.case_table("tpp", n, p) == ref.case_table("tppp", n, p)
            if r == n - 6:  # Thm 4.3
                assert 2 * value == (n - 2) * p - 5 * (n - 6)
            if r == n - 8:  # Thm 4.4
                assert 2 * value == (n - 2) * p - 7 * n + 30 + 2 * max(n // 2, 13)
            if r == n - 7:  # Thm 4.5
                assert 2 * value == (n - 2) * p - 6 * (n - 7) + 2 * max((n - 37) // 4, 0)
            # Sandwich: block value <= ex <= the universal upper bound.
            lower = ((n - 2) * p - r * (n - 1 - r)) // 2
            upper = ((n - 2) * p - min(2 * (n - 1 + r), r * (n - 1 - r))) // 2
            for family in ref.SPIDERS:
                assert lower <= ref.case_table(family, n, p)[0] <= upper
            # Adding a block K_{n-1} adds its C(n-1, 2) edges.
            assert ref.case_table("t3", n, p + n - 1)[0] == value + comb(n - 1, 2)


def test_special_residues_and_connected_variants():
    n = 30
    special = [p for p in range(n, 3 * n + 1) if ref.is_t3_special(n, p)]
    assert [p % (n - 1) for p in special][:7] == [1, 2, 25, 26, 27, 28, 0]
    assert ref.connected_variant(26, 25 + 18) and not ref.connected_variant(25, 24 + 17)
    assert ref.connected_variant(37, 36 + 30) and not ref.connected_variant(36, 35 + 29)


@pytest.mark.parametrize("family,n,p", [
    ("t3", 15, 40), ("t3", 20, 30), ("tpp", 19, 25), ("tppp", 21, 58), ("tpp", 15, 800),
])
def test_restated_hosts_attain_the_value_and_are_certified_free(family, n, p):
    adj = ref.extremal_host(family, n, p)
    assert len(adj) == p and ref.edge_count(adj) == ref.case_table(family, n, p)[0]
    assert ref.spider_free_certificate(adj, n)


def test_near_regular_degrees():
    for m in range(2, 30):
        for d in range(m):
            degrees = sorted(len(row) for row in ref.near_regular(m, d))
            assert sum(degrees) == 2 * (d * m // 2)
            assert degrees[-1] == d and degrees[1] == d


def test_adversarial_host_passes_every_filter_but_is_free():
    for n in (9, 15, 30):
        adj = ref.adversarial_host(n)
        assert sum(len(row) >= n - 4 for row in adj) == n - 3
        assert ref.spider_free_certificate(adj, n)
    for family in ref.SPIDERS:
        assert ref.find_embedding(ref.adversarial_host(9), ref.spider_edges(family, 9), 9) is None


def test_certificate_refuses_hosts_that_contain_the_tree():
    adj = ref.complete(15)
    assert not ref.spider_free_certificate(adj, 15)
    assert ref.find_embedding(adj, ref.spider_edges("t3", 15), 15) is not None


def test_embedding_checker():
    tree = ref.path_edges(4)
    host = ref.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert ref.is_embedding(host, tree, 4, (1, 2, 3, 4))
    assert not ref.is_embedding(host, tree, 4, (1, 2, 3, 2))  # not injective
    assert not ref.is_embedding(host, tree, 4, (0, 2, 3, 4))  # 0-2 is no edge
    assert not ref.is_embedding(host, tree, 4, (1, 2, 3, 5))  # out of range
    assert not ref.is_embedding(host, tree, 4, (1, 2, 3))  # wrong length
    witness = ref.find_embedding(host, tree, 4)
    assert ref.is_embedding(host, tree, 4, witness)
    assert ref.find_embedding(host, ref.path_edges(6), 6) is None


@pytest.mark.parametrize("text,p,m", [("@", 1, 0), ("A_", 2, 1), ("Bw", 3, 3), ("C~", 4, 6)])
def test_graph6_known_strings(text, p, m):
    adj = ref.from_graph6(text)
    assert (len(adj), ref.edge_count(adj)) == (p, m)
    assert ref.to_graph6(adj) == text


def test_graph6_long_form_round_trip():
    adj = ref.extremal_host("t3", 15, 400)
    text = ref.to_graph6(adj)
    assert text[0] == "~" and ref.from_graph6(text) == adj
