"""Brute-force ground truth: desk-scale values, budgets, determinism."""

from __future__ import annotations

import itertools
from math import comb

import pytest

from turantrees import oracle
from turantrees.containment import contains_tree
from turantrees.formulas import ex_path, ex_star, extremal_value
from turantrees.graphs import SimpleGraph, to_graph6
from turantrees.oracle import (
    MAX_ORACLE_ORDER,
    OracleResult,
    ex_bruteforce,
    verify_formula,
)
from turantrees.trees import explicit_tree, path, realize, star, t3, tpp, tppp

import reference as R


def check_result(res: OracleResult, p: int, f) -> None:
    assert res.exact
    assert res.witness.order == p
    assert res.witness.edge_count() == res.value
    assert contains_tree(res.witness, f) is None


# ------------------------------------------------------------- frozen values

@pytest.mark.parametrize(
    "p,f,value",
    [
        (7, path(4), 6),
        (8, path(4), 7),
        (8, star(3), 8),
        (5, path(5), 6),
        (7, tppp(6), 11),  # the degenerate member equals the 6-path
    ],
)
def test_frozen_desk_values(p, f, value):
    res = ex_bruteforce(p, f)
    assert res.value == value
    check_result(res, p, f)


def test_small_hosts_trivially_free():
    # any tree larger than the host leaves the complete graph extremal
    res = ex_bruteforce(5, t3(15))
    assert res.value == comb(5, 2)
    assert res.exact
    assert res.witness == SimpleGraph.complete(5)


def test_single_vertex_host():
    res = ex_bruteforce(1, path(2))
    assert res.value == 0 and res.exact


def test_one_vertex_tree_rejected():
    with pytest.raises(ValueError, match="one-vertex tree"):
        ex_bruteforce(4, path(1))
    with pytest.raises(ValueError, match="p >= 1"):
        ex_bruteforce(0, path(2))


def test_host_order_bound():
    # the search recurses once per vertex pair
    res = ex_bruteforce(MAX_ORACLE_ORDER, star(2))
    assert res.exact and res.value == MAX_ORACLE_ORDER // 2
    with pytest.raises(ValueError, match=f"p <= {MAX_ORACLE_ORDER}"):
        ex_bruteforce(MAX_ORACLE_ORDER + 1, star(2))
    # a tree larger than the host needs no search at all
    assert ex_bruteforce(50, path(60)).value == comb(50, 2)


# Witnesses of the search without the prefix cut; the cut keeps the first
# optimum in the include-first order, so they must not change.
@pytest.mark.parametrize(
    "p,f,value,g6",
    [
        (8, path(6), 13, "G}rEE?"),
        (8, tppp(7), 16, "G~~w?C"),
        (9, t3(7), 18, "H~~w?CB"),
    ],
    ids=["path6-p8", "tppp7-p8", "t3-7-p9"],
)
def test_frozen_witnesses(p, f, value, g6):
    res = ex_bruteforce(p, f)
    assert res.value == value
    assert to_graph6(res.witness) == g6
    check_result(res, p, f)


# ----------------------------------------------- agreement with closed forms

@pytest.mark.parametrize("n", [4, 5, 6])
def test_path_values_match_formula(n):
    for p in range(n, 8):
        res = ex_bruteforce(p, path(n))
        assert res.value == ex_path(p, n).value, (p, n)
        check_result(res, p, path(n))


@pytest.mark.parametrize("s", [2, 3])
def test_star_values_match_formula(s):
    for p in range(s + 1, 8):
        res = ex_bruteforce(p, star(s))
        assert res.value == ex_star(p, s).value, (p, s)
        check_result(res, p, star(s))


# Upper-bound evidence at the real orders of the headline families: no host
# on p vertices beats the closed form.
@pytest.mark.parametrize(
    "p,f,partial",
    [(10, tpp(10), False), (10, t3(10), True), (9, path(6), False)],
    ids=["tpp10", "t3-10-partial", "path6"],
)
def test_oracle_equals_formula_at_real_orders(p, f, partial):
    res = ex_bruteforce(p, f)
    assert res.value == extremal_value(f, p, partial=partial).value
    check_result(res, p, f)


def test_tppp10_at_p10_is_exact_within_seconds():
    # 3,425 nodes, each with an anchored check of the new edge: about 0.3 s
    # with one context per edge orbit
    res = ex_bruteforce(10, tppp(10), budget_seconds=10)
    assert res.exact and res.value == extremal_value(tppp(10), 10).value == 36
    check_result(res, 10, tppp(10))


# The paper's own orders above p = n, where the residue is not 1.  Each
# ceiling is below the node count of the search with the degree-capacity
# bound ``(p deg(0) - 2 m) / 2`` in place of the room bound.
@pytest.mark.parametrize(
    "p,f,value,ceiling",
    [
        (11, t3(10), 37, 80_000),  # capacity bound: 175,903 nodes
        (11, tpp(10), 37, 80_000),  # 131,991
        (13, t3(13), 66, 50_000),  # 93,813
        (13, tpp(13), 66, 50_000),  # 94,006
        (12, t3(11), 46, 400_000),  # 1,211,585
    ],
    ids=["t3-10-p11", "tpp10-p11", "t3-13-p13", "tpp13-p13", "t3-11-p12"],
)
def test_real_order_slice_is_exact(p, f, value, ceiling):
    res = ex_bruteforce(p, f)
    assert res.value == extremal_value(f, p, partial=True).value == value
    assert res.nodes < ceiling
    check_result(res, p, f)


def test_tppp7_at_p9_is_exact_within_budget():
    res = ex_bruteforce(9, tppp(7), budget_nodes=100_000)
    assert res.value == 18
    check_result(res, 9, tppp(7))


# ----------------------------------- agreement with the exhaustive reference

@pytest.mark.parametrize(
    "f",
    [
        t3(6),  # spider with legs 2, 1, 1, 1
        tpp(6),  # spider with legs 2, 2, 1
        tppp(6),  # the 6-path
        path(5),
        star(4),
        # with the three above, every tree on 6 vertices up to isomorphism
        pytest.param(star(5), id="star5"),
        pytest.param(
            explicit_tree([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5)]), id="spider311"
        ),
        pytest.param(
            explicit_tree([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), id="double-star"
        ),
    ],
    ids=lambda f: f.kind,
)
def test_p6_values_match_reference_scan(f):
    # independent ground truth: scan all 2^15 labeled hosts on 6 vertices
    t = realize(f)
    expected = R.exhaustive_ex(6, t.n, list(t.edges()))
    assert ex_bruteforce(6, f).value == expected


def test_random_explicit_tree_matches_reference_scan():
    fork = explicit_tree([(0, 1), (1, 2), (2, 3), (1, 4)])
    t = realize(fork)
    expected = R.exhaustive_ex(6, t.n, list(t.edges()))
    res = ex_bruteforce(6, fork)
    assert res.value == expected
    check_result(res, 6, fork)


# -------------------------------------------------------------------- budgets

def test_node_budget_flags_inexact():
    res = ex_bruteforce(8, path(4), budget_nodes=50)
    assert not res.exact
    assert res.value <= 7
    assert res.witness.edge_count() == res.value
    assert contains_tree(res.witness, path(4)) is None


def test_time_budget_flags_inexact():
    res = ex_bruteforce(9, path(5), budget_seconds=1e-4)
    assert not res.exact


def test_budget_reason_names_the_budget():
    assert ex_bruteforce(7, path(4)).budget_reason is None
    assert ex_bruteforce(4, path(5)).budget_reason is None  # tree larger than host
    res = ex_bruteforce(9, path(5), budget_seconds=1e-4)
    assert res.budget_reason == "time budget exhausted"
    res = ex_bruteforce(8, path(4), budget_nodes=60)
    assert not res.exact
    assert res.budget_reason == "node budget exhausted"


# -------------------------------------------------------------- determinism

def test_single_thread_runs_are_identical():
    a = ex_bruteforce(7, path(4))
    b = ex_bruteforce(7, path(4))
    assert a.value == b.value
    assert a.nodes == b.nodes
    assert a.witness == b.witness


def test_tiny_hosts():
    assert ex_bruteforce(4, path(4)).value == 3
    assert ex_bruteforce(3, star(2)).value == 1
    assert ex_bruteforce(4, star(3)).value == 4


# ----------------------------------------------------------- seeded search

def tree_form(n: int, edges) -> str:
    """A complete isomorphism invariant of a tree: the least AHU string over
    the roots of maximum degree (an invariant set of roots)."""
    adj = R.adjacency_sets(n, edges)

    def form(v: int, parent: int) -> str:
        return "(" + "".join(sorted(form(w, v) for w in adj[v] if w != parent)) + ")"

    top = max(map(len, adj))
    return min(form(v, -1) for v in range(n) if len(adj[v]) == top)


def seed_trees():
    """Every spec tree on at most 12 vertices, then every labelled tree on
    2..7 vertices."""
    for n in range(2, 13):
        yield realize(path(n))
        yield realize(star(n - 1))
        if n >= 6:
            yield from (realize(maker(n)) for maker in (t3, tpp, tppp))
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            yield SimpleGraph.from_edges(n, R.pruefer_tree_edges(n, seq))


def test_seed_hosts_are_tree_free():
    # the floor is sound only if the seed host avoids the tree
    checked = set()
    for t in seed_trees():
        n, edges = t.n, list(t.edges())
        top = t.max_degree()
        form = tree_form(n, edges)
        for p in range(n, 13):
            seed = oracle._seed(p, t)
            k, r = divmod(p, n - 1)
            cliques = k * comb(n - 1, 2) + comb(r, 2)
            regular = (top - 1) * p // 2
            assert seed[0] == max(cliques, regular), (edges, p)
            if (form, p) in checked:
                continue
            checked.add((form, p))
            g = oracle._seed_host(p, t, seed[1])
            assert g.order == p and g.edge_count() == seed[0], (edges, p, seed)
            # a tree embeds in a host exactly when it embeds in one component
            for comp in g.components():
                index = {v: i for i, v in enumerate(comp)}
                sub = [(index[u], index[v]) for u, v in g.edges() if u in index]
                assert not R.embeds_pruned(len(comp), sub, n, edges), (edges, p, seed)
    assert len({form for form, _ in checked if form.count("(") <= 7}) == 24


DESK_GRID = [
    (p, f)
    for f, ps in [
        (path(4), range(4, 10)), (path(5), range(5, 9)), (path(6), range(6, 8)),
        (star(2), range(3, 10)), (star(3), range(4, 10)), (star(4), range(5, 10)),
        (star(5), range(6, 10)), (star(6), range(7, 10)), (star(7), range(8, 10)),
        (star(8), range(9, 10)), (t3(6), range(6, 9)), (tpp(6), range(6, 9)),
        (tppp(6), range(6, 8)), (t3(7), range(7, 9)), (tpp(7), range(7, 9)),
        (tppp(7), range(7, 8)),
    ]
    for p in ps
] + [(8, path(6)), (8, tppp(7)), (9, t3(7))]


def test_seeded_search_matches_unseeded(monkeypatch):
    # the first optimum in include-first order has at least the floor's edge
    # count, so no cut removes it before it is found: only nodes fall
    seeded = [ex_bruteforce(p, f) for p, f in DESK_GRID]
    monkeypatch.setattr(oracle, "_seed", lambda p, t: (0, "near-regular"))
    unseeded = [ex_bruteforce(p, f) for p, f in DESK_GRID]
    for (p, f), a, b in zip(DESK_GRID, seeded, unseeded):
        assert (a.value, a.exact, a.witness) == (b.value, b.exact, b.witness), (p, f)
        assert a.nodes <= b.nodes, (p, f)
    assert sum(a.nodes for a in seeded) < sum(b.nodes for b in unseeded)


def test_room_bound_matches_unbounded_search(monkeypatch):
    # a cut subtree cannot beat the incumbent, so the first optimum in
    # include-first order is still found: only nodes fall
    bounded = [ex_bruteforce(p, f) for p, f in DESK_GRID]
    monkeypatch.setattr(oracle, "_initial_room", lambda p, deg: 10**9)
    unbounded = [ex_bruteforce(p, f) for p, f in DESK_GRID]
    for (p, f), a, b in zip(DESK_GRID, bounded, unbounded):
        assert (a.value, a.exact, a.witness) == (b.value, b.exact, b.witness), (p, f)
        assert a.nodes <= b.nodes, (p, f)
    assert sum(a.nodes for a in bounded) < sum(b.nodes for b in unbounded)


def test_budget_stop_returns_the_seed_host():
    for p, f in DESK_GRID:
        t = realize(f)
        floor, host = oracle._seed(p, t)
        res = ex_bruteforce(p, f, budget_nodes=1)
        assert not res.exact and res.budget_reason == "node budget exhausted"
        assert (res.seed_edges, res.seed_host) == (floor, host)
        assert res.value >= floor
        assert res.witness.order == p and res.witness.edge_count() == res.value
        assert contains_tree(res.witness, f) is None, (p, f)


# ------------------------------------------------------- formula sweep helper

def test_verify_formula_report():
    rep = verify_formula(path(4), [4, 5, 6, 7])
    assert rep["all_equal"]
    assert [row["p"] for row in rep["rows"]] == [4, 5, 6, 7]
    for row in rep["rows"]:
        assert row["oracle"] == row["formula"]
        assert row["exact"] and row["equal"]
        assert row["nodes"] > 0
        assert row["seed"]["edges"] <= row["oracle"]


def test_verify_formula_flags_budget():
    rep = verify_formula(path(4), [8], budget_nodes=50)
    assert not rep["rows"][0]["exact"]
    assert not rep["all_equal"]
