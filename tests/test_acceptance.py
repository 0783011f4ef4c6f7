"""Acceptance gate: ten end-to-end criteria, one test each.

The headline closed forms live at tree orders no brute-force search can
reach, so acceptance combines exact arithmetic cross-checks (criteria 1-4),
construction achievability and degree fidelity (5-6), oracle equivalence on
classical small cases (7), exhaustive containment cross-validation (8),
serialization round-trips (9), and run-to-run determinism (10).  Each
test states its tolerance; all comparisons are exact integers.
"""

from __future__ import annotations

import json
import random
import time
from math import comb

import pytest

from turantrees.cli import main
from turantrees.constructions import (
    extremal_graph,
    lemma46_even,
    lemma46_odd,
    lemma47_construct,
)
from turantrees.containment import contains_tree, verify_witness
from turantrees.formulas import (
    ex_path,
    ex_star,
    ex_t3,
    ex_tpp,
    ex_tppp,
    extremal_value,
    lower_bound,
    upper_bound,
)
from turantrees.graphs import SimpleGraph, from_graph6, to_graph6
from turantrees.oracle import ex_bruteforce
from turantrees.trees import explicit_tree, path, realize, star, t3, tpp, tppp

import reference as R


def test_criterion_01_anchor_values_and_identities():
    """Three frozen anchor values, then the same identities symbolically
    for every tree order in [15, 45].  Exact; must finish within 1 s."""
    start = time.monotonic()

    assert ex_t3(23, 15).value == 127
    assert ex_t3(21, 15).value == 112
    assert ex_t3(22, 15).value == 119

    for n in range(15, 46):
        assert ex_t3(2 * n - 7, n).value == n * n - 8 * n + 22
        assert ex_t3(2 * n - 9, n).value == n * n - 10 * n + 24 + max(n // 2, 13)
        assert ex_t3(2 * n - 8, n).value == n * n - 9 * n + 29 + max(
            0, (n - 37) // 4
        )

    assert time.monotonic() - start < 1.0


def test_criterion_02_twin_families_identical():
    """The second and third family share one value table on the whole grid
    n in [10, 40], p in [n, 5n].  Exact; must finish within 1 s."""
    start = time.monotonic()
    for n in range(10, 41):
        for p in range(n, 5 * n + 1):
            assert ex_tpp(p, n).value == ex_tppp(p, n).value, (p, n)
    assert time.monotonic() - start < 1.0


def test_criterion_03_block_recurrence():
    """Removing one full block of n-1 vertices costs exactly C(n-1,2)
    edges: ex(p) = C(n-1,2) + ex(p-(n-1)) with zero tolerance."""
    grids = [
        (t3, range(15, 31)),
        (tpp, range(10, 31)),
        (tppp, range(10, 31)),
    ]
    for maker, n_range in grids:
        for n in n_range:
            f = maker(n)
            step = comb(n - 1, 2)
            for p in range(2 * n - 6, 6 * n + 1):
                lhs = extremal_value(f, p).value
                rhs = step + extremal_value(f, p - (n - 1)).value
                assert lhs == rhs, (f.kind, n, p)


def test_criterion_04_sandwich_bounds():
    """Every family value sits between the general lower and upper bounds
    on the same grid as the recurrence; zero tolerance."""
    grids = [
        (t3, range(15, 31)),
        (tpp, range(10, 31)),
        (tppp, range(10, 31)),
    ]
    for maker, n_range in grids:
        for n in n_range:
            f = maker(n)
            for p in range(2 * n - 6, 6 * n + 1):
                v = extremal_value(f, p).value
                assert lower_bound(p, n) <= v <= upper_bound(p, n), (f.kind, n, p)


def test_criterion_05_constructions_achieve_and_avoid():
    """For every family, every tree order in the representative set, and
    one host order per residue class: the built graph has exactly the
    closed-form edge count and provably avoids the tree.  Budget: 5 min."""
    start = time.monotonic()
    n_set = [15, 16, 26, 27, 37, 38, 39, 40]
    checked = 0
    for n in n_set:
        for maker in (t3, tpp, tppp):
            f = maker(n)
            for r in range(0, n - 1):
                p = 2 * (n - 1) if r == 0 else (n - 1) + r
                g, recipe = extremal_graph(f, p)
                assert g.edge_count() == extremal_value(f, p).value, (f.kind, n, p)
                assert contains_tree(g, f) is None, (f.kind, n, p)
                checked += 1
            # connected bases, where they exist, must do the same
            if maker is t3:
                for r, lo in ((n - 8, 26), (n - 7, 37)):
                    if n >= lo:
                        p = (n - 1) + r
                        g, recipe = extremal_graph(f, p, connected=True)
                        assert g.is_connected()
                        assert g.edge_count() == extremal_value(f, p).value
                        assert contains_tree(g, f) is None, (f.kind, n, p, "conn")
                        checked += 1
    assert checked == 3 * sum(n - 1 for n in n_set) + 2 + 2 * 4
    assert time.monotonic() - start < 300.0


def test_criterion_06_degree_multisets():
    """The four named base graphs reproduce their stated degree multisets
    exactly (three hub vertices for the even form, and so on)."""
    from collections import Counter

    g = lemma46_even(26)
    assert Counter(g.degree_sequence()) == Counter({22: 3, 21: 40})

    g = lemma46_odd(27)
    assert Counter(g.degree_sequence()) == Counter({23: 3, 22: 41, 21: 1})

    expected = {
        37: Counter({33: 18, 32: 48}),
        38: Counter({34: 18, 33: 50}),
        39: Counter({35: 18, 34: 52}),
        40: Counter({36: 18, 35: 54}),
    }
    for n, want in expected.items():
        assert Counter(lemma47_construct(n).degree_sequence()) == want, n


def test_criterion_07_oracle_equals_formulas_at_desk_scale():
    """Brute force equals the classical path and star formulas everywhere
    the search can reach: paths for 4 <= n <= p <= 8, stars with 2 or 3
    leaves for p <= 8.  Budget: 2 min."""
    start = time.monotonic()
    for n in range(4, 9):
        for p in range(n, 9):
            res = ex_bruteforce(p, path(n))
            assert res.exact
            assert res.value == ex_path(p, n).value, ("path", n, p)
    for s in (2, 3):
        for p in range(s + 1, 9):
            res = ex_bruteforce(p, star(s))
            assert res.exact
            assert res.value == ex_star(p, s).value, ("star", s, p)
    assert time.monotonic() - start < 120.0


# families matching reference.SMALL_TREES entry for entry
SMALL_TREE_FAMILIES = [
    path(1),
    path(2),
    path(3),
    path(4),
    star(3),
    path(5),
    star(4),
    explicit_tree([(0, 1), (1, 2), (2, 3), (1, 4)]),
]


def test_criterion_08_containment_vs_all_injections():
    """Exhaustive agreement with the raw all-injections oracle over every
    labeled host on up to 6 vertices crossed with every tree on up to 5
    vertices, then 10,000 randomized cases on hosts up to 9 vertices.
    Zero disagreements tolerated."""
    # the family objects must realize exactly the reference edge lists
    for (tn, te), fam in zip(R.SMALL_TREES, SMALL_TREE_FAMILIES):
        assert fam.n == tn
        assert set(realize(fam).edges()) == {tuple(sorted(e)) for e in te}

    for p in range(0, 7):
        slots = R.pair_slots(p)
        images = [
            (tn, R.image_masks(p, tn, te), fam)
            for (tn, te), fam in zip(R.SMALL_TREES, SMALL_TREE_FAMILIES)
        ]
        for mask in R.all_masks(p):
            edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
            g = SimpleGraph.from_edges(p, edges)
            for tn, masks, fam in images:
                expected = R.masks_contain(masks, mask)
                got = contains_tree(g, fam)
                assert (got is not None) == expected, (p, mask, fam.kind, tn)
                if got is not None:
                    assert verify_witness(g, realize(fam), got)

    # randomized regime: bigger hosts, arbitrary random trees
    rng = random.Random("acceptance-8")
    for i in range(10_000):
        p = rng.randrange(1, 10)
        tn = rng.randrange(1, min(p + 2, 8))
        te = R.random_tree_edges(rng, tn)
        fam = path(1) if tn == 1 else explicit_tree(te)
        he = R.random_host_edges(rng, p, rng.random())
        g = SimpleGraph.from_edges(p, he)
        expected = R.embeds_pruned(p, he, tn, te)
        got = contains_tree(g, fam)
        assert (got is not None) == expected, (i, p, tn, te, he)
        if got is not None:
            assert verify_witness(g, realize(fam), got)
        # where the raw enumeration is affordable, triple-check with it
        if tn <= 5 and p <= 7:
            assert R.injection_contains(p, he, tn, te) == expected, (i, p, tn)


def test_criterion_09_graph6_round_trip():
    """Encode/decode is the identity on 1,000 random graphs spanning both
    length-encoding regimes of the format."""
    rng = random.Random("acceptance-9")
    for i in range(1_000):
        n = rng.randrange(0, 63) if i % 5 else rng.randrange(63, 90)
        bits = n * (n - 1) // 2
        mask = rng.getrandbits(bits) if bits else 0
        slots = R.pair_slots(n)
        g = SimpleGraph.from_edges(
            n, [slots[j] for j in range(bits) if (mask >> j) & 1]
        )
        text = to_graph6(g)
        assert from_graph6(text) == g, (i, n)
        assert (len(text) == 1 + -(-bits // 6)) == (n <= 62)


def test_criterion_10_verify_is_deterministic(capsys):
    """Two runs of the consistency sweep with the oracle report identical
    results and counts."""
    argv = ["--quiet", "verify", "--n", "15..16", "--p", "n..2n", "--oracle"]
    reports = []
    for _ in range(2):
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    first, second = reports
    assert first["ok"] and second["ok"]
    assert first["results"] == second["results"]
    assert first["counts"] == second["counts"]
