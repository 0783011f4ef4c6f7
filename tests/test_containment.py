"""Exact tree containment: soundness, reference agreement, performance contracts."""

from __future__ import annotations

import importlib.util
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turantrees.constructions import clique_union, lemma46_even, near_regular
from turantrees.constructions import extremal_graph
from turantrees import containment
from turantrees.containment import (
    contains_through_edge,
    contains_tree,
    edge_anchored_contexts,
    generic_backtrack,
    verify_witness,
)
from turantrees.graphs import SimpleGraph, iter_bits
from turantrees.trees import explicit_tree, path, realize, star, t3, tpp, tppp

import reference as R
from test_trees import prufer_tree

FAMILY_MAKERS = [t3, tpp, tppp]


def host_from_edges(p: int, edges) -> SimpleGraph:
    return SimpleGraph.from_edges(p, edges)


def leafwise_embeds(g: SimpleGraph, t: SimpleGraph) -> bool:
    """A second decider for hosts too large for ``R.embeds_pruned``: the
    oracle's engine (``_engine``), which places every tree vertex, leaves
    one by one, with no leaf-class matching and no hub or ball filter, run
    from each host vertex that can take a maximum-degree tree vertex."""
    ctx = containment._prepare_context(t, [max(range(t.n), key=t.degree)])[0]
    hdeg = [g.degree(v) for v in range(g.n)]
    assign = [-1] * t.n
    for w in range(g.n):
        if hdeg[w] >= ctx.tdeg[ctx.order[0]]:
            assign[0] = w
            if containment._engine(g.adj, hdeg, ctx, assign, 1 << w, 1):
                return True
    return False


# ------------------------------------------------------- reference self-check

def test_reference_embedders_agree_exhaustively_small():
    # the pruned reference embedder must agree with the raw all-injections
    # enumeration before either is allowed to certify the real module
    for p in range(0, 5):
        for mask in R.all_masks(p):
            edges = R.edges_of_mask(p, mask)
            for tn, te in R.SMALL_TREES:
                if tn > 4:
                    continue
                assert R.injection_contains(p, edges, tn, te) == R.embeds_pruned(
                    p, edges, tn, te
                )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_reference_embedders_agree_randomized(seed):
    rng = random.Random(seed)
    p = rng.randrange(1, 8)
    tn = rng.randrange(1, min(p, 5) + 1)
    te = R.random_tree_edges(rng, tn)
    he = R.random_host_edges(rng, p, rng.random())
    assert R.injection_contains(p, he, tn, te) == R.embeds_pruned(p, he, tn, te)


def test_reference_image_masks_agree_with_injections():
    # the image-mask helper certifies the exhaustive small-host tests, so it
    # must first agree with the all-injections enumeration on every host
    for p in range(0, 6):
        for tn, te in R.SMALL_TREES:
            masks = R.image_masks(p, tn, te)
            for mask in R.all_masks(p):
                edges = R.edges_of_mask(p, mask)
                assert R.masks_contain(masks, mask) == R.injection_contains(
                    p, edges, tn, te
                ), (p, mask, tn, te)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_reference_image_masks_agree_randomized(seed):
    rng = random.Random(seed)
    p = rng.randrange(1, 8)
    tn = rng.randrange(1, min(p, 6) + 1)
    te = R.random_tree_edges(rng, tn)
    he = R.random_host_edges(rng, p, rng.random())
    got = R.masks_contain(R.image_masks(p, tn, te), R.mask_of_edges(p, he))
    assert got == R.embeds_pruned(p, he, tn, te)


# ------------------------------------------------------------ frozen examples

def test_complete_hosts():
    assert contains_tree(SimpleGraph.complete(15), t3(15)) is not None
    assert contains_tree(SimpleGraph.complete(14), t3(15)) is None


def test_extremal_construction_is_free():
    assert contains_tree(clique_union(1, 15, 6), t3(15)) is None
    assert contains_tree(clique_union(2, 15, 13), t3(15)) is None


def test_degree_obstruction():
    assert contains_tree(near_regular(20, 10), star(11)) is None
    assert contains_tree(near_regular(20, 11), star(11)) is not None


def test_generic_backtrack_on_cycles():
    c4 = SimpleGraph.circulant(4, [1])
    assert generic_backtrack(c4, realize(path(4))) is not None
    c6 = SimpleGraph.circulant(6, [1])
    assert generic_backtrack(c6, realize(star(3))) is None


# ------------------------------------------------------------------ soundness

def test_verify_witness_rejects_bad_maps():
    g = SimpleGraph.complete(3)
    t = realize(path(3))
    assert verify_witness(g, t, (0, 1, 2))
    assert not verify_witness(g, t, (0, 1, 1))  # not injective
    assert not verify_witness(g, t, (0, 1))  # wrong length
    assert not verify_witness(g, t, (0, 1, 3))  # out of range
    sparse = SimpleGraph.from_edges(3, [(0, 1)])
    assert not verify_witness(sparse, t, (0, 1, 2))  # missing edge


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_witnesses_are_always_valid(seed):
    rng = random.Random(seed)
    maker = rng.choice(FAMILY_MAKERS + [path, star])
    n = rng.randrange(6, 10) if maker in FAMILY_MAKERS else rng.randrange(1, 8)
    f = maker(n)
    p = rng.randrange(1, f.n + 6)
    g = host_from_edges(p, R.random_host_edges(rng, p, rng.random()))
    w = contains_tree(g, f)
    if w is not None:
        assert verify_witness(g, realize(f), w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_containment_is_edge_monotone(seed):
    rng = random.Random(seed)
    maker = rng.choice(FAMILY_MAKERS)
    f = maker(rng.randrange(6, 9))
    p = f.n + rng.randrange(0, 4)
    g = host_from_edges(p, R.random_host_edges(rng, p, rng.random()))
    if contains_tree(g, f) is None:
        return
    non_edges = [
        (u, v)
        for u in range(p)
        for v in range(u + 1, p)
        if not g.has_edge(u, v)
    ]
    if not non_edges:
        return
    u, v = rng.choice(non_edges)
    bigger = host_from_edges(p, list(g.edges()) + [(u, v)])
    assert contains_tree(bigger, f) is not None


# ------------------------------------------------ family trees, random hosts

@pytest.mark.parametrize("maker", FAMILY_MAKERS)
def test_skeleton_path_matches_generic_on_random_hosts(maker):
    # 1,000 random hosts per family, split over tree orders 10 and 15 and
    # host orders up to n+8; contains_tree must agree with the leaf-by-leaf
    # decider on every one
    rng = random.Random(f"skeleton-{maker.__name__}")
    for i in range(1000):
        n = 10 if i % 2 == 0 else 15
        f = maker(n)
        t = realize(f)
        p = n + rng.randrange(0, 9)
        # mixed density, biased toward the decision boundary region
        q = rng.choice((0.35, 0.55, 0.7, 0.85, 0.95))
        g = host_from_edges(p, R.random_host_edges(rng, p, q))
        w = contains_tree(g, f)
        assert (w is not None) == leafwise_embeds(g, t), (maker.__name__, n, p, i)
        assert w is None or verify_witness(g, t, w)


def test_exhaustive_family_trees_on_all_small_hosts():
    # every host on up to 6 vertices vs the n=6 member of each family
    # (plus the degenerate path member), against the reference embedder
    trees = [
        (t3(6), realize(t3(6))),
        (tpp(6), realize(tpp(6))),
        (tppp(6), realize(tppp(6))),
        (path(6), realize(path(6))),
        (star(5), realize(star(5))),
    ]
    tree_edges = [(f, list(t.edges()), t.n) for f, t in trees]
    for p in range(0, 7):
        slots = R.pair_slots(p)
        images = [(f, R.image_masks(p, tn, te)) for f, te, tn in tree_edges]
        for mask in R.all_masks(p):
            edges = [slots[i] for i in range(len(slots)) if (mask >> i) & 1]
            g = host_from_edges(p, edges)
            for f, masks in images:
                expected = R.masks_contain(masks, mask)
                got = contains_tree(g, f)
                assert (got is not None) == expected, (p, mask, f.kind)
                if got is not None:
                    assert verify_witness(g, realize(f), got)


# ------------------------------------------------------------ anchored search

def labelled_trees(n: int):
    """Every labelled tree on ``n >= 2`` vertices, as an edge tuple: the
    (n-1)-edge sets whose edges all join one connected set."""
    for edges in itertools.combinations(itertools.combinations(range(n), 2), n - 1):
        adj = R.adjacency_sets(n, edges)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            yield edges


def test_edge_anchored_contexts_one_per_edge_orbit():
    # each directed tree edge is carried onto exactly one context's pinned
    # pair by an automorphism (found by brute force); so the contexts pin
    # directed edges from distinct orbits and miss no orbit
    counts = [sum(1 for _ in labelled_trees(n)) for n in range(2, 7)]
    assert counts == [n ** (n - 2) for n in range(2, 7)]  # Cayley
    for n in range(2, 7):
        for edges in labelled_trees(n):
            t = SimpleGraph.from_edges(n, edges)
            tree = {frozenset(e) for e in edges}
            auts = [
                s for s in itertools.permutations(range(n))
                if all(frozenset((s[a], s[b])) in tree for a, b in edges)
            ]
            ctxs = edge_anchored_contexts(t)
            pinned = [ctx.order[:2] for ctx in ctxs]
            assert all(frozenset(pair) in tree for pair in pinned)
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    hits = [c for c in pinned if any((s[x], s[y]) == c for s in auts)]
                    assert len(hits) == 1, (edges, (x, y), pinned)
            for ctx in ctxs:
                assert sorted(ctx.order) == list(range(n))
                for i in range(2, n):
                    assert t.has_edge(ctx.order[i], ctx.order[ctx.parent_pos[i]])
    assert len(edge_anchored_contexts(realize(path(3)))) == 2
    assert len(edge_anchored_contexts(realize(star(6)))) == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_contains_through_edge_matches_reference(seed):
    rng = random.Random(seed)
    tn = rng.randrange(2, 6)
    te = R.random_tree_edges(rng, tn)
    p = rng.randrange(2, 7)
    he = R.random_host_edges(rng, p, rng.random())
    g = host_from_edges(p, he)
    if not he:
        return
    u, v = rng.choice(he)
    ctxs = edge_anchored_contexts(SimpleGraph.from_edges(tn, te))
    hdeg = [g.degree(x) for x in range(p)]
    got = contains_through_edge(g.adj, hdeg, ctxs, u, v)
    # reference: some injection must map some tree edge exactly onto {u, v}
    expected = False
    adj = R.adjacency_sets(p, he)
    for image in itertools.permutations(range(p), tn):
        if not all(image[b] in adj[image[a]] for a, b in te):
            continue
        if any({image[a], image[b]} == {u, v} for a, b in te):
            expected = True
            break
    assert got == expected


def leg(length: int) -> list[tuple[int, int]]:
    """A path on ``length`` vertices, rooted at its end 0."""
    return [(i, i + 1) for i in range(length - 1)]


def hang(rng: random.Random, shapes) -> tuple[int, list[tuple[int, int]]]:
    """The tree with root 0 joined to vertex 0 of each rooted tree in
    ``shapes`` (edge lists on 0..k-1), randomly relabelled."""
    edges = []
    n = 1
    for shape in shapes:
        edges.append((0, n))
        edges += [(n + a, n + b) for a, b in shape]
        n += 1 + len(shape)
    label = rng.sample(range(n), n)
    return n, [(label[a], label[b]) for a, b in edges]


def symmetric_tree_edges(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A randomly relabelled star or spider on at most 6 vertices: centre 0
    with legs of random lengths, often equal, so the tree has non-trivial
    automorphisms."""
    if rng.random() < 0.3:
        legs = [1] * rng.randrange(1, 6)
    else:
        legs = []
        while sum(legs) < 5 and (len(legs) < 2 or rng.random() < 0.6):
            legs.append(rng.randint(1, min(3, 5 - sum(legs))))
    return hang(rng, map(leg, legs))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_contains_through_edge_matches_reference_on_spiders_and_stars(seed):
    rng = random.Random(seed)
    tn, te = symmetric_tree_edges(rng)
    p = rng.randrange(2, 8)
    he = R.random_host_edges(rng, p, rng.uniform(0.3, 1.0))
    if not he:
        return
    g = host_from_edges(p, he)
    u, v = rng.choice(he)
    ctxs = edge_anchored_contexts(SimpleGraph.from_edges(tn, te))
    hdeg = [g.degree(x) for x in range(p)]
    got = contains_through_edge(g.adj, hdeg, ctxs, u, v)
    adj = R.adjacency_sets(p, he)
    expected = any(
        all(image[b] in adj[image[a]] for a, b in te)
        and any({image[a], image[b]} == {u, v} for a, b in te)
        for image in itertools.permutations(range(p), tn)
    )
    assert got == expected


# ------------------------------------------------------- performance contract

def test_lemma46_freeness_decided_quickly():
    g = lemma46_even(26)
    start = time.monotonic()
    assert contains_tree(g, t3(26)) is None
    assert time.monotonic() - start < 10.0


def test_matching_on_dense_near_regular_host_is_fast():
    # the tpp n=20, p=25 near-regular host plus the non-edge (0, 14): an
    # augmenting-path search without a visited set ran for minutes here
    g, _ = extremal_graph(tpp(20), 25)
    assert not g.has_edge(0, 14)
    g = SimpleGraph.from_edges(g.n, list(g.edges()) + [(0, 14)])
    start = time.monotonic()
    w = contains_tree(g, tpp(20))
    assert time.monotonic() - start < 2.0
    assert w is not None and verify_witness(g, realize(tpp(20)), w)


@pytest.mark.parametrize(
    "f,p",
    [(t3(28), 47), (t3(29), 49), (tpp(20), 25), (tppp(21), 30), (t3(15), 23)],
)
def test_explicit_spider_copies_answer_like_the_family(f, p):
    # the search follows the tree, not its spec: an explicit copy of a
    # spider answers like the family spec, as fast
    g, _ = extremal_graph(f, p)
    copy = explicit_tree(list(realize(f).edges()))
    rng = random.Random(p)
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    start = time.monotonic()
    assert contains_tree(g, copy) is None
    for u, v in rng.sample(non_edges, 5):
        h = SimpleGraph.from_edges(g.n, list(g.edges()) + [(u, v)])
        expected = contains_tree(h, f) is not None
        w = contains_tree(h, copy)
        assert (w is not None) == expected
        assert w is None or verify_witness(h, realize(copy), w)
    assert time.monotonic() - start < 2.0


# Nine legs of length two, and a host free of it: only 0 and 10 have nine
# neighbours of degree >= 2, and the legs through 1..9 would all have to end
# at whichever of the two is not the hub.
NINE_LEGS = explicit_tree([(0, i) for i in range(1, 10)] + [(i, 9 + i) for i in range(1, 10)])
CROWDED = SimpleGraph.from_edges(
    19,
    [(0, i) for i in range(1, 10)]
    + [(i, 10) for i in range(1, 10)]
    + [(j, j + 1) for j in range(10, 18)],
)


def test_many_branch_skeleton_trees():
    # contains_tree agrees with the leaf-by-leaf decider, and rejects a host
    # that only a full search would otherwise settle
    legs = NINE_LEGS
    t = realize(legs)
    crowded = CROWDED
    assert contains_tree(crowded, legs) is None
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(19, 22)
        q = rng.uniform(0.25, 0.5)
        g = SimpleGraph.from_edges(
            p, [(u, v) for u in range(p) for v in range(u + 1, p) if rng.random() < q]
        )
        w = contains_tree(g, legs)
        assert (w is not None) == leafwise_embeds(g, t)
        assert w is None or verify_witness(g, t, w)


def test_generic_engine_rejects_nine_leg_spider_quickly():
    # without symmetry for isomorphic legs the generic engine tried all 9!
    # leg orders (7-11 s)
    start = time.monotonic()
    assert generic_backtrack(CROWDED, realize(NINE_LEGS)) is None
    assert time.monotonic() - start < 0.5


def repeated_branch_tree_edges(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A randomly relabelled tree on at most 9 vertices whose root carries
    two or more copies of one non-leaf branch: a spider with repeated legs
    of length 2 or 3 (plus at most one other leg, up to 3 long), or a root
    with copies of a small broom (one handle vertex with two or three
    bristles)."""
    if rng.random() < 0.5:
        length = rng.choice((2, 3))
        legs = [length] * rng.randint(2, 8 // length)
        if sum(legs) < 8 and rng.random() < 0.5:
            legs.append(rng.randint(1, min(3, 8 - sum(legs))))
        shapes = list(map(leg, legs))
    else:
        bristles = rng.randint(2, 3)
        broom = [(0, j) for j in range(1, bristles + 1)]
        shapes = [broom] * rng.randint(2, 8 // (bristles + 1))
    return hang(rng, shapes)


def planted_host_edges(rng: random.Random, tn: int, te, most: int):
    """A random host on ``tn..most`` vertices with a relabelled copy of the
    tree planted, often with one edge cut, so that many hosts sit just on
    either side of containing it: ``(p, sorted edges)``."""
    p = rng.randint(tn, most)
    he = set(R.random_host_edges(rng, p, rng.uniform(0.0, 0.3)))
    image = rng.sample(range(p), tn)
    planted = [tuple(sorted((image[a], image[b]))) for a, b in te]
    he |= set(planted)
    if rng.random() < 0.5:
        he.discard(rng.choice(planted))
    return p, sorted(he)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_generic_engine_matches_reference_on_repeated_branches(seed):
    rng = random.Random(seed)
    tn, te = repeated_branch_tree_edges(rng)
    t = SimpleGraph.from_edges(tn, te)
    p, he = planted_host_edges(rng, tn, te, 9)
    g = host_from_edges(p, he)
    w = generic_backtrack(g, t)
    assert (w is not None) == R.embeds_pruned(p, he, tn, te)
    assert w is None or verify_witness(g, t, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_star_skeleton_trees_match_reference(seed):
    # trees whose internal vertices induce a star, with unequal leaf classes,
    # on random small hosts
    rng = random.Random(seed)
    edges, v = [], 1
    for _ in range(rng.randrange(0, 4)):
        b, v = v, v + 1
        edges.append((0, b))
        for _ in range(rng.randrange(1, 4)):
            edges, v = edges + [(b, v)], v + 1
    for _ in range(rng.randrange(0 if edges else 2, 3)):
        edges, v = edges + [(0, v)], v + 1
    f = explicit_tree(edges)
    t = realize(f)
    p = rng.randrange(v, v + 4)
    he = R.random_host_edges(rng, p, rng.uniform(0.2, 0.6))
    g = host_from_edges(p, he)
    w = contains_tree(g, f)
    assert (w is not None) == R.embeds_pruned(p, he, v, edges)
    assert w is None or verify_witness(g, t, w)


def any_tree_edges(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A random tree on at most 9 vertices: a uniform labelled tree (Prüfer
    sequence), a path of 6 to 9 vertices, or a broom (a path of 3 to 6
    vertices with three or more bristles at one end), relabelled."""
    shape = rng.random()
    if shape < 0.6:
        n = rng.randint(2, 9)
        edges = list(prufer_tree(n, tuple(rng.randrange(n) for _ in range(n - 2))).edges())
    elif shape < 0.8:
        n = rng.randint(6, 9)
        edges = leg(n)
    else:
        handle = rng.randint(3, 6)
        n = rng.randint(handle + 3, 9)
        edges = leg(handle) + [(handle - 1, v) for v in range(handle, n)]
    label = rng.sample(range(n), n)
    return n, [(label[a], label[b]) for a, b in edges]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_every_tree_shape_matches_reference_on_planted_hosts(seed):
    rng = random.Random(seed)
    tn, te = any_tree_edges(rng)
    t = SimpleGraph.from_edges(tn, te)
    p, he = planted_host_edges(rng, tn, te, 9)
    g = host_from_edges(p, he)
    w = contains_tree(g, explicit_tree(te))
    expected = R.embeds_pruned(p, he, tn, te)
    assert (w is not None) == expected
    assert w is None or verify_witness(g, t, w)
    # the leaf-by-leaf decider that certifies larger hosts agrees here too
    assert leafwise_embeds(g, t) == expected


def test_skeleton_matching_follows_long_augmenting_paths():
    # a spider with k legs of length two on a host where leg i may end at
    # leaf host i or i+1 and the last leg only at leaf host 1: the greedy
    # placement leaves the last leg stranded, and the only augmenting path
    # runs through every leg, deeper than the interpreter's recursion limit
    k = 1000
    legs = explicit_tree(
        [(0, i) for i in range(1, k + 1)] + [(i, k + i) for i in range(1, k + 1)]
    )
    edges = [(0, i) for i in range(1, k + 1)] + [(k, k + 1)]
    edges += [(i, k + i) for i in range(1, k)] + [(i, k + i + 1) for i in range(1, k)]
    g = SimpleGraph.from_edges(2 * k + 1, edges)
    start = time.monotonic()
    w = contains_tree(g, legs)
    assert time.monotonic() - start < 2.0
    assert w is not None and verify_witness(g, realize(legs), w)


def test_generic_engine_order_bound():
    # the search is a loop, not a recursion, so no tree order is too large
    # for the interpreter's stack
    host = SimpleGraph.from_edges(1200, [(i, i + 1) for i in range(1199)])
    for n in (500, 501, 1100, 1200):
        w = contains_tree(host, path(n))
        assert w is not None and verify_witness(host, realize(path(n)), w)
    # a tree larger than the host needs no search at all
    assert contains_tree(SimpleGraph.empty(600), path(1100)) is None


def test_large_sparse_host_fast_rejection():
    # hub-degree filtering should reject low-degree hosts immediately
    g = near_regular(60, 9)
    start = time.monotonic()
    assert contains_tree(g, t3(15)) is None
    assert time.monotonic() - start < 1.0


def adversarial_host(n: int) -> SimpleGraph:
    """``K_{n-3}`` plus a 3-vertex tail on vertex 0: every clique vertex has
    the centre's degree, but none has ``n - 1`` others within distance 2."""
    k = n - 3
    edges = list(itertools.combinations(range(k), 2))
    edges += [(0, k), (k, k + 1), (k + 1, k + 2)]
    return host_from_edges(n, edges)


def spy(monkeypatch, name: str, calls: list) -> None:
    """Record one entry in ``calls`` per call of ``containment.<name>``."""
    real = getattr(containment, name)
    monkeypatch.setattr(containment, name, lambda *args: calls.append(name) or real(*args))


def test_adversarial_hosts_rejected_before_any_branch_pick(monkeypatch):
    # the per-placement Hall test never runs
    placements = []
    spy(monkeypatch, "_place_branch", placements)
    for n in range(15, 81):
        g = adversarial_host(n)
        for maker in FAMILY_MAKERS:
            t = realize(maker(n))
            assert g.max_degree() >= t.max_degree()
            assert contains_tree(g, maker(n)) is None, (maker.__name__, n)
            assert not placements, (maker.__name__, n)
    start = time.monotonic()
    assert contains_tree(adversarial_host(60), tppp(60)) is None
    assert time.monotonic() - start < 0.5


def crowded_branch_host(n: int) -> SimpleGraph:
    """Hub 0 joined to ``a = 1`` and to ``B = {2, ..., n-4}``; ``a`` is joined
    to ``z1, z2, z3`` and every vertex of ``B`` to ``z0``.  Hub 0 has degree
    ``n - 4`` and ``n`` other vertices within distance 2, so it passes every
    hub filter, but at most two branches can get leaves: one through ``a``,
    one through ``z0``."""
    z0 = n - 3
    edges = [(0, v) for v in range(1, z0)] + [(1, z) for z in range(z0 + 1, z0 + 4)]
    edges += [(b, z0) for b in range(2, z0)]
    return host_from_edges(n + 1, edges)


def test_hall_test_prunes_branch_picks_per_placement(monkeypatch):
    # without a Hall test per placement, tppp sweeps all C(n - 4, 3) picks
    # of its three branches at hub 0; with it, a pick dies at its third
    # branch, or at its second when the first is in B
    tests = []
    spy(monkeypatch, "_place_branch", tests)
    for n in range(15, 81):
        g = crowded_branch_host(n)
        t = realize(tppp(n))
        assert g.degree(0) == t.max_degree()
        tests.clear()
        assert contains_tree(g, tppp(n)) is None, n
        assert 0 < len(tests) <= n * n, (n, len(tests))
    # one more leaf host for a vertex of B makes room for the third branch
    g = host_from_edges(81, list(crowded_branch_host(80).edges()) + [(2, 79)])
    w = contains_tree(g, tppp(80))
    assert w is not None and verify_witness(g, realize(tppp(80)), w)
    start = time.monotonic()
    assert contains_tree(crowded_branch_host(80), tppp(80)) is None
    assert time.monotonic() - start < 0.2


def equal_run_tree_edges(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A randomly relabelled star-skeleton tree on at most 10 vertices whose
    centre carries a run of three or four equal branches (one or two leaves
    each), sometimes one other branch, and up to two leaves of its own."""
    leaves = rng.choice((1, 2))
    count = rng.randint(3, 9 // (leaves + 1))
    shapes = [[(0, j) for j in range(1, leaves + 1)]] * count
    room = 9 - count * (leaves + 1)
    if room >= 2 and rng.random() < 0.5:
        other = rng.randint(1, min(3, room - 1))
        shapes.append([(0, j) for j in range(1, other + 1)])
        room -= other + 1
    shapes += [[]] * rng.randint(0, min(2, room))
    return hang(rng, shapes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_skeleton_search_matches_reference_on_equal_branch_runs(seed):
    rng = random.Random(seed)
    tn, te = equal_run_tree_edges(rng)
    t = SimpleGraph.from_edges(tn, te)
    p, he = planted_host_edges(rng, tn, te, 10)
    g = host_from_edges(p, he)
    w = contains_tree(g, explicit_tree(te))
    assert (w is not None) == R.embeds_pruned(p, he, tn, te)
    assert w is None or verify_witness(g, t, w)


@pytest.mark.parametrize("n", [15, 30])
@pytest.mark.parametrize("maker", FAMILY_MAKERS)
def test_hosts_with_a_tight_two_ball_still_embed(maker, n):
    # the tree itself, and the tree with a path hanging off a leaf at
    # distance 2, relabelled: the centre's image has exactly n - 1 other
    # vertices within distance 2
    rng = random.Random(f"tight-{maker.__name__}-{n}")
    t = realize(maker(n))
    far = max(iter_bits(t.adj[1]))  # a leaf of branch 1, two steps from centre 0
    tailed = list(t.edges()) + [(far, n), (n, n + 1), (n + 1, n + 2)]
    for g in (t, host_from_edges(n + 3, tailed)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabeled(perm)
        w = contains_tree(g, maker(n))
        assert w is not None and verify_witness(g, t, w)
        hub = w[0]
        ball = g.adj[hub]
        for v in iter_bits(g.adj[hub]):
            ball |= g.adj[v]
        assert (ball & ~(1 << hub)).bit_count() == n - 1


# ------------------------------------------------------------ prepared trees

def test_rooted_context_is_built_once_per_tree(monkeypatch):
    calls = []
    forms = containment._rooted_forms
    monkeypatch.setattr(
        containment,
        "_rooted_forms",
        lambda t, seeds, intern: calls.append(seeds) or forms(t, seeds, intern),
    )
    # no other test uses this tree, so its context is not cached yet
    fork = explicit_tree([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (3, 6), (6, 7)])
    t = realize(fork)
    rng = random.Random(7)
    for p in range(8, 12):
        g = host_from_edges(p, R.random_host_edges(rng, p, 0.6))
        for _ in range(3):
            w = generic_backtrack(g, t)
            assert (contains_tree(g, fork) is None) == (w is None)
    assert len(calls) == 1


def test_traced_functions_keep_their_names(monkeypatch):
    # the benchmark's tracer looks these functions up by name in LAYERS
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.values():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), (module, name)
    # and it sees generic_backtrack only if contains_tree calls it through
    # the module global
    seen = []
    engine = containment.generic_backtrack
    monkeypatch.setattr(
        containment, "generic_backtrack", lambda g, t: seen.append(t.n) or engine(g, t)
    )
    assert contains_tree(SimpleGraph.complete(6), path(6)) is not None
    assert seen == [6]


# ------------------------------------------------------------------ odd trees

def test_explicit_trees_take_generic_path(monkeypatch):
    fork = explicit_tree([(0, 1), (1, 2), (2, 3), (1, 4)])
    g = SimpleGraph.complete(5)
    w = contains_tree(g, fork)
    assert w is not None and verify_witness(g, realize(fork), w)
    c5 = SimpleGraph.circulant(5, [1])
    assert contains_tree(c5, fork) is None  # needs a degree-3 vertex
    # every tree, a six-vertex path given by its edges among them, goes
    # through generic_backtrack
    seen = []
    engine = containment.generic_backtrack
    monkeypatch.setattr(
        containment, "generic_backtrack", lambda g, t: seen.append(t.n) or engine(g, t)
    )
    six = explicit_tree([(4, 2), (2, 0), (0, 1), (1, 3), (3, 5)])
    w = contains_tree(SimpleGraph.complete(6), six)
    assert w is not None and verify_witness(SimpleGraph.complete(6), realize(six), w)
    assert contains_tree(SimpleGraph.from_edges(6, [(0, i) for i in range(1, 6)]), six) is None
    assert seen == [6, 6]


def test_single_vertex_tree():
    assert contains_tree(SimpleGraph.empty(1), path(1)) == (0,)
    assert contains_tree(SimpleGraph.empty(0), path(1)) is None
