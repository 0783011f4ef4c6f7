"""Slow, obviously-correct reference implementations used only by tests.

Everything here favors transparency over speed and is deliberately written
against plain Python data structures (sets, tuples, permutations) rather
than the package's bitmask machinery, so that agreement between the two
sides is a genuine cross-check instead of a tautology.

Contents:

* ``injection_contains``     -- tree containment by enumerating injections.
* ``embeds_pruned``          -- the same decision with edge-consistent
                                pruning, for hosts too big to enumerate
                                all injections over.
* ``image_masks`` / ``masks_contain`` -- the same decision for many hosts on
                                one vertex set: every injection's image as a
                                host bitmask, enumerated once, then a subset
                                test per host.
* ``exhaustive_ex``          -- ex(p;T) by scanning every labeled host.
* ``random_host_edges`` / ``random_tree_edges`` -- randomized instances.
* ``pruefer_tree_edges``     -- the labeled tree of a Pruefer sequence.
* ``edge_text_per_line``     -- the edge-text parser, one line at a time.
* ``SMALL_TREES``            -- every tree on at most 5 vertices, one
                                representative per isomorphism class.
"""

from __future__ import annotations

import itertools
import random
import re

__all__ = [
    "SMALL_TREES",
    "adjacency_sets",
    "all_masks",
    "edge_text_per_line",
    "edges_of_mask",
    "embeds_pruned",
    "exhaustive_ex",
    "image_masks",
    "injection_contains",
    "masks_contain",
    "mask_of_edges",
    "pair_slots",
    "pruefer_tree_edges",
    "random_host_edges",
    "random_tree_edges",
]

# Every tree on <= 5 vertices, one per isomorphism class, as (n, edges).
# Counts per order: 1, 1, 1, 2, 3 -- the classical enumeration.
SMALL_TREES: list[tuple[int, tuple[tuple[int, int], ...]]] = [
    (1, ()),
    (2, ((0, 1),)),
    (3, ((0, 1), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3))),            # path
    (4, ((0, 1), (0, 2), (0, 3))),            # star
    (5, ((0, 1), (1, 2), (2, 3), (3, 4))),    # path
    (5, ((0, 1), (0, 2), (0, 3), (0, 4))),    # star
    (5, ((0, 1), (1, 2), (2, 3), (1, 4))),    # fork / spider
]


def adjacency_sets(p: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(p)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def injection_contains(p: int, host_edges, tree_n: int, tree_edges) -> bool:
    """Decide containment by trying every injection of tree vertices into
    host vertices.  Exponential and proud of it."""
    adj = adjacency_sets(p, host_edges)
    for image in itertools.permutations(range(p), tree_n):
        if all(image[b] in adj[image[a]] for a, b in tree_edges):
            return True
    return False


def _bfs_order(tree_n: int, tree_edges) -> list[int]:
    """Vertices of a connected tree in BFS order from vertex 0, so every
    later vertex has an already-placed neighbor."""
    adj = adjacency_sets(tree_n, tree_edges)
    order = [0]
    seen = {0}
    at = 0
    while at < len(order):
        for w in sorted(adj[order[at]]):
            if w not in seen:
                seen.add(w)
                order.append(w)
        at += 1
    return order


def embeds_pruned(p: int, host_edges, tree_n: int, tree_edges) -> bool:
    """Same decision as ``injection_contains`` but placing tree vertices in
    BFS order, only extending along host edges, and only onto host vertices
    of at least the tree vertex's degree (an embedding maps the tree
    vertex's neighbours to distinct host neighbours).  Still a plain
    set-based enumeration of partial injections; usable up to host order
    ~9."""
    if tree_n > p:
        return False
    if not tree_edges:
        return p >= tree_n
    adj = adjacency_sets(p, host_edges)
    tadj = adjacency_sets(tree_n, tree_edges)
    order = _bfs_order(tree_n, tree_edges)
    place: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        t = order[i]
        anchored = [place[w] for w in tadj[t] if w in place]
        pool = set.intersection(*(adj[h] for h in anchored)) if anchored else set(range(p))
        pool = {h for h in pool if len(adj[h]) >= len(tadj[t])}
        for h in sorted(pool - set(place.values())):
            place[t] = h
            if extend(i + 1):
                return True
            del place[t]
        return False

    return extend(0)


# ------------------------------------------------------------- host encodings

def pair_slots(p: int) -> list[tuple[int, int]]:
    """The C(p,2) vertex pairs in lexicographic order; slot i of a host
    bitmask corresponds to pair_slots(p)[i]."""
    return [(u, v) for u in range(p) for v in range(u + 1, p)]

def mask_of_edges(p: int, edges) -> int:
    index = {pair: i for i, pair in enumerate(pair_slots(p))}
    mask = 0
    for u, v in edges:
        mask |= 1 << index[(min(u, v), max(u, v))]
    return mask

def edges_of_mask(p: int, mask: int) -> list[tuple[int, int]]:
    slots = pair_slots(p)
    return [slots[i] for i in range(len(slots)) if (mask >> i) & 1]

def all_masks(p: int):
    return range(1 << (p * (p - 1) // 2))


def image_masks(p: int, tree_n: int, tree_edges) -> tuple[int, ...]:
    """The distinct images of the tree under every injection of its vertices
    into ``range(p)``, each as a host bitmask in ``pair_slots(p)`` order."""
    index = {pair: i for i, pair in enumerate(pair_slots(p))}
    masks = set()
    for image in itertools.permutations(range(p), tree_n):
        mask = 0
        for a, b in tree_edges:
            x, y = image[a], image[b]
            mask |= 1 << index[(min(x, y), max(x, y))]
        masks.add(mask)
    return tuple(sorted(masks))


def masks_contain(masks, host_mask: int) -> bool:
    """Does the host with bitmask ``host_mask`` hold one of the images
    ``masks`` (from ``image_masks`` on the same vertex count)?"""
    return any(mask & host_mask == mask for mask in masks)


def exhaustive_ex(p: int, tree_n: int, tree_edges) -> int:
    """ex(p;T) by scanning all labeled hosts on p vertices.  Exact for
    p <= 6 in reasonable time; containment is the subset test against the
    tree's image masks (cross-checked against injection_contains)."""
    masks = image_masks(p, tree_n, tree_edges)
    best = 0
    for mask in all_masks(p):
        edges = bin(mask).count("1")
        if edges > best and not masks_contain(masks, mask):
            best = edges
    return best


# --------------------------------------------------------- random generators

def random_host_edges(rng: random.Random, p: int, q: float) -> list[tuple[int, int]]:
    """G(p, q) host: each pair becomes an edge independently."""
    return [pair for pair in pair_slots(p) if rng.random() < q]


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n >= 1 vertices via Pruefer decoding."""
    if n == 1:
        return []
    return pruefer_tree_edges(n, [rng.randrange(n) for _ in range(n - 2)])


def pruefer_tree_edges(n: int, seq) -> list[tuple[int, int]]:
    """The labeled tree on n >= 2 vertices with Pruefer sequence ``seq``
    (n - 2 entries in ``range(n)``), each edge as ``(min, max)``; every
    sequence gives a different tree, so ``itertools.product(range(n),
    repeat=n - 2)`` yields every labeled tree once."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    edges.append((u, v))
    return edges


_P_HEADER = re.compile(r"(?:#\s*)?p=(\d+)")


def edge_text_per_line(text: str) -> tuple[int, set[tuple[int, int]]]:
    """``(order, edges)`` of an edge-text graph, each edge as ``(min, max)``,
    read one line at a time; raises ``ValueError`` with the same message as
    ``turantrees.graphs.from_edge_text`` for every malformed text.

    A ``p=<count>`` or ``# p=<count>`` line before the first edge gives the
    order, else it is the largest index + 1; the order is at most 258047.
    """
    edges: list[tuple[int, int]] = []
    top = -1
    count = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if count is None and not edges and (header := _P_HEADER.fullmatch(raw.strip())):
            count = int(header.group(1))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
        top = max(top, u, v)
        edges.append((u, v))
    if count is None:
        count = top + 1
    elif count < top + 1:
        raise ValueError(
            f"header p={count} is below the largest vertex index + 1 ({top + 1})"
        )
    if count > 258047:
        raise ValueError(f"graph order {count} is above the supported maximum 258047")
    return count, {(min(u, v), max(u, v)) for u, v in edges}
