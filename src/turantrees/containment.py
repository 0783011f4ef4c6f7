"""Exact tree-containment checking with explicit embedding witnesses.

Two engines, one answer:

* ``contains_tree`` sends every tree whose internal vertices induce a star
  (the three spider families among them) to a *skeleton* search: keep only
  the hubs that pass three exact filters (the centre's degree, a component
  of at least ``n`` vertices, and at least ``n - 1`` other vertices within
  distance 2), place the internal star (center plus branch vertices) by
  direct enumeration, then decide leaf placement exactly with an
  augmenting-path matching between the interchangeable leaf classes and the
  free host neighbours, which also yields the concrete assignment.  Other
  trees use the generic engine.

* ``generic_backtrack`` embeds an arbitrary tree by backtracking over a BFS
  order rooted at a maximum-degree vertex, with degree pruning and an
  ascending-host-index rule over blocks of same-parent leaves (leaf siblings
  are interchangeable, so only sorted images need be tried).

Both return a witness tuple ``w`` with ``w[i]`` = host vertex for tree vertex
``i``, or ``None`` when no embedding exists.  Because a tree is connected,
every embedding lives inside a single host component; root candidates are
filtered by component size accordingly.

The module also exposes the engine hook the brute-force oracle needs: an
anchored check for embeddings that use one prescribed host edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .graphs import SimpleGraph, iter_bits
from .trees import TreeFamily, realize

# Largest tree order ``generic_backtrack`` accepts: it recurses once per
# tree vertex, and the interpreter's default recursion limit is 1000.
MAX_GENERIC_ORDER = 500

__all__ = [
    "MAX_GENERIC_ORDER",
    "StarSkeleton",
    "build_star_skeleton",
    "contains_tree",
    "generic_backtrack",
    "verify_witness",
    "TreeEmbedContext",
    "contains_through_edge",
]


# ---------------------------------------------------------------- skeleton

@dataclass(frozen=True, slots=True)
class StarSkeleton:
    """Internal structure of a tree whose internal vertices induce a star.

    ``center`` is the star's middle; ``branches`` are the other internal
    vertices (each adjacent to ``center`` only); every other tree vertex is a
    leaf hanging off ``center`` or one branch.
    """

    center: int
    branches: tuple[int, ...]
    center_leaves: tuple[int, ...]
    branch_leaves: tuple[tuple[int, ...], ...]


def build_star_skeleton(t: SimpleGraph) -> StarSkeleton | None:
    """Decompose ``t`` if its internal vertices induce a star, else None."""
    n = t.n
    if n < 3:
        return None
    deg = [t.degree(v) for v in range(n)]
    internal = [v for v in range(n) if deg[v] >= 2]
    if not internal:
        return None
    internal_set = set(internal)
    if len(internal) == 1:
        center = internal[0]
        branches: tuple[int, ...] = ()
    else:
        idegs = {
            v: sum(1 for w in t.neighbors(v) if w in internal_set) for v in internal
        }
        centers = [v for v in internal if idegs[v] == len(internal) - 1]
        if not centers or any(
            idegs[v] != 1 for v in internal if v not in centers
        ):
            return None
        if len(internal) == 2:
            # Both qualify; pick the heavier-demand side (more leaves).
            a, b = internal
            center = a if deg[a] >= deg[b] else b
        else:
            center = centers[0]
        branches = tuple(v for v in internal if v != center)

    leaves_of = lambda v: tuple(w for w in t.neighbors(v) if deg[w] == 1)
    sk = StarSkeleton(
        center=center,
        branches=branches,
        center_leaves=leaves_of(center),
        branch_leaves=tuple(leaves_of(b) for b in branches),
    )
    covered = 1 + len(sk.branches) + len(sk.center_leaves)
    covered += sum(len(ls) for ls in sk.branch_leaves)
    if covered != n:
        return None  # some leaf hangs off a leaf-of-internal chain; not a star
    return sk


def _place_leaves(masks: list[int], demands: list[int]) -> list[int] | None:
    """Give each demand class ``c`` ``demands[c]`` distinct hosts from
    ``masks[c]``; returns the host mask each class gets, or None.

    The leaves of one internal vertex are interchangeable, so the matching
    runs on classes, not on single leaves: a class first takes its lowest
    free hosts, then finds each missing host by a breadth-first search for an
    augmenting path, where one class takes a host another class holds and
    that class replaces it, until some class on the path has a free host.
    When no such path exists, the classes reached hold every host they can
    use and still miss one, which violates Hall's condition, so no placement
    exists.  That condition is checked first for all classes together: the
    usual failure, too few free neighbours for all leaves, then costs one
    union instead of a greedy pass.
    """
    union = 0
    for mask in masks:
        union |= mask
    if union.bit_count() < sum(demands):
        return None
    got = [0] * len(masks)
    holder: dict[int, int] = {}  # host bit -> the class holding it
    taken = 0
    for c, need in enumerate(demands):
        free = masks[c] & ~taken
        while need and free:
            low = free & -free
            got[c] |= low
            holder[low] = c
            taken |= low
            free ^= low
            need -= 1
        while need:
            via: dict[int, tuple[int, int]] = {}  # class -> (class, host it takes)
            closed = got[c]  # hosts held by classes already reached
            queue = [c]
            end = -1
            for x in queue:
                cand = masks[x] & taken & ~closed
                while cand:
                    h = cand & -cand
                    y = holder[h]
                    via[y] = (x, h)
                    closed |= got[y]
                    cand &= ~got[y]
                    if masks[y] & ~taken:
                        end = y
                        break
                    queue.append(y)
                if end >= 0:
                    break
            if end < 0:
                return None
            free = masks[end] & ~taken
            free &= -free
            got[end] |= free
            holder[free] = end
            taken |= free
            while end != c:  # each class passes one host back along the path
                x, h = via[end]
                got[end] ^= h
                got[x] |= h
                holder[h] = x
                end = x
            need -= 1
    return got


def _skeleton_search(
    g: SimpleGraph, t: SimpleGraph, sk: StarSkeleton
) -> tuple[int, ...] | None:
    n = t.n
    adj = g.adj
    hdeg = list(map(int.bit_count, adj))

    # Hub filters, cheapest first, each exact.  The centre's image needs the
    # centre's degree.
    center_need = t.degree(sk.center)
    hubs = [v for v, d in enumerate(hdeg) if d >= center_need]
    if not hubs:
        return None
    # A connected tree embeds inside one component of at least n vertices.
    # The 2-ball test below implies this one, but one pass over the
    # components drops every hub of the small ones (blocks K_{n-1}) at once.
    big = 0
    for mask in g.component_masks():
        if mask.bit_count() >= n:
            big |= mask
    # Every tree vertex lies within distance 2 of the centre, so the other
    # n - 1 images lie in the hub's 2-ball.
    w0_cands = []
    for v in hubs:
        if big >> v & 1:
            ball = adj[v]
            for w in iter_bits(adj[v]):
                ball |= adj[w]
            if (ball & ~(1 << v)).bit_count() >= n - 1:
                w0_cands.append(v)
    w0_cands.sort(key=lambda v: (-hdeg[v], v))

    # Group branches by leaf demand: equal-demand branches are
    # interchangeable, so host images are tried in ascending order only.
    demands = sorted(
        {len(ls) for ls in sk.branch_leaves}, reverse=True
    )
    groups = [
        [b for b, ls in zip(sk.branches, sk.branch_leaves) if len(ls) == d]
        for d in demands
    ]

    for w0 in w0_cands:
        row0 = g.adj[w0]
        group_cands = [
            [w for w in iter_bits(row0) if hdeg[w] >= d + 1]
            for d in demands
        ]
        if any(len(c) < len(grp) for c, grp in zip(group_cands, groups)):
            continue
        for picks in product(
            *(combinations(c, len(grp)) for c, grp in zip(group_cands, groups))
        ):
            flat = [w for pick in picks for w in pick]
            used = 1 << w0
            ok = True
            for w in flat:
                if used >> w & 1:
                    ok = False
                    break
                used |= 1 << w
            if not ok:
                continue

            # One demand class per internal vertex: its leaves share the free
            # neighbourhood of its image.
            masks = [row0 & ~used]
            leaf_classes = [sk.center_leaves]
            branch_order: list[tuple[int, int]] = []
            for pick, grp in zip(picks, groups):
                for b, w in zip(grp, pick):
                    masks.append(g.adj[w] & ~used)
                    leaf_classes.append(sk.branch_leaves[sk.branches.index(b)])
                    branch_order.append((b, w))
            got = _place_leaves(masks, [len(ls) for ls in leaf_classes])
            if got is None:
                continue

            witness = [-1] * n
            witness[sk.center] = w0
            for b, w in branch_order:
                witness[b] = w
            for leaves, hosts in zip(leaf_classes, got):
                for leaf, h in zip(leaves, iter_bits(hosts)):
                    witness[leaf] = h
            return tuple(witness)
    return None


# ---------------------------------------------------------------- generic engine

@dataclass(frozen=True, slots=True)
class TreeEmbedContext:
    """A tree prepared for backtracking from a fixed enumeration order.

    ``order[i]`` is the tree vertex placed at step ``i``; for ``i`` past the
    pinned prefix, ``parent_pos[i]`` points at the earlier step holding its
    unique already-placed neighbour.  ``monotone[i]`` marks steps whose tree
    vertex is a leaf sibling of the previous step's (images must ascend).
    """

    tdeg: tuple[int, ...]
    order: tuple[int, ...]
    parent_pos: tuple[int, ...]
    monotone: tuple[bool, ...]
    pinned: int


def _prepare_context(t: SimpleGraph, seeds: list[int]) -> TreeEmbedContext:
    n = t.n
    tdeg = tuple(t.degree(v) for v in range(n))
    order: list[int] = list(seeds)
    pos_of = {v: i for i, v in enumerate(order)}
    parent_pos = [-1] * n
    monotone = [False] * n

    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        kids = [w for w in t.neighbors(v) if w not in pos_of]
        kids.sort(key=lambda w: (tdeg[w] == 1, w))  # internal first, then leaves
        prev_leaf = -1
        for w in kids:
            pos_of[w] = len(order)
            parent_pos[pos_of[w]] = pos_of[v]
            if tdeg[w] == 1 and prev_leaf == len(order) - 1:
                monotone[len(order)] = True
            if tdeg[w] == 1:
                prev_leaf = len(order)
            order.append(w)
    assert len(order) == n, "tree must be connected"
    return TreeEmbedContext(
        tdeg=tdeg,
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        monotone=tuple(monotone),
        pinned=len(seeds),
    )


def _engine(
    hadj: list[int],
    hdeg: list[int],
    ctx: TreeEmbedContext,
    assign: list[int],
    used: int,
    pos: int,
) -> bool:
    if pos == len(ctx.order):
        return True
    cands = hadj[assign[ctx.parent_pos[pos]]] & ~used
    if ctx.monotone[pos]:
        cands &= -2 << assign[pos - 1]  # strictly larger indices only
    need = ctx.tdeg[ctx.order[pos]]
    for w in iter_bits(cands):
        if hdeg[w] < need:
            continue
        assign[pos] = w
        if _engine(hadj, hdeg, ctx, assign, used | 1 << w, pos + 1):
            return True
    return False


def generic_backtrack(g: SimpleGraph, t: SimpleGraph) -> tuple[int, ...] | None:
    """Embed the tree ``t`` into ``g`` by pure backtracking; witness or None.
    Trees of more than ``MAX_GENERIC_ORDER`` vertices raise ``ValueError``."""
    n = t.n
    p = g.n
    if n > p:
        return None
    if n > MAX_GENERIC_ORDER:
        raise ValueError(
            f"the generic embedding search recurses once per tree vertex and is "
            f"limited to trees of order <= {MAX_GENERIC_ORDER} (got {n})"
        )
    if n == 1:
        return (0,) if p >= 1 else None

    hdeg = [g.degree(v) for v in range(p)]
    comp_size = [0] * p
    for mask in g.component_masks():
        size = mask.bit_count()
        for v in iter_bits(mask):
            comp_size[v] = size

    tdeg = [t.degree(v) for v in range(n)]
    root = max(range(n), key=lambda v: (tdeg[v], -v))
    ctx = _prepare_context(t, [root])

    assign = [-1] * n
    for w in sorted(range(p), key=lambda v: (-hdeg[v], v)):
        if hdeg[w] < tdeg[root] or comp_size[w] < n:
            continue
        assign[0] = w
        if _engine(g.adj, hdeg, ctx, assign, 1 << w, 1):
            witness = [-1] * n
            for i, v in enumerate(ctx.order):
                witness[v] = assign[i]
            return tuple(witness)
    return None


# ---------------------------------------------------------------- public API

@lru_cache(maxsize=64)
def _prepared(f: TreeFamily) -> tuple[SimpleGraph, StarSkeleton | None]:
    """The family's tree and its star skeleton, built once per family."""
    t = realize(f)
    return t, build_star_skeleton(t)


def contains_tree(g: SimpleGraph, f: TreeFamily) -> tuple[int, ...] | None:
    """Does ``g`` contain the family tree?  Witness tuple (tree vertex ``i``
    maps to host ``w[i]``) or None.

    Every tree whose internal vertices induce a star takes the skeleton fast
    path, whatever its kind: the three spider families (except ``tppp`` at
    ``n = 6``, which is a plain path), explicit copies of them, stars and
    paths on at most five vertices.  Every other tree backtracks.  The tree
    and its skeleton are built once per family and reused.
    """
    t, sk = _prepared(f)
    if t.n > g.n:
        return None
    if sk is not None:
        return _skeleton_search(g, t, sk)
    return generic_backtrack(g, t)


def verify_witness(g: SimpleGraph, t: SimpleGraph, witness: tuple[int, ...]) -> bool:
    """Check a claimed embedding: right length, injective, in range, and
    every tree edge lands on a host edge.  Linear in the tree size."""
    if len(witness) != t.n:
        return False
    if any(not 0 <= w < g.n for w in witness):
        return False
    if len(set(witness)) != t.n:
        return False
    return all(g.has_edge(witness[a], witness[b]) for a, b in t.edges())


# ---------------------------------------------------------------- oracle hook

def edge_anchored_contexts(t: SimpleGraph) -> list[TreeEmbedContext]:
    """One context per directed tree edge ``(a, b)``, with ``a, b`` pinned as
    the first two placements.  Used for incremental containment: a new
    embedding appearing after adding host edge ``{x, y}`` must map some tree
    edge onto it, in one of the two orientations."""
    out = []
    for a, b in t.edges():
        out.append(_prepare_context(t, [a, b]))
        out.append(_prepare_context(t, [b, a]))
    return out


def contains_through_edge(
    hadj: list[int],
    hdeg: list[int],
    contexts: list[TreeEmbedContext],
    x: int,
    y: int,
) -> bool:
    """Does the host (given as bitmask rows) contain the prepared tree via an
    embedding that maps some tree edge onto the host edge ``{x, y}``?"""
    for ctx in contexts:
        a, b = ctx.order[0], ctx.order[1]
        if hdeg[x] < ctx.tdeg[a] or hdeg[y] < ctx.tdeg[b]:
            continue
        assign = [-1] * len(ctx.order)
        assign[0] = x
        assign[1] = y
        if _engine(hadj, hdeg, ctx, assign, (1 << x) | (1 << y), 2):
            return True
    return False
