"""Exact tree-containment checking with explicit embedding witnesses.

Two engines, one answer.  Both try the same hubs (``_hubs``) as images of
the tree's first vertex (the skeleton's centre, or the generic root): the
host vertices with at least its degree in a component of at least ``n``
vertices, by descending degree, then index.  Everything that depends only
on the tree is prepared once per tree.

* ``contains_tree`` sends every tree whose internal vertices induce a star
  (the three spider families among them) to a *skeleton* search: skip each
  hub with fewer than ``n - 1`` other vertices within distance 2, then
  place the branch vertices one at a time, backtracking whenever the
  interchangeable leaf classes placed so far fail Hall's condition (an
  augmenting-path matching, extended from placement to placement).  Other
  trees use the generic engine.

* ``generic_backtrack`` embeds an arbitrary tree by backtracking over a BFS
  order rooted at a maximum-degree vertex, with degree pruning and an
  ascending-host-index rule over runs of siblings whose rooted subtrees are
  isomorphic (equal AHU canonical forms): such siblings are interchangeable,
  so only sorted images need be tried.  Leaf siblings are the simplest case.

Both return a witness tuple ``w`` with ``w[i]`` = host vertex for tree vertex
``i``, or ``None`` when no embedding exists.

The module also exposes the engine hook the brute-force oracle needs: an
anchored check for embeddings that use one prescribed host edge.  It pins
one directed tree edge per orbit under the tree's automorphisms, since an
automorphism carries an embedding pinned at one edge of an orbit to one
pinned at any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import SimpleGraph, iter_bits
from .trees import TreeFamily, realize

# Largest tree order ``generic_backtrack`` accepts: ``_engine`` recurses once
# per placed tree vertex (the rooting and the forms are built iteratively),
# and 500 levels leave half of the interpreter's default recursion limit of
# 1000 to the callers.
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
    vertices (each adjacent to ``center`` only), most leaves first; every
    other tree vertex is a leaf hanging off ``center`` or one branch.
    """

    center: int
    branches: tuple[int, ...]
    center_leaves: tuple[int, ...]
    branch_leaves: tuple[tuple[int, ...], ...]
    # The leaf count of the centre and of each branch, fixed per tree; equal
    # counts of consecutive branches form a run of interchangeable branches.
    _demands: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        demands = tuple(map(len, (self.center_leaves, *self.branch_leaves)))
        object.__setattr__(self, "_demands", demands)


def build_star_skeleton(t: SimpleGraph) -> StarSkeleton | None:
    """Decompose the tree ``t`` if its internal vertices induce a star, else
    None.  The centre is the internal vertex with the most internal
    neighbours, then the highest degree, then the lowest index."""
    adj = t.adj
    deg = list(map(int.bit_count, adj))
    internal = sum(1 << v for v, d in enumerate(deg) if d >= 2)
    if not internal:
        return None
    center = max(
        iter_bits(internal), key=lambda v: ((adj[v] & internal).bit_count(), deg[v], -v)
    )
    # A tree has no triangles, so the branches are adjacent to nothing else
    # internal, and every leaf hangs off the centre or a branch.
    if internal & ~adj[center] != 1 << center:
        return None
    branches = tuple(sorted(iter_bits(internal ^ 1 << center), key=lambda b: -deg[b]))
    leaves_of = lambda v: tuple(iter_bits(adj[v] & ~internal))
    return StarSkeleton(center, branches, leaves_of(center), tuple(map(leaves_of, branches)))


def _claim(masks: list[int], got: list[int], taken: int, used: int, c: int, need: int) -> int:
    """Give leaf class ``c`` ``need`` more hosts from ``masks[c]``; returns the
    new ``taken`` (every host a class holds in ``got``, plus the ``used``
    ones, which no class may take), or -1 when Hall's condition fails.

    The leaves of one internal vertex are interchangeable, so the matching
    runs on classes: a class takes its lowest free hosts, then finds each
    missing one by a breadth-first search for an augmenting path, where a
    class takes a host another class holds and that class replaces it, until
    some class on the path has a free host.  When there is none, the classes
    reached hold every host they can use and still miss one."""
    free = masks[c] & ~taken
    while need and free:
        low = free & -free
        got[c] |= low
        taken |= low
        free ^= low
        need -= 1
    while need:
        via: dict[int, tuple[int, int]] = {}  # class -> (class, host it takes)
        closed = got[c] | used  # used hosts, and those of the classes reached
        queue = [c]
        end = -1
        for x in queue:
            cand = masks[x] & taken & ~closed
            while cand:
                h = cand & -cand
                y = next(y for y, held in enumerate(got) if held & h)
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
            return -1
        free = masks[end] & ~taken
        free &= -free
        got[end] |= free
        taken |= free
        while end != c:  # each class passes one host back along the path
            x, h = via[end]
            got[end] ^= h
            got[x] |= h
            end = x
        need -= 1
    return taken


def _place_leaves(masks: list[int], demands: tuple[int, ...]) -> list[int]:
    """The hosts each class ``c`` gets when the classes, in order, claim
    ``demands[c]`` hosts from ``masks[c]`` from scratch; the caller has
    checked that they meet Hall's condition."""
    got = [0] * len(masks)
    taken = 0
    for c, need in enumerate(demands):
        taken = _claim(masks, got, taken, 0, c, need)
    return got


def _place_branch(masks: list[int], state: tuple, bit: int, need: int) -> tuple | None:
    """The exact Hall test after one more internal vertex is placed: extend
    the class matching ``state = (got, taken, used, union)`` of the vertices
    placed so far (``_claim``; ``union`` ORs their masks), left as it was, or
    return None.  A union count catches the usual failure first.  The image
    ``bit`` leaves the class that held it, which re-augments, then the new
    class ``masks[len(got)]`` claims ``need`` hosts."""
    got, taken, used, union = state
    union |= masks[len(got)]
    if (union & ~(used | bit)).bit_count() < (taken & ~used).bit_count() + need:
        return None
    used |= bit
    got = [*got, 0]
    if taken & bit:
        x = next(x for x, held in enumerate(got) if held & bit)
        got[x] ^= bit
        taken = _claim(masks, got, taken, used, x, 1)
    else:
        taken |= bit
    if taken >= 0:
        taken = _claim(masks, got, taken, used, len(got) - 1, need)
    return None if taken < 0 else (got, taken, used, union)


def _hubs(g: SimpleGraph, n: int, need: int) -> tuple[list[int], list[int]]:
    """The host degrees, and the host vertices that may take a tree vertex of
    degree ``need`` in an embedding of an ``n``-vertex tree, best first.

    A hub needs degree ``need`` and, since a tree is connected, a component
    of at least ``n`` vertices.  Hubs are ordered by (-degree, index).  One
    pass over the components drops every hub of the small ones (blocks
    ``K_{n-1}``) at once; it is skipped when no vertex has the degree.
    """
    hdeg = list(map(int.bit_count, g.adj))
    hubs = [v for v, d in enumerate(hdeg) if d >= need]
    if hubs:
        big = 0
        for mask in g.component_masks():
            if mask.bit_count() >= n:
                big |= mask
        hubs = [v for v in hubs if big >> v & 1]
        hubs.sort(key=lambda v: (-hdeg[v], v))
    return hdeg, hubs


def _skeleton_search(
    g: SimpleGraph, t: SimpleGraph, sk: StarSkeleton
) -> tuple[int, ...] | None:
    n = t.n
    adj = g.adj
    demands = sk._demands
    k = len(sk.branches)
    hdeg, hubs = _hubs(g, n, t.degree(sk.center))
    for w0 in hubs:
        # Every tree vertex lies within distance 2 of the centre, so the
        # other n - 1 images lie in the hub's 2-ball.
        row0 = adj[w0]
        ball = row0
        for w in iter_bits(row0):
            ball |= adj[w]
        if (ball & ~(1 << w0)).bit_count() < n - 1:
            continue
        # Class i is the centre (i = 0) or branch i - 1.  Equal-demand
        # branches are interchangeable, so each run of them takes ascending
        # images, and class i goes no higher than ``opts[i][top[i]]``, which
        # leaves one candidate for each later class of its run.
        opts: list[list[int]] = [[]] * (k + 1)
        top = [0] * (k + 1)
        for i in range(k, 0, -1):
            if i < k and demands[i + 1] == demands[i]:
                opts[i], top[i] = opts[i + 1], top[i + 1] - 1
            else:
                opts[i] = [w for w in iter_bits(row0) if hdeg[w] > demands[i]]
                top[i] = len(opts[i]) - 1
        if min(top) < 0:
            continue
        # Backtrack over the branches one at a time, and reject each
        # placement whose classes so far fail Hall's condition: later
        # placements only shrink the masks, so no extension can pass.
        masks = [row0] * (k + 1)
        states = [_place_branch(masks, ([], 0, 0, 0), 1 << w0, demands[0])] * (k + 1)
        pos = [0] * (k + 2)
        i = 1
        while 0 < i <= k:
            state = None
            while state is None and pos[i] <= top[i]:
                w = opts[i][pos[i]]
                pos[i] += 1
                if not states[i - 1][2] >> w & 1:
                    masks[i] = adj[w]
                    state = _place_branch(masks, states[i - 1], 1 << w, demands[i])
            if state is None:
                i -= 1
                continue
            states[i] = state
            i += 1
            pos[i] = pos[i - 1] if i <= k and demands[i] == demands[i - 1] else 0
        if not i:
            continue
        # One demand class per internal vertex: its leaves share the free
        # neighbourhood of its image.
        used = states[k][2]
        got = _place_leaves([mask & ~used for mask in masks], demands)
        witness = [-1] * n
        witness[sk.center] = w0
        for i, b in enumerate(sk.branches, 1):
            witness[b] = opts[i][pos[i] - 1]  # pos[i] is one past its image
        for leaves, hosts in zip((sk.center_leaves, *sk.branch_leaves), got):
            for leaf, h in zip(leaves, iter_bits(hosts)):
                witness[leaf] = h
        return tuple(witness)
    return None


# ---------------------------------------------------------------- generic engine

@dataclass(frozen=True, slots=True)
class TreeEmbedContext:
    """A tree prepared for backtracking from a fixed enumeration order.

    ``order[i]`` is the tree vertex placed at step ``i``; for ``i`` past the
    seeds, ``parent_pos[i]`` points at the earlier step holding its unique
    already-placed neighbour.  ``monotone[i]`` marks steps whose tree vertex
    is a sibling of the previous step's with an isomorphic subtree (images
    must ascend).
    """

    tdeg: tuple[int, ...]
    order: tuple[int, ...]
    parent_pos: tuple[int, ...]
    monotone: tuple[bool, ...]


def _prepare_context(
    t: SimpleGraph, seeds: list[int], intern: dict | None = None
) -> tuple[TreeEmbedContext, tuple[int, ...]]:
    """``t`` rooted at ``seeds`` (each seed's side hangs below it), and the
    canonical form of each seed's side.

    Forms are AHU codes (Aho, Hopcroft and Ullman 1974, section 3.2): the id
    that ``intern`` gives the sorted tuple of the kids' forms, so two rooted
    subtrees are isomorphic exactly when their forms are equal.  They are
    built bottom-up over the reversed BFS order, with no recursion.  Each
    vertex's kids are placed internal first, then by form, then by index,
    and a kid whose form equals the previous kid's is ``monotone``.  This
    is exact: swapping the images of two isomorphic sibling subtrees maps an
    embedding to one with the same seed images, so permuting each run of
    isomorphic siblings, top-down, sorts every run's images.
    """
    if intern is None:
        intern = {}
    n = t.n
    adj = t.adj
    tdeg = tuple(map(int.bit_count, adj))
    parent = [-1] * n
    seen = 0
    for s in seeds:
        seen |= 1 << s
    bfs = list(seeds)
    for v in bfs:  # grows while it is read
        kids = adj[v] & ~seen
        seen |= kids
        for w in iter_bits(kids):
            parent[w] = v
            bfs.append(w)
    assert len(bfs) == n, "tree must be connected"

    below: list[list[int]] = [[] for _ in range(n)]
    form = [0] * n
    for v in reversed(bfs):
        form[v] = intern.setdefault(tuple(sorted(below[v])), len(intern))
        if parent[v] >= 0:
            below[parent[v]].append(form[v])

    order = list(seeds)
    parent_pos = [-1] * n
    monotone = [False] * n
    for i, v in enumerate(order):  # grows while it is read
        kids = [w for w in iter_bits(adj[v]) if parent[w] == v]
        kids.sort(key=lambda w: (tdeg[w] == 1, form[w], w))
        for k, w in enumerate(kids):
            parent_pos[len(order)] = i
            monotone[len(order)] = k > 0 and form[w] == form[kids[k - 1]]
            order.append(w)
    ctx = TreeEmbedContext(
        tdeg=tdeg,
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        monotone=tuple(monotone),
    )
    return ctx, tuple(form[s] for s in seeds)


@lru_cache(maxsize=64)
def _rooted_context(t: SimpleGraph) -> TreeEmbedContext:
    """``t`` prepared from its lowest-index maximum-degree vertex, once per tree."""
    return _prepare_context(t, [max(range(t.n), key=lambda v: (t.degree(v), -v))])[0]


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
    while cands:
        low = cands & -cands
        cands ^= low
        w = low.bit_length() - 1
        if hdeg[w] < need:
            continue
        assign[pos] = w
        if _engine(hadj, hdeg, ctx, assign, used | low, pos + 1):
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

    ctx = _rooted_context(t)
    hdeg, hubs = _hubs(g, n, ctx.tdeg[ctx.order[0]])
    assign = [-1] * n
    for w in hubs:
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

@lru_cache(maxsize=64)
def edge_anchored_contexts(t: SimpleGraph) -> tuple[TreeEmbedContext, ...]:
    """One context per orbit of directed tree edges ``(a, b)`` under the
    tree's automorphisms, with ``a, b`` pinned as the first two placements;
    built once per tree.

    Used for incremental containment: a new embedding appearing after adding
    host edge ``{x, y}`` must map some tree edge onto it, in one of the two
    orientations.  Two directed edges lie in one orbit exactly when their
    ``a``-sides (rooted at ``a``) and their ``b``-sides (rooted at ``b``)
    have equal canonical forms, and an automorphism carrying ``(a, b)`` to
    ``(a', b')`` turns an embedding pinned at one into an embedding pinned
    at the other, so the first context of each orbit is enough.
    """
    intern: dict = {}
    orbits: dict[tuple[int, ...], TreeEmbedContext] = {}
    for a, b in t.edges():
        for seeds in ([a, b], [b, a]):
            ctx, forms = _prepare_context(t, seeds, intern)
            orbits.setdefault(forms, ctx)
    return tuple(orbits.values())


def contains_through_edge(
    hadj: list[int],
    hdeg: list[int],
    contexts: tuple[TreeEmbedContext, ...],
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
