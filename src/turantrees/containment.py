"""Exact tree-containment checking with explicit embedding witnesses.

One search answers for every tree (``generic_backtrack``, which
``contains_tree`` calls).  The tree is rooted at its lowest-index
maximum-degree vertex and prepared once.  The root's images are the hubs
(``_hubs``): host vertices with at least its degree, in a component of at
least ``n`` vertices and with at least ``n - 1`` other vertices within
distance ecc(root), by descending degree, then index.  From each hub the
search backtracks over the internal tree vertices only, in BFS order, with
degree pruning and an ascending-host-index rule over runs of siblings whose
rooted subtrees are isomorphic (equal AHU canonical forms): such siblings
are interchangeable, so only sorted images need be tried.  The leaves of
one internal vertex are interchangeable too, so they form one class, and
after each placement an augmenting-path matching of the classes placed so
far is extended; a placement whose classes fail Hall's condition is
undone.  The final matching gives the leaves' images.

The search returns a witness tuple ``w`` with ``w[i]`` = host vertex for
tree vertex ``i``, or ``None`` when no embedding exists.

The module also exposes the engine hook the brute-force oracle needs: an
anchored check for embeddings that use one prescribed host edge, which
places every tree vertex by recursive backtracking.  It pins one directed
tree edge per orbit under the tree's automorphisms, since an automorphism
carries an embedding pinned at one edge of an orbit to one pinned at any
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import SimpleGraph, iter_bits
from .trees import TreeFamily, realize

__all__ = [
    "contains_tree",
    "generic_backtrack",
    "verify_witness",
    "TreeEmbedContext",
    "contains_through_edge",
]


# ---------------------------------------------------------------- leaf matching

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


# ---------------------------------------------------------------- the search

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


def _rooted_forms(
    t: SimpleGraph, seeds: list[int], intern: dict
) -> tuple[list[int], list[int], list[int]]:
    """``t`` rooted at ``seeds`` (each seed's side hangs below it): its BFS
    order, each vertex's parent (-1 at a seed), and each vertex's form.

    Forms are AHU codes (Aho, Hopcroft and Ullman 1974, section 3.2): the id
    that ``intern`` gives the sorted tuple of the kids' forms, so two rooted
    subtrees are isomorphic exactly when their forms are equal.  They are
    built bottom-up over the reversed BFS order, with no recursion.
    """
    n = t.n
    adj = t.adj
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
    return bfs, parent, form


def _prepare_context(
    t: SimpleGraph, seeds: list[int], intern: dict | None = None
) -> tuple[TreeEmbedContext, tuple[int, ...]]:
    """``t`` rooted at ``seeds`` (``_rooted_forms``), and the canonical form
    of each seed's side.

    Each vertex's kids are placed internal first, then by form, then by
    index, and a kid whose form equals the previous kid's is ``monotone``.
    This is exact: swapping the images of two isomorphic sibling subtrees
    maps an embedding to one with the same seed images, so permuting each
    run of isomorphic siblings, top-down, sorts every run's images.
    """
    _, parent, form = _rooted_forms(t, seeds, {} if intern is None else intern)
    adj = t.adj
    tdeg = tuple(map(int.bit_count, adj))
    order = list(seeds)
    parent_pos = [-1] * t.n
    monotone = [False] * t.n
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
def _rooted_context(
    t: SimpleGraph,
) -> tuple[TreeEmbedContext, tuple[tuple[int, ...], ...], int]:
    """``t`` prepared from its lowest-index maximum-degree vertex, once per
    tree: the context of its root and internal vertices (the steps the
    search backtracks over, kids in ``_prepare_context``'s order), the
    leaves hanging off each step, and the root's eccentricity."""
    adj = t.adj
    tdeg = tuple(map(int.bit_count, adj))
    root = tdeg.index(max(tdeg))
    bfs, parent, form = _rooted_forms(t, [root], {})
    order, parent_pos, monotone, leaves = [root], [-1], [False], [[]]
    for i, v in enumerate(order):  # grows while it is read
        kids = []
        for w in iter_bits(adj[v]):
            if parent[w] == v:
                (leaves[i] if tdeg[w] == 1 else kids).append(w)
        kids.sort(key=lambda w: (form[w], w))
        for k, w in enumerate(kids):
            parent_pos.append(i)
            monotone.append(k > 0 and form[w] == form[kids[k - 1]])
            leaves.append([])
            order.append(w)
    radius, v = 0, bfs[-1]  # the last vertex in BFS order is a deepest one
    while v != root:
        radius, v = radius + 1, parent[v]
    inner = TreeEmbedContext(
        tdeg=tdeg,
        order=tuple(order),
        parent_pos=tuple(parent_pos),
        monotone=tuple(monotone),
    )
    return inner, tuple(map(tuple, leaves)), radius


def generic_backtrack(g: SimpleGraph, t: SimpleGraph) -> tuple[int, ...] | None:
    """Embed the tree ``t`` into ``g``; witness or None.

    Steps ``1..k-1`` are the internal vertices below the root at step 0.
    ``states[i]`` is the class matching (``_place_branch``) of the leaves of
    steps ``0..i``, and ``cands[i]`` the images step ``i`` has still to try,
    or None before the step is reached.  No recursion, so the tree order is
    not limited by the interpreter's stack."""
    n = t.n
    if n > g.n:
        return None
    if n == 1:
        return (0,)
    ctx, leaves, radius = _rooted_context(t)
    order, parent_pos, monotone, tdeg = ctx.order, ctx.parent_pos, ctx.monotone, ctx.tdeg
    k = len(order)
    adj = g.adj
    hdeg, hubs = _hubs(g, n, tdeg[order[0]])
    masks = [0] * k
    image = [0] * k
    states: list[tuple] = [()] * k
    cands: list[int | None] = [None] * k
    for w0 in hubs:
        # Every tree vertex lies within ``radius`` of the root, so the other
        # n - 1 images lie in that ball around the hub.
        ball = ring = 1 << w0
        for _ in range(radius):
            reach = 0
            for w in iter_bits(ring):
                reach |= adj[w]
            ring = reach & ~ball
            ball |= ring
        if ball.bit_count() < n:
            continue
        masks[0] = adj[w0]
        image[0] = w0
        states[0] = _place_branch(masks, ([], 0, 0, 0), 1 << w0, len(leaves[0]))
        # Reject each placement whose classes so far fail Hall's condition:
        # later placements only shrink the masks, so no extension can pass.
        i = 1
        while 0 < i < k:
            c = cands[i]
            if c is None:
                c = adj[image[parent_pos[i]]] & ~states[i - 1][2]
                if monotone[i]:
                    c &= -2 << image[i - 1]  # strictly larger indices only
            state = None
            while state is None and c:
                low = c & -c
                c ^= low
                w = low.bit_length() - 1
                if hdeg[w] >= tdeg[order[i]]:
                    masks[i] = adj[w]
                    state = _place_branch(masks, states[i - 1], low, len(leaves[i]))
            if state is None:
                cands[i] = None
                i -= 1
                continue
            cands[i] = c
            image[i] = w
            states[i] = state
            i += 1
        if i:
            witness = [-1] * n
            for v, w, below, hosts in zip(order, image, leaves, states[-1][0]):
                witness[v] = w
                for leaf, h in zip(below, iter_bits(hosts)):
                    witness[leaf] = h
            return tuple(witness)
    return None


# ---------------------------------------------------------------- public API

_realized = lru_cache(maxsize=64)(realize)


def contains_tree(g: SimpleGraph, f: TreeFamily) -> tuple[int, ...] | None:
    """Does ``g`` contain the family tree?  Witness tuple (tree vertex ``i``
    maps to host ``w[i]``) or None.  The tree is built once per family and
    searched by ``generic_backtrack``, whatever its shape."""
    return generic_backtrack(g, _realized(f))


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
