"""Reference computations the benchmark checks the program against.

Nothing here imports ``turantrees``: the values, trees and certificates are
restated from the paper and from classical results, so that a check built on
them is evidence apart from the program's own formulas.

A graph is an adjacency list ``adj``: ``adj[v]`` is the set of neighbours of
vertex ``v``, and the vertices are ``0..len(adj)-1``.
"""

from __future__ import annotations

from math import comb

SPIDERS = ("t3", "tpp", "tppp")
MIN_N = {"t3": 15, "tpp": 10, "tppp": 10}
T3_SPECIAL = (0, 1, 2, -5, -4, -3, -2)  # residues r; a negative s stands for n + s

# Branch vertex carrying each of the three leaves v_{n-3}, v_{n-2}, v_{n-1}.
_LEAF_BRANCH = {"t3": (1, 1, 1), "tpp": (1, 1, 2), "tppp": (1, 2, 3)}


# ---------------------------------------------------------------- trees

def spider_edges(family: str, n: int) -> list[tuple[int, int]]:
    """The trees E1 (``t3``), E2 (``tpp``) and E3 (``tppp``) on ``v_0..v_{n-1}``.

    The hub ``v_0`` is joined to ``v_1..v_{n-4}``; the last three vertices
    are leaves hung on the branch vertices named by ``_LEAF_BRANCH``.
    """
    if n < 6:
        raise ValueError(f"{family} needs n >= 6 (got {n})")
    edges = [(0, i) for i in range(1, n - 3)]
    edges += [(b, n - 3 + j) for j, b in enumerate(_LEAF_BRANCH[family])]
    return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(s: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, s + 1)]


def tree_of_spec(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """``(order, edges)`` of a CLI family spec such as ``t3:15`` or ``star:4``."""
    tag, _, arg = spec.partition(":")
    k = int(arg)
    if tag in SPIDERS:
        return k, spider_edges(tag, k)
    if tag == "path":
        return k, path_edges(k)
    if tag == "star":
        return k + 1, star_edges(k)
    raise ValueError(f"no reference tree for {spec!r}")


# ---------------------------------------------------------------- values

def ex_path(p: int, n: int) -> int:
    """Faudree--Schelp: ``k C(n-1,2) + C(r,2)`` for ``p = k(n-1) + r``."""
    k, r = divmod(p, n - 1)
    return k * comb(n - 1, 2) + comb(r, 2)


def ex_star(p: int, s: int) -> int:
    """A host avoids ``K_{1,s}`` iff its degrees stay below ``s``."""
    return (s - 1) * p // 2


def _two_arm(k: int, n: int, r: int) -> tuple[int, str]:
    """The better of ``k`` cliques ``K_{n-1}`` plus ``K_r`` and ``k - 1``
    cliques plus an ``(n-5)``-near-regular graph on ``n - 1 + r`` vertices;
    a tie goes to the cliques."""
    cliques = k * comb(n - 1, 2) + comb(r, 2)
    regular = (k - 1) * comb(n - 1, 2) + (n - 5) * (n - 1 + r) // 2
    return (regular, "near-regular") if regular > cliques else (cliques, "clique-union")


def case_table(family: str, n: int, p: int) -> tuple[int, str]:
    """``(ex(p; T), base of an extremal host)`` for ``p >= n``.

    ``tpp`` (Thm 3.1) and ``tppp`` (Thm 5.1) take the two-arm maximum at
    every residue.  ``t3`` (Thm 4.1--4.5, ``n >= 15``) takes the clique
    value on the special residues and at ``r = n-6``, the two-arm maximum for
    ``3 <= r <= n-9``, and at ``r = n-8`` / ``r = n-7`` the clique value plus
    the surplus of the connected hosts of Lemma 4.6 / Lemma 4.7, which
    becomes positive at ``n = 28`` / ``n = 41``.
    """
    if n < MIN_N[family] or p < n:
        raise ValueError(f"no closed form for {family}, n={n}, p={p}")
    k, r = divmod(p, n - 1)
    cliques = k * comb(n - 1, 2) + comb(r, 2)
    if family != "t3" or 3 <= r <= n - 9:
        return _two_arm(k, n, r)
    if r == n - 8 and n >= 28:
        return cliques + n // 2 - 13, "L4.6-even" if n % 2 == 0 else "L4.6-odd"
    if r == n - 7 and n >= 41:
        return cliques + (n - 37) // 4, f"L4.7-case{(n - 1) % 4 + 1}"
    return cliques, "clique-union"


def connected_variant(n: int, p: int) -> bool:
    """Whether ``t3`` at ``(n, p)`` also has a connected extremal base:
    Lemma 4.6 at ``r = n-8`` from ``n = 26``, Lemma 4.7 at ``r = n-7`` from
    ``n = 37``."""
    r = p % (n - 1)
    return (r == n - 8 and n >= 26) or (r == n - 7 and n >= 37)


def is_t3_special(n: int, p: int) -> bool:
    r = p % (n - 1)
    return any(r == (s if s >= 0 else n + s) for s in T3_SPECIAL)


# ---------------------------------------------------------------- graphs

def from_edges(p: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(p)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_count(adj: list[set[int]]) -> int:
    return sum(len(row) for row in adj) // 2


def edge_list(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u, row in enumerate(adj) for v in sorted(row) if u < v]


def random_non_edge(adj: list[set[int]], rng) -> tuple[int, int]:
    """A uniform non-edge ``(u, v)``, ``u < v``, of a graph that has one."""
    while True:
        u, v = sorted(rng.sample(range(len(adj)), 2))
        if v not in adj[u]:
            return u, v


def components(adj: list[set[int]]) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for s in range(len(adj)):
        if s in seen:
            continue
        comp, stack = {s}, [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(comp)
    return out


def complete(p: int) -> list[set[int]]:
    return [set(range(p)) - {v} for v in range(p)]


def disjoint_union(*parts: list[set[int]]) -> list[set[int]]:
    adj: list[set[int]] = []
    for part in parts:
        shift = len(adj)
        adj += [{w + shift for w in row} for row in part]
    return adj


def near_regular(m: int, d: int) -> list[set[int]]:
    """``floor(d m / 2)`` edges on ``m`` vertices, all degrees ``d`` except
    one vertex at ``d - 1`` when ``d m`` is odd: the circulant with offsets
    ``1..d//2``, plus for odd ``d`` the antipodal matching (even ``m``) or
    the matching ``i ~ i + (m+1)/2`` for ``i < (m-1)/2`` (odd ``m``)."""
    edges = [(v, (v + o) % m) for v in range(m) for o in range(1, d // 2 + 1)]
    if d % 2 and m % 2 == 0:
        edges += [(v, v + m // 2) for v in range(m // 2)]
    elif d % 2:
        edges += [(i, (i + (m + 1) // 2) % m) for i in range((m - 1) // 2)]
    return from_edges(m, edges)


def extremal_host(family: str, n: int, p: int, lemma_base=None) -> list[set[int]]:
    """A host attaining ``case_table(family, n, p)``: ``k - 1`` cliques
    ``K_{n-1}`` followed by the base on ``n - 1 + r`` vertices.  The
    Lemma 4.6 / 4.7 bases are not restated here; pass them as ``lemma_base``.
    """
    k, r = divmod(p, n - 1)
    _, base = case_table(family, n, p)
    blocks = [complete(n - 1)] * (k - 1)
    if base == "clique-union":
        return disjoint_union(*blocks, complete(n - 1), complete(r))
    if base == "near-regular":
        return disjoint_union(*blocks, near_regular(n - 1 + r, n - 5))
    if lemma_base is None or len(lemma_base) != n - 1 + r:
        raise ValueError(f"{base} base on {n - 1 + r} vertices needed for n={n}, p={p}")
    return disjoint_union(*blocks, lemma_base)


def adversarial_host(n: int) -> list[set[int]]:
    """``K_{n-3}`` on ``0..n-4`` with the path ``0, n-3, n-2, n-1`` hung on
    vertex 0: every clique vertex has the hub's degree, yet no spider fits."""
    edges = [(a, b) for a in range(n - 3) for b in range(a + 1, n - 3)]
    edges += [(0, n - 3), (n - 3, n - 2), (n - 2, n - 1)]
    return from_edges(n, edges)


# ---------------------------------------------------------------- certificates

def is_embedding(adj: list[set[int]], tree_edges, tree_n: int, witness) -> bool:
    """Injective, in range, and every tree edge lands on a host edge."""
    if witness is None or len(witness) != tree_n:
        return False
    if any(not 0 <= w < len(adj) for w in witness) or len(set(witness)) != tree_n:
        return False
    return all(witness[b] in adj[witness[a]] for a, b in tree_edges)


def spider_free_certificate(adj: list[set[int]], n: int) -> bool:
    """True proves the host free of every spider on ``n`` vertices.

    A spider's hub has degree ``n - 4`` and every tree vertex lies within
    distance 2 of it, so a hub image needs degree at least ``n - 4`` and at
    least ``n`` vertices (itself included) within distance 2.
    """
    for v, row in enumerate(adj):
        if len(row) < n - 4:
            continue
        ball = {v} | row
        for w in row:
            ball |= adj[w]
        if len(ball) >= n:
            return False
    return True


def find_embedding(adj: list[set[int]], tree_edges, tree_n: int):
    """Exhaustive search for an embedding; the witness or ``None``.

    Tree vertices are placed in breadth-first order from vertex 0, each on an
    unused host neighbour of its parent's image.  No pruning beyond that, so
    a ``None`` means no injective edge-preserving map exists.  Meant for
    hosts with at most about ten vertices.
    """
    tadj = from_edges(tree_n, tree_edges)
    order, parent = [0], {0: None}
    for v in order:
        for w in sorted(tadj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    image = [-1] * tree_n

    def place(i: int, used: set[int]) -> bool:
        if i == tree_n:
            return True
        v = order[i]
        cands = range(len(adj)) if parent[v] is None else adj[image[parent[v]]]
        for h in cands:
            if h not in used:
                image[v] = h
                used.add(h)
                if place(i + 1, used):
                    return True
                used.discard(h)
        return False

    return tuple(image) if place(0, set()) else None


# ---------------------------------------------------------------- file formats

def to_graph6(adj: list[set[int]]) -> str:
    """graph6: order header, then the upper triangle column by column, six
    bits to a byte offset by 63."""
    p = len(adj)
    head = [p] if p <= 62 else [63, p >> 12 & 63, p >> 6 & 63, p & 63]
    out = bytearray(b + 63 for b in head)
    acc = nbits = 0
    for v in range(1, p):
        row = adj[v]
        for u in range(v):
            acc = acc << 1 | (u in row)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> list[set[int]]:
    data = [b - 63 for b in text.strip().encode("ascii")]
    if data[0] == 63:
        p = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        p, body = data[0], data[1:]
    bits = "".join(format(b, "06b") for b in body)
    edges, i = [], 0
    for v in range(1, p):
        for u in range(v):
            if bits[i] == "1":
                edges.append((u, v))
            i += 1
    return from_edges(p, edges)


def to_edge_text(adj: list[set[int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edge_list(adj))
