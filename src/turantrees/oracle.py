"""Brute-force reference oracle: exact maximum edge counts at desk scale.

``ex_bruteforce`` maximizes edges over all graphs on ``p`` labeled vertices
that avoid a given tree, by depth-first search over the edge slots in
lexicographic order (all slots at vertex 0 first), include-branch first.
Six exact prunes keep it fast:

* **Incremental containment** -- the partial graph is kept avoider-safe at
  every step: an edge is included only if no embedding of the tree maps one
  of its edges onto the new host edge (earlier edges were already safe, so
  this preserves freeness exactly).  The check has two exact symmetry cuts
  of its own (``containment.edge_anchored_contexts``).  It pins one directed
  tree edge per orbit under the tree's automorphisms: composing an embedding
  with an automorphism that carries ``(a, b)`` to ``(a', b')`` moves the
  pinned edge without moving its image.  And each pinned search tries the
  siblings of a run of isomorphic rooted subtrees (equal AHU canonical
  forms) in ascending image order only: swapping the images of two such
  subtrees gives another embedding with the same pinned edge.
* **Degree symmetry** -- only hosts where vertex 0 attains the maximum
  degree are enumerated.  Vertex-0 slots are decided first, so its degree is
  final when the constraint is enforced; any avoider can be relabeled to put
  a maximum-degree vertex at 0, so the maximum value is unaffected.
* **Room bound** -- once vertex 0's degree ``c`` is final, no other vertex
  may exceed it, and a vertex ``x`` can gain an edge only through one of
  its ``open_x`` undecided slots.  So ``x`` has room for
  ``min(c - deg(x), open_x)`` more edges, each later edge takes one unit of
  room at each end, and at most half the summed room more edges fit;
  branches that cannot beat the incumbent are cut.  The sum is an argument
  of the search, so each node pays O(1): including ``(u, v)`` takes two
  units, and excluding it takes one at ``u`` (``v``) exactly when its open
  slots were no more than its spare degree.
* **Prefix cut** (isomorph rejection in the sense of McKay, *Isomorph-free
  exhaustive generation*, J. Algorithms 1998) -- at slot ``(u, v)`` two
  vertices ``w, v > u`` are interchangeable when their decided neighbours
  below ``u`` agree.  With ``w`` the nearest such vertex in ``u < w < v``,
  ``(u, v)`` may be included only if ``(u, w)`` was, so ``u``'s neighbours
  form a prefix of each class.  Let ``G`` be the first optimum in the
  include-first order.  If ``G`` broke the rule at ``(u, w, v)``, swapping
  ``w`` and ``v`` would give a tree-free host with the same edge count and
  the same vertex-0 degree that agrees with ``G`` on every slot before
  ``(u, w)`` and includes ``(u, w)``: an earlier optimum, a contradiction.
  So the search finds the same value and the same witness.
* **Seeded incumbent** (Land and Doig, *Econometrica* 1960) -- the search
  starts from the larger edge count of two tree-free hosts (``_seed``):
  the clique union of ``K_{n-1}`` blocks, no component of which holds the
  tree, and ``near_regular(p, D - 1)``, whose degrees stay below the
  tree's maximum degree ``D``.  Only a host with at
  least that many edges is recorded, so the room bound cuts from the
  first node.  The first optimum in include-first order has at least the
  seed's edge count, so no cut removes it before it is found: the value
  and the witness are unchanged and only the node count falls.
* **Anchored memo** (nogood recording in the sense of Schiex and
  Verfaillie, *Int. J. on Artificial Intelligence Tools* 1994) -- with
  the included edges kept as a mask over slot indices, each slot ``i``
  remembers the edges of the last embedding found through it (``hit``)
  and the last graph, slot ``i`` included, shown tree-free there
  (``free``).  Containment is monotone in the host.  If the remembered
  embedding lies inside the new graph, the new graph contains the tree
  through slot ``i``.  If the new graph lies inside the remembered
  tree-free one, it holds no embedding at all, through slot ``i`` or
  elsewhere.  Either answer is the one the anchored check would give, so
  the search tree, the value and the witness are unchanged and only the
  anchored checks fall (t3:11 at p = 12: 44,027 to 2,225).  A small
  component (``_reaches``) also records its graph as tree-free.

The tree's anchored contexts (``edge_anchored_contexts``) are prepared once
per tree and shared by every search on it.

Budgets (node count and wall-clock) abort the search by exception; the
result is then flagged ``exact=False`` and carries the incumbent as a lower
bound, or the seed host when the search had not beaten it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .constructions import clique_union, near_regular
from .containment import TreeEmbedContext, contains_through_edge, edge_anchored_contexts
from .formulas import extremal_value
from .graphs import SimpleGraph
from .trees import TreeFamily, realize

__all__ = [
    "OracleResult",
    "BudgetExceeded",
    "DEFAULT_BUDGET_NODES",
    "DEFAULT_BUDGET_SECONDS",
    "MAX_ORACLE_ORDER",
    "ex_bruteforce",
    "verify_formula",
]

DEFAULT_BUDGET_NODES = 100_000_000
DEFAULT_BUDGET_SECONDS = 60.0
# Largest host order searched: the search recurses once per vertex pair, and
# C(40, 2) = 780 levels stay below the interpreter's recursion limit of 1000.
MAX_ORACLE_ORDER = 40


class BudgetExceeded(Exception):
    """Raised inside the search when a node or time budget runs out."""


@dataclass(frozen=True, slots=True)
class OracleResult:
    """Outcome of a brute-force run.  ``exact=False`` means a budget was hit
    and ``value`` is only a lower bound; ``budget_reason`` then names the
    budget ("node budget exhausted" or "time budget exhausted"), and is
    None for an exact run.  ``seed_edges`` is the edge count of the known
    tree-free host the search had to beat, and ``seed_host`` its kind
    ("clique-union" or "near-regular").  ``anchored`` counts the work of
    the incremental check: ``searches`` anchored checks were run
    (``contains_through_edge``), and ``memo_hits`` include branches were
    answered by the memo without one."""

    p: int
    value: int
    exact: bool
    witness: SimpleGraph
    nodes: int
    elapsed: float
    budget_reason: str | None
    seed_edges: int
    seed_host: str
    anchored: dict[str, int]

    def search_fields(self) -> dict:
        """What the search did, as the ``oracle`` report and each
        ``verify --oracle`` row give it."""
        return {
            "exact": self.exact,
            "budget_reason": self.budget_reason,
            "nodes": self.nodes,
            "anchored": self.anchored,
            "seed": {"edges": self.seed_edges, "host": self.seed_host},
        }


# ---------------------------------------------------------------- search core

class _BruteForce:
    """One depth-first search instance over the edge-slot tree."""

    __slots__ = (
        "p", "slots", "bits", "contexts", "edges", "tree_n", "rows", "deg", "m",
        "best", "best_rows", "nodes", "budget_nodes", "deadline",
        "hit", "free", "searches", "memo_hits",
    )

    def __init__(
        self,
        p: int,
        contexts: tuple[TreeEmbedContext, ...],
        edges: tuple[tuple[int, int], ...],
        budget_nodes: int,
        deadline: float,
        floor: int,
    ):
        self.p = p
        self.slots, self.bits = _slot_layout(p)
        self.contexts = contexts
        self.edges = edges
        self.tree_n = len(edges) + 1
        self.rows = [0] * p
        self.deg = [0] * p
        self.m = 0
        self.best = floor - 1  # only a host with at least ``floor`` edges counts
        self.best_rows: list[int] | None = None
        self.nodes = 0
        self.budget_nodes = budget_nodes
        self.deadline = deadline
        # The anchored memo, one entry per slot i.  ``hit[i]``: the slots of
        # the last embedding found through slot i (-1, never a subset, before
        # the first).  ``free[i]``: the last graph, slot i included, shown
        # tree-free at slot i (0, never holding slot i, before the first).
        self.hit = [-1] * len(self.slots)
        self.free = [0] * len(self.slots)
        self.searches = 0
        self.memo_hits = 0

    def _check(self, i: int, g: int, u: int, v: int) -> bool:
        """Whether the graph ``g``, which has just gained slot ``i = (u, v)``,
        contains the tree, by the anchored check; the answer is remembered.
        Any new embedding sits inside u's component and must use the new
        edge, so a small component needs no check at all."""
        found = None
        if self._reaches(u, self.tree_n):
            self.searches += 1
            found = contains_through_edge(self.rows, self.deg, self.contexts, u, v)
        if found is None:
            self.free[i] = g
            return False
        bits = self.bits
        mask = 0
        for a, b in self.edges:
            mask |= bits[found[a]][found[b]]
        self.hit[i] = mask
        return True

    def _reaches(self, start: int, n: int) -> bool:
        """Whether ``start``'s component in the current partial graph has at
        least ``n`` vertices; the breadth-first search stops once it has."""
        rows = self.rows
        seen = frontier = 1 << start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= rows[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
            if seen.bit_count() >= n:
                return True
        return False

    def dfs(self, i: int, room: int, g: int) -> None:
        """Decide slot ``i`` onwards; ``g`` is the slot mask of the included
        edges and ``room`` the room of the search (``_initial_room``)."""
        self.nodes += 1
        if self.nodes >= self.budget_nodes:
            raise BudgetExceeded("node budget exhausted")
        if not self.nodes & 63 and time.monotonic() > self.deadline:
            raise BudgetExceeded("time budget exhausted")

        if i == len(self.slots):
            if self.m > self.best:
                self.best = self.m
                self.best_rows = list(self.rows)
            return

        # Upper bound on what this subtree can still reach: every later edge
        # takes one unit of ``room`` at each end (see ``_initial_room``).
        p = self.p
        deg = self.deg
        rows = self.rows
        if i == p - 1:
            room = _initial_room(p, deg)
        if self.m + min(len(self.slots) - i, room // 2) <= self.best:
            return

        u, v = self.slots[i]
        cap = deg[0]
        allowed = u == 0 or (deg[u] < cap and deg[v] < cap)
        if allowed:
            # Prefix cut: u may take v only if it took the nearest vertex
            # between them with the same decided neighbours below u.
            low = (1 << u) - 1
            key = rows[v] & low
            for w in range(v - 1, u, -1):
                if rows[w] & low == key:
                    allowed = rows[u] >> w & 1
                    break
        # Excluding (u, v) closes one open slot at u and one at v; each loses
        # a unit of room when its open slots (p - v at u, p - 1 - u at v)
        # were no more than its spare degree.
        spent = (p - v <= cap - deg[u]) + (p - 1 - u <= cap - deg[v])
        if allowed:
            # The anchored memo answers first, when it knows: a remembered
            # embedding through slot i inside g2 says yes, and a remembered
            # tree-free graph at slot i holding g2 says no.
            g2 = g | 1 << i
            if not self.hit[i] & ~g2:
                self.memo_hits += 1
                created = True
            elif not g2 & ~self.free[i]:
                self.memo_hits += 1
                created = False
            else:
                created = None
            if not created:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                deg[u] += 1
                deg[v] += 1
                self.m += 1
                if created is None:
                    created = self._check(i, g2, u, v)
                if not created:
                    self.dfs(i + 1, room - 2, g2)
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
                deg[u] -= 1
                deg[v] -= 1
                self.m -= 1
        self.dfs(i + 1, room - spent, g)


@lru_cache(maxsize=64)
def _prepared(
    f: TreeFamily,
) -> tuple[SimpleGraph, tuple[TreeEmbedContext, ...], tuple[tuple[int, int], ...]]:
    """The tree of ``f``, its anchored contexts (``edge_anchored_contexts``)
    and its edges, built once per tree and shared by every search on it."""
    t = realize(f)
    return t, edge_anchored_contexts(t), tuple(t.edges())


@lru_cache(maxsize=64)
def _slot_layout(p: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The vertex pairs of ``p`` vertices in lexicographic order (the edge
    slots), and each pair's slot bit: ``bits[u][v] = bits[v][u] = 1 << i``
    for slot ``i = (u, v)``.  Built once per host order."""
    slots = tuple((u, v) for u in range(p) for v in range(u + 1, p))
    bits = [[0] * p for _ in range(p)]
    for i, (u, v) in enumerate(slots):
        bits[u][v] = bits[v][u] = 1 << i
    return slots, tuple(map(tuple, bits))


def _initial_room(p: int, deg: list[int]) -> int:
    """The room of the search at slot ``(1, 2)``, where vertex 0's degree
    ``deg[0]`` has just become final: every other vertex has ``p - 2`` open
    slots and may take ``deg[0] - deg[x]`` more edges."""
    return sum(min(deg[0] - d, p - 2) for d in deg[1:])


def _seed(p: int, t: SimpleGraph) -> tuple[int, str]:
    """The floor of the search for the tree ``t`` on ``p >= t.n`` vertices:
    the larger edge count of two ``t``-free hosts, and the kind of that host.

    ``clique_union(k, n, r)`` with ``p = k (n - 1) + r`` has no component of
    ``n`` vertices, and ``near_regular(p, D - 1)`` no vertex of the tree's
    maximum degree ``D``.  Ties go to the near-regular host, which is also
    the only one for ``n = 2`` (the empty host).
    """
    n = t.n
    k, r = divmod(p, n - 1)
    cliques = k * comb(n - 1, 2) + comb(r, 2)
    regular = (t.max_degree() - 1) * p // 2
    if cliques > regular:
        return cliques, "clique-union"
    return regular, "near-regular"


def _seed_host(p: int, t: SimpleGraph, host: str) -> SimpleGraph:
    """The host of kind ``host`` that ``_seed(p, t)`` counts."""
    if host == "clique-union":
        k, r = divmod(p, t.n - 1)
        return clique_union(k, t.n, r)
    return near_regular(p, t.max_degree() - 1)


def _result(
    p: int,
    t: SimpleGraph,
    seed: tuple[int, str],
    rows: list[int] | None,
    reason: str | None,
    nodes: int,
    anchored: dict[str, int],
    started: float,
) -> OracleResult:
    """The outcome of a search whose incumbent has adjacency ``rows``, or
    None when nothing beat the seed host (only when a budget ran out), which
    is then the witness; ``reason`` is the message of the budget that ran
    out, or None for an exact search."""
    witness = SimpleGraph(p, list(rows)) if rows is not None else _seed_host(p, t, seed[1])
    return OracleResult(
        p=p,
        value=witness.edge_count(),
        exact=reason is None,
        witness=witness,
        nodes=nodes,
        elapsed=time.monotonic() - started,
        budget_reason=reason,
        seed_edges=seed[0],
        seed_host=seed[1],
        anchored=anchored,
    )


# ---------------------------------------------------------------- public API

def ex_bruteforce(
    p: int,
    f: TreeFamily,
    *,
    budget_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> OracleResult:
    """Exact maximum edge count over tree-avoiding graphs on ``p`` vertices.

    Requires ``p >= 1``.  When the tree has more vertices than the host, the
    complete graph is the (trivial) maximizer; otherwise the search requires
    ``p <= MAX_ORACLE_ORDER``.  Budgets: ``budget_nodes`` (default 10**8
    per search) and ``budget_seconds`` (default 60).  A search that a
    budget stops is never below the seed host (``_seed``).
    """
    if p < 1:
        raise ValueError(f"ex_bruteforce requires p >= 1 (got p={p})")
    if f.n == 1:
        raise ValueError("the one-vertex tree is contained in every non-empty host")

    started = time.monotonic()
    if f.n > p:
        # K_p is a clique union: no component has the tree's order.
        seed = (comb(p, 2), "clique-union")
        anchored = {"searches": 0, "memo_hits": 0}
        rows = SimpleGraph.complete(p).adj
        return _result(p, realize(f), seed, rows, None, 0, anchored, started)

    if p > MAX_ORACLE_ORDER:
        raise ValueError(
            f"ex_bruteforce recurses once per vertex pair and is limited to "
            f"p <= {MAX_ORACLE_ORDER} (got p={p})"
        )
    nodes_budget = DEFAULT_BUDGET_NODES if budget_nodes is None else budget_nodes
    seconds = DEFAULT_BUDGET_SECONDS if budget_seconds is None else budget_seconds
    deadline = started + seconds
    t, contexts, edges = _prepared(f)
    seed = _seed(p, t)
    bf = _BruteForce(p, contexts, edges, nodes_budget, deadline, seed[0])
    try:
        # Before slot (1, 2) no room is known; twice the slot count never cuts.
        bf.dfs(0, 2 * len(bf.slots), 0)
        reason = None
    except BudgetExceeded as exc:
        reason = str(exc)
    anchored = {"searches": bf.searches, "memo_hits": bf.memo_hits}
    return _result(p, t, seed, bf.best_rows, reason, bf.nodes, anchored, started)


def verify_formula(
    f: TreeFamily,
    p_values: list[int],
    *,
    budget_nodes: int | None = None,
    budget_seconds: float | None = None,
) -> dict:
    """Compare the closed form against the oracle on each ``p``; JSON-ready."""
    rows = []
    for p in p_values:
        res = ex_bruteforce(p, f, budget_nodes=budget_nodes, budget_seconds=budget_seconds)
        formula = extremal_value(f, p).value
        equal = res.exact and res.value == formula
        rows.append(
            {"p": p, "oracle": res.value, "formula": formula, "equal": equal,
             **res.search_fields()}
        )
    return {"rows": rows, "all_equal": all(row["equal"] for row in rows)}
