"""The consistency sweep behind ``turantrees verify``, as plain functions.

Each check is a generator of ``(passed, info)`` records for one grid point;
``info`` names the point in ``failures_detail``.  :func:`sweep` runs them over
a grid of tree orders ``n`` and host orders ``p``::

    results, counts = sweep((15, 17), ("n", "3n"), ["t3", "tpp", "tppp"])
"""

from __future__ import annotations

import re
from functools import reduce
from math import comb
from operator import or_

from .graphs import SimpleGraph
from .trees import TreeFamily, parse_family_spec
from .formulas import CASES, MIN_N, ex_t3, ex_tpp, ex_tppp, extremal_value
from .formulas import generic_max_form, lower_bound, residue_case, upper_bound
from .constructions import block_rows, extremal_graph
from .containment import contains_tree
from .oracle import verify_formula

__all__ = ["sweep", "eval_nexpr", "ORACLE_SUITE"]

CHECKS = ("identity", "sandwich", "recurrence", "dominance", "special_residues", "constructions")
MAX_FAILURES_DETAIL = 20
# The oracle sweep's desk-scale suite: (family spec, host orders).
ORACLE_SUITE: list[tuple[str, list[int]]] = [
    ("path:4", [4, 5, 6, 7, 8]), ("path:5", [5, 6, 7, 8]),
    ("star:2", [3, 4, 5, 6, 7, 8]), ("star:3", [4, 5, 6, 7, 8]),
]


def eval_nexpr(expr: str, n: int) -> int:
    """Evaluate a bound expression: ``20``, ``n``, ``2n-9``, ``4n``, ``n+8``."""
    m = re.fullmatch(r"([+-]?\d+)|(\d*)n([+-]\d+)?", expr.strip().replace(" ", ""))
    if not m:
        raise ValueError(
            f"bad expression {expr!r}: use an integer or forms like 'n', '2n-9', '4n'"
        )
    if m.group(1):
        return int(m.group(1))
    return int(m.group(2) or 1) * n + int(m.group(3) or 0)


# ---------------------------------------------------------------- checks

def identity(n: int, p: int):
    """The twin families' forms (Thm 3.1, 5.1) equal the generic max form."""
    same = ex_tpp(p, n).value == ex_tppp(p, n).value == generic_max_form(p, n).value
    yield same, {"n": n, "p": p}


def sandwich(f: TreeFamily, p: int, value: int):
    """The value lies between the universal lower and upper bounds."""
    lb, ub = lower_bound(p, f.n), upper_bound(p, f.n)
    info = {"family": f.kind, "n": f.n, "p": p, "value": value, "lower": lb, "upper": ub}
    yield lb <= value <= ub, info


def recurrence(f: TreeFamily, p: int, value: int):
    """One more block ``K_{n-1}`` adds ``C(n-1, 2)``, from ``p = 2n - 6`` on."""
    if p >= 2 * f.n - 6:
        prev = extremal_value(f, p - (f.n - 1)).value
        yield value == comb(f.n - 1, 2) + prev, {"family": f.kind, "n": f.n, "p": p}


def dominance(f: TreeFamily, p: int, value: int):
    """t3 is at least the generic form, and above it exactly at the bonus
    residues ``r = n - 8`` (from n = 28) and ``r = n - 7`` (from n = 41)."""
    if f.kind == "t3":
        n, r = f.n, p % (f.n - 1)
        vg = generic_max_form(p, n).value
        strict = (r == n - 8 and n >= 28) or (r == n - 7 and n >= 41)
        yield value >= vg and (value > vg) == strict, {"n": n, "p": p, "r": r}


def special_residues(f: TreeFamily, p: int):
    """At t3's special residues Thm 4.1 gives the block value."""
    n, (k, r) = f.n, divmod(p, f.n - 1)
    if f.kind == "t3" and r in {0, 1, 2, n - 5, n - 4, n - 3, n - 2}:
        ev = ex_t3(p, n)
        base = k * comb(n - 1, 2) + comb(r, 2)
        yield ev.value == base and ev.branch == "Thm4.1", {"n": n, "p": p, "r": r}


def _base_rows(g: SimpleGraph, blocks: int, n: int) -> tuple[int, ...] | None:
    """The rows of the base of ``g``, shifted down to vertex 0, if the first
    ``blocks`` groups of ``n - 1`` vertices of ``g`` are complete blocks
    ``K_{n-1}`` with no edge leaving them; else None.

    A block has fewer than ``n`` vertices and a tree on ``n`` vertices is
    connected, so ``g`` contains the tree exactly when its base does.
    """
    shift = blocks * (n - 1)
    if shift == 0:
        return tuple(g.adj)
    if shift > g.n or tuple(g.adj[:shift]) != block_rows(blocks, n):
        return None
    rows = g.adj[shift:]
    if reduce(or_, rows, 0) & ((1 << shift) - 1):
        return None
    return tuple([row >> shift for row in rows])


def constructions(f: TreeFamily, p: int, value: int, base_free: dict):
    """The extremal host, and its connected variant where one exists, has
    ``value`` edges and is tree-free.  ``base_free`` remembers the answer
    for each distinct base, keyed by ``(f, rows)``."""
    variants = [{}]
    if residue_case(f.kind, f.n, p % (f.n - 1)).has_connected(f.n):
        variants.append({"connected": True})
    for variant in variants:
        try:
            g, recipe = extremal_graph(f, p, **variant)
            rows = _base_rows(g, recipe.prepended_blocks, f.n)
            passed = recipe.edges == value and rows is not None
            if passed:
                passed = base_free.get((f, rows))
                if passed is None:
                    base = SimpleGraph(len(rows), list(rows))
                    passed = base_free[f, rows] = contains_tree(base, f) is None
        except (ValueError, AssertionError):
            passed = False
        yield passed, {"family": f.kind, "n": f.n, "p": p, **variant}


# ---------------------------------------------------------------- the sweep

def sweep(
    n: tuple[int, int], p: tuple[str, str], families: list[str], *, oracle: bool = False,
    budget_nodes: int | None = None, budget_seconds: float | None = None, log=lambda msg: None,
) -> tuple[dict, dict]:
    """Run every check over ``max(n[0], 10) <= n <= n[1]`` and
    ``max(n, p[0]) <= p <= p[1]``, the ``p`` bounds evaluated per ``n``, and
    with ``oracle`` the oracle rows of :data:`ORACLE_SUITE`; return the
    report's ``results`` and ``counts``.  Raises ValueError on a family
    outside t3, tpp, tppp and, without ``oracle``, on a grid with no check.
    """
    ns = range(max(n[0], 10), n[1] + 1)
    # Every grid check needs n >= 10 (the identity check's smallest order; a
    # family's MIN_N is at least that) and p >= n.  The oracle sweep runs its
    # own suite, so a grid without checks is an error only without it.
    if not oracle:
        n_span = f"'{n[0]}..{n[1]}'"
        if not ns:
            raise ValueError(f"n range {n_span} holds no n >= 10, the smallest order verify checks")
        if all(max(eval_nexpr(p[0], m), m) > eval_nexpr(p[1], m) for m in ns):
            raise ValueError(f"p range '{p[0]}..{p[1]}' holds no p >= n for any n in {n_span}")
    for tag in families:
        if tag not in CASES:
            raise ValueError(f"verify families must be among t3,tpp,tppp (got {tag!r})")

    counts = {name: {"checked": 0, "failures": 0} for name in CHECKS}
    failures: list[dict] = []
    base_free: dict[tuple, bool] = {}

    def record(name: str, records) -> None:
        for passed, info in records:
            counts[name]["checked"] += 1
            if not passed:
                counts[name]["failures"] += 1
                if len(failures) < MAX_FAILURES_DETAIL:
                    failures.append({"check": name, **info})

    for m in ns:
        p_lo, p_hi = eval_nexpr(p[0], m), eval_nexpr(p[1], m)
        log(f"verify: n={m}, p in [{p_lo}, {p_hi}]")
        ps = range(max(p_lo, m), p_hi + 1)
        for q in ps:
            record("identity", identity(m, q))
        # Families outside, p inside: the look-back p - (n-1) of the
        # recurrence then stays within extremal_value's cache.
        for tag in dict.fromkeys(families):  # a repeated tag runs once
            if m < MIN_N[tag]:
                continue
            f = parse_family_spec(f"{tag}:{m}")
            for q in ps:
                value = extremal_value(f, q).value
                record("sandwich", sandwich(f, q, value))
                record("recurrence", recurrence(f, q, value))
                record("dominance", dominance(f, q, value))
                record("special_residues", special_residues(f, q))
                record("constructions", constructions(f, q, value, base_free))

    results: dict = dict(counts)
    if failures:
        results["failures_detail"] = failures
    rows: list[dict] = []
    if oracle:
        for spec, suite_ps in ORACLE_SUITE:
            log(f"verify: oracle sweep {spec} over p={suite_ps}")
            rep = verify_formula(parse_family_spec(spec), suite_ps,
                                 budget_nodes=budget_nodes, budget_seconds=budget_seconds)
            rows += [{**row, "family_spec": spec} for row in rep["rows"]]
        results["oracle"] = {"rows": rows, "all_equal": all(row["equal"] for row in rows)}
    total = sum(c["checked"] for c in counts.values()) + len(rows)
    failed = sum(c["failures"] for c in counts.values()) + sum(not row["equal"] for row in rows)
    return results, {"total": total, "failures": failed}
