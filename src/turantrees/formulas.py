"""Closed-form extremal edge counts for the tree families.

Every function returns exact integers.  Values are keyed by the host order
``p`` and the tree order ``n`` through the unique decomposition
``p = k(n-1) + r`` with ``k >= 1`` and ``0 <= r <= n-2``: extremal hosts are
built from complete blocks ``K_{n-1}`` plus a remainder part on ``n-1+r``
vertices, and every formula below is ``k * C(n-1,2) + C(r,2)`` plus a
case-dependent bonus.

The case split of the three spider families lives in one place, the
``CASES`` table: per residue case its predicate, the smallest proven ``n``,
its bonus and the base that earns it.  The values here, the constructions
and the CLI all read it.  The cases carry short stable labels ("Thm4.1" ...
"Thm4.5", "Thm3.1/...", "Thm5.1/...", "L2.10/...") that downstream tooling
matches on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable

from .trees import TreeFamily

__all__ = [
    "ResidueDecomposition",
    "ExtremalValue",
    "decompose",
    "ex_path",
    "ex_star",
    "generic_max_form",
    "ResidueCase",
    "CASES",
    "MIN_N",
    "residue_case",
    "ex_tpp",
    "ex_tppp",
    "ex_t3",
    "ex_t3_partial",
    "lower_bound",
    "upper_bound",
    "extremal_value",
]


@dataclass(frozen=True, slots=True)
class ResidueDecomposition:
    """``p = k * (n - 1) + r`` with ``k >= 1`` and ``0 <= r <= n - 2``."""

    p: int
    n: int
    k: int
    r: int


@dataclass(frozen=True, slots=True)
class ExtremalValue:
    """An exact extremal edge count together with the dispatch arm that
    produced it."""

    value: int
    branch: str


def decompose(p: int, n: int) -> ResidueDecomposition:
    """Split ``p = k(n-1) + r``.  Requires ``p >= n - 1 >= 2``."""
    if n - 1 < 2:
        raise ValueError(f"decompose requires n >= 3 (got n={n})")
    if p < n - 1:
        raise ValueError(f"decompose requires p >= n-1 (got p={p}, n={n})")
    k, r = divmod(p, n - 1)
    return ResidueDecomposition(p=p, n=n, k=k, r=r)


# ---------------------------------------------------------------- paths, stars

def ex_path(p: int, n: int) -> ExtremalValue:
    """Extremal edge count for hosts with no path on ``n`` vertices:
    ``k * C(n-1,2) + C(r,2)``, attained by ``k`` copies of K_{n-1} plus K_r.

    Requires ``n >= 3`` and ``p >= n - 1``.
    """
    if n < 3:
        raise ValueError(f"ex_path requires n >= 3 (got n={n})")
    if p < n - 1:
        raise ValueError(f"ex_path requires p >= n-1 (got p={p}, n={n})")
    d = decompose(p, n)
    return ExtremalValue(d.k * comb(n - 1, 2) + comb(d.r, 2), "path")


def ex_star(p: int, s: int) -> ExtremalValue:
    """Extremal edge count for hosts with no ``s``-leaf star:
    ``floor((s-1) p / 2)``, attained by a near-(s-1)-regular graph.

    Requires ``s >= 1`` and ``p >= s + 1``.
    """
    if s < 1:
        raise ValueError(f"ex_star requires s >= 1 (got s={s})")
    if p < s + 1:
        raise ValueError(f"ex_star requires p >= s+1 (got p={p}, s={s})")
    return ExtremalValue((s - 1) * p // 2, "star")


# ---------------------------------------------------------------- generic form

def _base(k: int, n: int, r: int) -> int:
    return k * comb(n - 1, 2) + comb(r, 2)


def _regular_arm(n: int, r: int) -> int:
    """Edge surplus of the near-(n-5)-regular remainder over the clique
    remainder: ``max(0, floor((r(n-4-r) - 3(n-1)) / 2))``."""
    return max(0, (r * (n - 4 - r) - 3 * (n - 1)) // 2)


def generic_max_form(p: int, n: int) -> ExtremalValue:
    """The two-arm maximum shared by the wide-middle residues of every family:
    blocks-plus-clique versus blocks-plus-near-regular remainder.

    Requires ``n >= 10`` and ``p >= n - 1``.
    """
    if n < 10:
        raise ValueError(f"generic_max_form requires n >= 10 (got n={n})")
    if p < n - 1:
        raise ValueError(f"generic_max_form requires p >= n-1 (got p={p}, n={n})")
    d = decompose(p, n)
    bonus = _regular_arm(n, d.r)
    arm = "regular-arm" if bonus > 0 else "clique-arm"
    return ExtremalValue(_base(d.k, n, d.r) + bonus, f"L2.10/{arm}")


# ---------------------------------------------------------------- case table

@dataclass(frozen=True, slots=True)
class ResidueCase:
    """One row of a spider family's case table over ``r = p mod (n-1)``.

    The value is the block value ``k C(n-1,2) + C(r,2)`` (the universal
    :func:`lower_bound`) plus ``bonus(n, r)``.  ``base`` names the remainder
    on ``n-1+r`` vertices that earns the bonus; an extremal host uses it
    instead of the clique ``K_r`` exactly when the bonus is positive, and,
    from order ``connected_from`` on, also on request, because there it is a
    connected base that ties with the clique union.
    """

    label: str
    covers: Callable[[int, int], bool]  # (n, r) -> does this case apply
    min_n: int  # smallest n the case is proven for
    bonus: Callable[[int, int], int]  # (n, r) -> edges above the block value
    base: str = "clique-union"  # "clique-union" | "near-regular" | "L4.6" | "L4.7"
    connected_from: int | None = None

    def has_connected(self, n: int) -> bool:
        """Whether a connected base attaining the value exists at order ``n``."""
        return self.connected_from is not None and n >= self.connected_from


# The first row covering a residue wins.  The t3 rows partition ``[0, n-2]``
# for n >= 15; below that ``r = n-8`` can also be a special residue, and
# Thm 4.1 must take it.
CASES: dict[str, tuple[ResidueCase, ...]] = {
    "t3": (
        ResidueCase("Thm4.1", lambda n, r: r <= 2 or r >= n - 5, 10, lambda n, r: 0),
        ResidueCase(
            "Thm4.2", lambda n, r: 3 <= r <= n - 9, 15, _regular_arm, "near-regular"
        ),
        ResidueCase("Thm4.3", lambda n, r: r == n - 6, 10, lambda n, r: 0),
        ResidueCase(
            "Thm4.4", lambda n, r: r == n - 8, 15,
            lambda n, r: max(n // 2 - 13, 0), "L4.6", connected_from=26,
        ),
        ResidueCase(
            "Thm4.5", lambda n, r: r == n - 7, 15,
            lambda n, r: max((n - 37) // 4, 0), "L4.7", connected_from=37,
        ),
    ),
    "tpp": (ResidueCase("Thm3.1", lambda n, r: True, 10, _regular_arm, "near-regular"),),
    "tppp": (ResidueCase("Thm5.1", lambda n, r: True, 10, _regular_arm, "near-regular"),),
}

# Smallest tree order at which every case of a family is proven.
MIN_N: dict[str, int] = {
    kind: max(case.min_n for case in cases) for kind, cases in CASES.items()
}


def residue_case(kind: str, n: int, r: int) -> ResidueCase:
    """The first row of the ``kind`` table that covers residue ``r``."""
    return next(case for case in CASES[kind] if case.covers(n, r))


def _table_value(
    name: str, kind: str, p: int, n: int, partial: bool = False
) -> ExtremalValue:
    """The table value at ``(n, p)``; domain errors are reported as ``name``'s.

    ``partial`` admits every ``n`` at which some row is proven; residues
    whose row is still open at ``n`` then raise.
    """
    min_n = min(c.min_n for c in CASES[kind]) if partial else MIN_N[kind]
    if n < min_n:
        raise ValueError(f"{name} requires n >= {min_n} (got n={n})")
    if p < n:
        raise ValueError(f"{name} requires p >= n (got p={p}, n={n})")
    k, r = divmod(p, n - 1)
    case = residue_case(kind, n, r)
    if n < case.min_n:
        raise ValueError(
            f"residue r={r} is not covered for n={n} "
            f"(open case below n={MIN_N[kind]})"
        )
    bonus = case.bonus(n, r)
    label = case.label
    if case.base == "near-regular":  # a two-arm case also names the winning arm
        label += "/regular-arm" if bonus > 0 else "/clique-arm"
    return ExtremalValue(_base(k, n, r) + bonus, label)


def ex_tpp(p: int, n: int) -> ExtremalValue:
    """Extremal edge count with the ``tpp`` tree forbidden (Thm 3.1): the
    generic two-arm maximum, at every residue.

    Requires ``n >= 10`` and ``p >= n``.
    """
    return _table_value("ex_tpp", "tpp", p, n)


def ex_tppp(p: int, n: int) -> ExtremalValue:
    """Extremal edge count with the ``tppp`` tree forbidden (Thm 5.1):
    identical values to ``ex_tpp``, via the same two-arm maximum.

    Requires ``n >= 10`` and ``p >= n``.
    """
    return _table_value("ex_tppp", "tppp", p, n)


def ex_t3(p: int, n: int) -> ExtremalValue:
    """Extremal edge count with the ``t3`` tree forbidden (Thm 4.1--4.5), with
    the case label of the ``CASES["t3"]`` row that covers ``p mod (n-1)``.

    Requires ``n >= 15`` and ``p >= n``.
    """
    return _table_value("ex_t3", "t3", p, n)


def ex_t3_partial(p: int, n: int) -> ExtremalValue:
    """The ``t3`` value where its case is already proven: from ``n >= 10``
    the special residues ("Thm4.1") and ``r = n-6`` ("Thm4.3"), every
    residue from ``n >= 15``.  Residues still open at ``n`` raise.

    Requires ``n >= 10`` and ``p >= n``.
    """
    return _table_value("ex_t3_partial", "t3", p, n, partial=True)


# ---------------------------------------------------------------- bounds

def lower_bound(p: int, n: int) -> int:
    """Universal lower bound ``((n-2) p - r(n-1-r)) / 2`` (the block value),
    valid for all three families.  Requires ``n >= 10``, ``p >= n - 1``."""
    if n < 10:
        raise ValueError(f"lower_bound requires n >= 10 (got n={n})")
    d = decompose(p, n)
    num = (n - 2) * p - d.r * (n - 1 - d.r)
    assert num % 2 == 0
    return num // 2


def upper_bound(p: int, n: int) -> int:
    """Universal upper bound
    ``floor(((n-2) p - min(2(n-1+r), r(n-1-r))) / 2)`` for all three
    families.  Requires ``n >= 10``, ``p >= n - 1``."""
    if n < 10:
        raise ValueError(f"upper_bound requires n >= 10 (got n={n})")
    d = decompose(p, n)
    cut = min(2 * (n - 1 + d.r), d.r * (n - 1 - d.r))
    return ((n - 2) * p - cut) // 2


# ---------------------------------------------------------------- evaluator

@lru_cache(maxsize=256)
def extremal_value(f: TreeFamily, p: int, partial: bool = False) -> ExtremalValue:
    """Family-level evaluator, defined for every host order ``p >= 0``.

    For ``p < n`` no host can contain the ``n``-vertex tree, so the complete
    graph is extremal and the value is ``C(p, 2)`` (branch "small-host").
    From ``p >= n`` on, the family's closed form applies.  ``partial=True``
    uses :func:`ex_t3_partial` for the ``t3`` family.

    Explicit trees have no closed form and raise ``ValueError``.  Values are
    kept in a small bounded cache, so repeated checks cost one lookup.
    """
    if p < 0:
        raise ValueError(f"extremal_value requires p >= 0 (got p={p})")
    if f.kind == "explicit":
        raise ValueError("no closed form for explicit trees; use the oracle")
    if p < f.n:
        return ExtremalValue(comb(p, 2), "small-host")
    if f.kind == "t3":
        return ex_t3_partial(p, f.n) if partial else ex_t3(p, f.n)
    if f.kind == "tpp":
        return ex_tpp(p, f.n)
    if f.kind == "tppp":
        return ex_tppp(p, f.n)
    if f.kind == "path":
        return ex_path(p, f.n)
    if f.kind == "star":
        assert f.s is not None
        return ex_star(p, f.s)
    raise ValueError(f"unknown tree family kind {f.kind!r}")
