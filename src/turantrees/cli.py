"""Command-line interface.

Every subcommand prints one JSON report to stdout (schema in the packaged
``report_schema.json``); progress notes go to stderr unless ``--quiet``.
Exit codes: 0 = success and all assertions passed; 1 = a verification
failed or an oracle run was inexact; 2 = domain or input error (the message
names the violated bound).

Subcommands::

    formula  <family> <n> <p> [--partial]        closed-form value + branch
    construct <family> <n> <p> <out> [--connected] [--format g6|edges]
    check    <graph-path> <family-spec>          exact containment + witness
    oracle   <p> <family-spec>                   brute-force reference value
    verify   [--n A..B] [--p EXPR[..EXPR]] [--oracle]
    table    <family> <n> <pmin> <pmax> [--csv]

Family specs are colon-tagged: ``t3:15``, ``tpp:15``, ``tppp:15``,
``path:7``, ``star:9``, ``file:<edge-list path>``.  For ``star`` the numeric
argument is the leaf count ``s``.  The ``verify`` ``--p`` bounds may use
``n``-expressions such as ``n``, ``2n-9``, or ``4n``, evaluated per tree
order.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict
from functools import lru_cache, reduce
from math import comb
from operator import or_

from .graphs import SimpleGraph, read_graph_file, to_graph6, write_graph_file
from .trees import parse_family_spec, realize, spec_string
from .formulas import (
    CASES,
    MIN_N,
    decompose,
    ex_t3,
    ex_tpp,
    ex_tppp,
    extremal_value,
    generic_max_form,
    lower_bound,
    residue_case,
    upper_bound,
)
from .constructions import block_rows, extremal_graph
from .containment import contains_tree, verify_witness
from .oracle import MAX_ORACLE_ORDER, ex_bruteforce, verify_formula

__all__ = ["main", "build_parser", "eval_nexpr"]

def eval_nexpr(expr: str, n: int) -> int:
    """Evaluate a bound expression: ``20``, ``n``, ``2n-9``, ``4n``, ``n+8``."""
    s = expr.strip().replace(" ", "")
    m = re.fullmatch(r"(\d*)n([+-]\d+)?", s)
    if m:
        coeff = int(m.group(1)) if m.group(1) else 1
        offset = int(m.group(2)) if m.group(2) else 0
        return coeff * n + offset
    if re.fullmatch(r"[+-]?\d+", s):
        return int(s)
    raise ValueError(
        f"bad expression {expr!r}: use an integer or forms like 'n', '2n-9', '4n'"
    )


def _parse_span(text: str) -> tuple[str, str]:
    a, sep, b = text.partition("..")
    if not a.strip():
        raise ValueError(f"bad range {text!r}")
    return (a, b) if sep else (a, a)


def _log(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------- subcommands

def _cmd_formula(args) -> tuple[dict, int]:
    f = parse_family_spec(f"{args.family}:{args.n}")
    p = args.p
    ev = extremal_value(f, p, partial=args.partial)
    report = {
        "command": "formula",
        "ok": True,
        "family_spec": spec_string(f),
        "n": args.n,
        "p": p,
        "value": ev.value,
        "branch": ev.branch,
        "partial": bool(args.partial),
    }
    return report, 0


def _cmd_construct(args) -> tuple[dict, int]:
    f = parse_family_spec(f"{args.family}:{args.n}")
    g, recipe = extremal_graph(f, args.p, connected=args.connected)
    write_graph_file(g, args.out, fmt=args.format)
    _log(args.quiet, f"wrote {g.n} vertices / {recipe.edges} edges to {args.out}")
    report = {
        "command": "construct",
        "ok": True,
        "family_spec": spec_string(f),
        "p": args.p,
        "out": args.out,
        "format": args.format,
        "connected": bool(args.connected),
        "recipe": asdict(recipe),
        "order": g.n,
        "edges": g.edge_count(),
        "max_degree": g.max_degree(),
    }
    return report, 0


def _cmd_check(args) -> tuple[dict, int]:
    started = time.perf_counter()
    g = read_graph_file(args.graph)
    read_s = time.perf_counter() - started
    f = parse_family_spec(args.family_spec)
    started = time.perf_counter()
    witness = contains_tree(g, f)
    search_s = time.perf_counter() - started
    started = time.perf_counter()
    witness_valid = (
        verify_witness(g, realize(f), witness) if witness is not None else None
    )
    witness_s = time.perf_counter() - started
    ok = witness is None or bool(witness_valid)
    report = {
        "command": "check",
        "ok": ok,
        "graph": args.graph,
        "family_spec": spec_string(f),
        "order": g.n,
        "edges": g.edge_count(),
        "contains": witness is not None,
        "witness": list(witness) if witness is not None else None,
        "witness_valid": witness_valid,
        "timing": {
            "read_s": round(read_s, 6),
            "search_s": round(search_s, 6),
            "witness_s": round(witness_s, 6),
        },
    }
    return report, 0 if ok else 1


def _cmd_oracle(args) -> tuple[dict, int]:
    if args.threads != 1:
        raise ValueError("the oracle search is serial: --threads must be 1")
    f = parse_family_spec(args.family_spec)
    _log(args.quiet, f"oracle: p={args.p}, family {spec_string(f)} ...")
    res = ex_bruteforce(
        args.p, f, budget_nodes=args.budget_nodes, budget_seconds=args.budget_seconds
    )
    try:
        formula = extremal_value(f, args.p).value
    except ValueError:
        formula = None
    equal = (res.value == formula) if (formula is not None and res.exact) else None
    ok = res.exact and equal is not False
    report = {
        "command": "oracle",
        "ok": ok,
        "p": args.p,
        "family_spec": spec_string(f),
        "value": res.value,
        "exact": res.exact,
        "budget_reason": res.budget_reason,
        "seed": {"edges": res.seed_edges, "host": res.seed_host},
        "nodes": res.nodes,
        "anchored": res.anchored,
        "elapsed": round(res.elapsed, 6),
        "witness_graph6": to_graph6(res.witness),
        "formula": formula,
        "equal": equal,
    }
    return report, 0 if ok else 1


_ORACLE_SUITE: list[tuple[str, list[int]]] = [
    ("path:4", [4, 5, 6, 7, 8]),
    ("path:5", [5, 6, 7, 8]),
    ("star:2", [3, 4, 5, 6, 7, 8]),
    ("star:3", [4, 5, 6, 7, 8]),
]


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


def _cmd_verify(args) -> tuple[dict, int]:
    started = time.monotonic()
    n_lo_s, n_hi_s = _parse_span(args.n)
    n_lo, n_hi = int(n_lo_s), int(n_hi_s)
    if n_lo > n_hi:
        raise ValueError(f"empty n range {args.n!r}")
    p_lo_s, p_hi_s = _parse_span(args.p)
    # Every grid check needs n >= 10 (the identity check's smallest order; a
    # family's MIN_N is at least that) and p >= n.  The oracle sweep runs its
    # own suite, so a grid without checks is an error only without it.
    ns = range(max(n_lo, 10), n_hi + 1)
    if not args.oracle:
        if not ns:
            raise ValueError(
                f"n range {args.n!r} holds no n >= 10, the smallest order verify checks"
            )
        if all(max(eval_nexpr(p_lo_s, n), n) > eval_nexpr(p_hi_s, n) for n in ns):
            raise ValueError(f"p range {args.p!r} holds no p >= n for any n in {args.n!r}")

    families = [s.strip() for s in args.families.split(",") if s.strip()]
    for tag in families:
        if tag not in CASES:
            raise ValueError(f"verify families must be among t3,tpp,tppp (got {tag!r})")

    counts = {
        name: {"checked": 0, "failures": 0}
        for name in (
            "identity",
            "sandwich",
            "recurrence",
            "dominance",
            "special_residues",
            "constructions",
        )
    }
    failures: list[dict] = []
    # T-freeness of each distinct base checked so far, keyed by (family, rows).
    base_free: dict[tuple, bool] = {}

    def record(name: str, passed: bool, **info) -> None:
        counts[name]["checked"] += 1
        if not passed:
            counts[name]["failures"] += 1
            if len(failures) < 20:
                failures.append({"check": name, **info})

    for n in ns:
        p_lo = eval_nexpr(p_lo_s, n)
        p_hi = eval_nexpr(p_hi_s, n)
        _log(args.quiet, f"verify: n={n}, p in [{p_lo}, {p_hi}]")
        trees = {
            tag: parse_family_spec(f"{tag}:{n}") for tag in families if n >= MIN_N[tag]
        }
        ps = range(max(p_lo, n), p_hi + 1)
        for p in ps:
            a = ex_tpp(p, n).value
            b = ex_tppp(p, n).value
            c = generic_max_form(p, n).value
            record("identity", a == b == c, n=n, p=p)

        # Families outside, p inside: the look-back p - (n-1) of the
        # recurrence then stays within extremal_value's cache.
        for tag, f in trees.items():
            for p in ps:
                value = extremal_value(f, p).value

                lb, ub = lower_bound(p, n), upper_bound(p, n)
                record(
                    "sandwich", lb <= value <= ub,
                    family=tag, n=n, p=p, value=value, lower=lb, upper=ub,
                )

                if p >= 2 * n - 6:
                    prev = extremal_value(f, p - (n - 1)).value
                    record(
                        "recurrence", value == comb(n - 1, 2) + prev,
                        family=tag, n=n, p=p,
                    )

                if tag == "t3":
                    d = decompose(p, n)
                    vg = generic_max_form(p, n).value
                    strict = (d.r == n - 8 and n >= 28) or (
                        d.r == n - 7 and n >= 41
                    )
                    dominance_ok = value >= vg and (value > vg) == strict
                    record("dominance", dominance_ok, n=n, p=p, r=d.r)
                    if d.r in {0, 1, 2, n - 5, n - 4, n - 3, n - 2}:
                        base = d.k * comb(n - 1, 2) + comb(d.r, 2)
                        ev = ex_t3(p, n)
                        record(
                            "special_residues",
                            ev.value == base and ev.branch == "Thm4.1",
                            n=n, p=p, r=d.r,
                        )

                variants = [{}]
                if residue_case(tag, n, p % (n - 1)).has_connected(n):
                    variants.append({"connected": True})
                for variant in variants:
                    try:
                        g, recipe = extremal_graph(f, p, **variant)
                        rows = _base_rows(g, recipe.prepended_blocks, n)
                        construction_ok = recipe.edges == value and rows is not None
                        if construction_ok:
                            construction_ok = base_free.get((f, rows))
                            if construction_ok is None:
                                base = SimpleGraph(len(rows), list(rows))
                                construction_ok = contains_tree(base, f) is None
                                base_free[f, rows] = construction_ok
                    except (ValueError, AssertionError):
                        construction_ok = False
                    record(
                        "constructions", construction_ok,
                        family=tag, n=n, p=p, **variant,
                    )

    results: dict = dict(counts)
    if failures:
        results["failures_detail"] = failures

    if args.oracle:
        oracle_rows = []
        oracle_all_equal = True
        for spec, ps in _ORACLE_SUITE:
            f = parse_family_spec(spec)
            _log(args.quiet, f"verify: oracle sweep {spec} over p={ps}")
            rep = verify_formula(
                f, ps, budget_nodes=args.budget_nodes, budget_seconds=args.budget_seconds
            )
            for row in rep["rows"]:
                row["family_spec"] = spec
                oracle_rows.append(row)
            oracle_all_equal = oracle_all_equal and rep["all_equal"]
        results["oracle"] = {"rows": oracle_rows, "all_equal": oracle_all_equal}

    total = sum(c["checked"] for c in counts.values())
    failure_count = sum(c["failures"] for c in counts.values())
    ok = failure_count == 0 and (
        not args.oracle or results["oracle"]["all_equal"]
    )
    if args.oracle:
        total += len(results["oracle"]["rows"])
        failure_count += sum(
            0 if row["equal"] else 1 for row in results["oracle"]["rows"]
        )

    report = {
        "command": "verify",
        "ok": ok,
        "params": {
            "n": [n_lo, n_hi],
            "p": args.p,
            "families": families,
            "oracle": bool(args.oracle),
        },
        "results": results,
        "counts": {"total": total, "failures": failure_count},
        "timing": {"elapsed": round(time.monotonic() - started, 3)},
    }
    return report, 0 if ok else 1


def _cmd_table(args) -> tuple[dict, int]:
    f = parse_family_spec(f"{args.family}:{args.n}")
    if args.pmin > args.pmax:
        raise ValueError(f"empty p range [{args.pmin}, {args.pmax}]")
    rows = []
    for p in range(args.pmin, args.pmax + 1):
        ev = extremal_value(f, p)
        if args.family == "star":
            k, r = 0, 0
        elif ev.branch == "small-host":
            k, r = 0, p
        else:
            d = decompose(p, args.n)
            k, r = d.k, d.r
        rows.append({"p": p, "k": k, "r": r, "value": ev.value, "branch": ev.branch})
    report = {
        "command": "table",
        "ok": True,
        "family_spec": spec_string(f),
        "n": args.n,
        "rows": rows,
    }
    if args.csv:
        lines = ["p,k,r,value,branch"]
        lines += [
            f"{row['p']},{row['k']},{row['r']},{row['value']},{row['branch']}"
            for row in rows
        ]
        return {"_csv": "\n".join(lines) + "\n", **report}, 0
    return report, 0


# ---------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turantrees",
        description="Exact extremal edge counts, constructions, and checkers "
        "for three bounded-degree tree families.",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress notes on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("formula", help="evaluate a closed-form value")
    sp.add_argument("family", choices=["t3", "tpp", "tppp", "path", "star"])
    sp.add_argument("n", type=int, help="tree order (leaf count s for star)")
    sp.add_argument("p", type=int, help="host order")
    sp.add_argument(
        "--partial",
        action="store_true",
        help="t3 only: allow 10 <= n <= 14 on the residues whose cases hold",
    )

    sp = sub.add_parser("construct", help="write an extremal host graph")
    sp.add_argument("family", choices=["t3", "tpp", "tppp", "path", "star"])
    sp.add_argument("n", type=int, help="tree order (leaf count s for star)")
    sp.add_argument("p", type=int, help="host order")
    sp.add_argument("out", help="output file path")
    sp.add_argument(
        "--connected",
        action="store_true",
        help="prefer a connected base when one attains the value",
    )
    sp.add_argument("--format", choices=["g6", "edges"], default="g6")

    sp = sub.add_parser("check", help="exact containment check on a graph file")
    sp.add_argument("graph", help="graph file (graph6 or 'u v' edge lines)")
    sp.add_argument("family_spec", help="t3:15, tpp:15, tppp:15, path:7, star:9, file:PATH")

    sp = sub.add_parser("oracle", help="brute-force reference maximum")
    sp.add_argument("p", type=int, help=f"host order, at most {MAX_ORACLE_ORDER}")
    sp.add_argument("family_spec")
    # Serial only; the flag stays because existing callers pass --threads 1.
    sp.add_argument("--threads", type=int, default=1, help="must be 1")
    sp.add_argument("--budget-nodes", type=int, default=None)
    sp.add_argument("--budget-seconds", type=float, default=None)

    sp = sub.add_parser("verify", help="run the consistency sweep")
    sp.add_argument("--n", default="15..17", help="tree orders, e.g. 15..20")
    sp.add_argument(
        "--p", default="n..3n", help="host orders per n, e.g. n..4n or 2n-9"
    )
    sp.add_argument("--families", default="t3,tpp,tppp")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="also run the desk-scale brute-force sweep (paths and stars)",
    )
    sp.add_argument("--budget-nodes", type=int, default=None)
    sp.add_argument("--budget-seconds", type=float, default=None)

    sp = sub.add_parser("table", help="closed-form values over a p range")
    sp.add_argument("family", choices=["t3", "tpp", "tppp", "path", "star"])
    sp.add_argument("n", type=int)
    sp.add_argument("pmin", type=int)
    sp.add_argument("pmax", type=int)
    sp.add_argument("--csv", action="store_true", help="CSV instead of JSON")

    return parser


_DISPATCH = {
    "formula": _cmd_formula,
    "construct": _cmd_construct,
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; parsing leaves
    it unchanged, so no value carries over from one call to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, code = _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        error_report = {"command": args.command, "ok": False, "error": str(exc)}
        print(json.dumps(error_report, indent=2, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 2

    csv_payload = report.pop("_csv", None)
    if csv_payload is not None:
        sys.stdout.write(csv_payload)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
