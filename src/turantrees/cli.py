"""Command-line interface.

The CLI only parses arguments and prints reports: each subcommand calls the
library (``verify`` calls :func:`turantrees.verify.sweep`) and wraps what it
returns in one JSON report on stdout (schema in the packaged
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
import sys
import time
from dataclasses import asdict
from functools import lru_cache

from .graphs import read_graph_file, to_graph6, write_graph_file
from .trees import parse_family_spec, realize, spec_string
from .formulas import decompose, extremal_value
from .constructions import extremal_graph
from .containment import contains_tree, verify_witness
from .oracle import MAX_ORACLE_ORDER, ex_bruteforce
from .verify import eval_nexpr, sweep

__all__ = ["main", "build_parser", "eval_nexpr"]


def _nexpr(expr: str) -> str:
    eval_nexpr(expr, 0)  # raises ValueError on a malformed expression
    return expr


def _span(flag: str, text: str, parse, form: str) -> tuple:
    """The bounds of ``A..B``, or of ``A`` read as ``A..A``, each read by
    ``parse``; a malformed span is an error that names ``flag``."""
    a, sep, b = text.partition("..")
    try:
        return parse(a), parse(b if sep else a)
    except ValueError:
        raise ValueError(f"{flag} takes A or A..B with A, B {form} (got {text!r})") from None


def _log(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------- subcommands
# Each returns its report and whether it passed; ``main`` adds ``command`` and
# ``ok`` to the report and chooses the exit code.

def _cmd_formula(args) -> tuple[dict, bool]:
    f = parse_family_spec(f"{args.family}:{args.n}")
    ev = extremal_value(f, args.p, partial=args.partial)
    report = {
        "family_spec": spec_string(f),
        "n": args.n,
        "p": args.p,
        "value": ev.value,
        "branch": ev.branch,
        "partial": bool(args.partial),
    }
    return report, True


def _cmd_construct(args) -> tuple[dict, bool]:
    f = parse_family_spec(f"{args.family}:{args.n}")
    g, recipe = extremal_graph(f, args.p, connected=args.connected)
    write_graph_file(g, args.out, fmt=args.format)
    _log(args.quiet, f"wrote {g.n} vertices / {recipe.edges} edges to {args.out}")
    report = {
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
    return report, True


def _cmd_check(args) -> tuple[dict, bool]:
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
    return report, ok


def _cmd_oracle(args) -> tuple[dict, bool]:
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
        "p": args.p,
        "family_spec": spec_string(f),
        "value": res.value,
        **res.search_fields(),
        "elapsed": round(res.elapsed, 6),
        "witness_graph6": to_graph6(res.witness),
        "formula": formula,
        "equal": equal,
    }
    return report, ok


def _cmd_verify(args) -> tuple[dict, bool]:
    started = time.monotonic()
    n_lo, n_hi = _span("--n", args.n, int, "integers")
    if n_lo > n_hi:
        raise ValueError(f"empty n range {args.n!r}")
    p_span = _span("--p", args.p, _nexpr, "integers or forms like 'n', '2n-9', '4n'")
    families = [s.strip() for s in args.families.split(",") if s.strip()]
    results, counts = sweep(
        (n_lo, n_hi), p_span, families, oracle=args.oracle, budget_nodes=args.budget_nodes,
        budget_seconds=args.budget_seconds, log=lambda msg: _log(args.quiet, msg),
    )
    report = {
        "params": {"n": [n_lo, n_hi], "p": args.p, "families": families, "oracle": args.oracle},
        "results": results,
        "counts": counts,
        "timing": {"elapsed": round(time.monotonic() - started, 3)},
    }
    return report, counts["failures"] == 0


def _cmd_table(args) -> tuple[dict, bool]:
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
        return {"_csv": "\n".join(lines) + "\n", **report}, True
    return report, True


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
        report, ok = _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        error_report = {"command": args.command, "ok": False, "error": str(exc)}
        print(json.dumps(error_report, indent=2, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 2

    csv_payload = report.pop("_csv", None)
    if csv_payload is not None:
        sys.stdout.write(csv_payload)
    else:
        report = {"command": args.command, "ok": ok, **report}
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
