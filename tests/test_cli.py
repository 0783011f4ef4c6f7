"""Command-line interface: reports, exit codes, schema conformance."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import pytest

from turantrees import cli
from turantrees.cli import eval_nexpr, main
from turantrees.formulas import extremal_value
from turantrees.graphs import SimpleGraph, read_graph_file, to_edge_text, to_graph6
from turantrees.trees import path, star, t3, tpp, tppp

SCHEMA = json.loads(
    resources.files("turantrees").joinpath("report_schema.json").read_text()
)
# Checking the schema itself once keeps each report validation cheap.
jsonschema.Draft202012Validator.check_schema(SCHEMA)
REPORT_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv: str) -> tuple[int, dict | str]:
    code = main(["--quiet", *argv])
    out = capsys.readouterr().out
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return code, out
    REPORT_VALIDATOR.validate(report)
    return code, report


# ----------------------------------------------------------------- n-expr DSL

@pytest.mark.parametrize(
    "expr,n,value",
    [("20", 15, 20), ("n", 15, 15), ("2n-9", 15, 21), ("4n", 10, 40), ("n+3", 12, 15)],
)
def test_eval_nexpr(expr, n, value):
    assert eval_nexpr(expr, n) == value


def test_eval_nexpr_rejects_junk():
    with pytest.raises(ValueError):
        eval_nexpr("n*n", 5)
    with pytest.raises(ValueError):
        eval_nexpr("", 5)


# -------------------------------------------------------------------- formula

def test_formula_frozen_t3(capsys):
    code, rep = run_cli(capsys, "formula", "t3", "15", "23")
    assert code == 0
    assert rep["value"] == 127
    assert rep["branch"] == "Thm4.3"
    assert rep["family_spec"] == "t3:15"


def test_formula_frozen_tpp(capsys):
    code, rep = run_cli(capsys, "formula", "tpp", "15", "20")
    assert code == 0
    assert rep["value"] == 106
    assert rep["branch"] == "Thm3.1/clique-arm"


def test_formula_domain_violation_exits_2(capsys):
    code, rep = run_cli(capsys, "formula", "t3", "12", "20")
    assert code == 2
    assert rep["ok"] is False
    assert "n >= 15" in rep["error"]


def test_formula_partial_flag(capsys):
    code, rep = run_cli(capsys, "formula", "t3", "12", "17", "--partial")
    assert code == 0 and rep["partial"] is True
    code, rep = run_cli(capsys, "formula", "t3", "12", "15", "--partial")
    assert code == 2
    assert "residue r=4" in rep["error"]


def test_formula_star_uses_leaf_count(capsys):
    code, rep = run_cli(capsys, "formula", "star", "3", "8")
    assert code == 0 and rep["value"] == 8
    assert rep["family_spec"] == "star:3"


# ------------------------------------------------------------------ construct

def test_construct_writes_formula_matching_graph(capsys, tmp_path):
    out = tmp_path / "extremal.g6"
    code, rep = run_cli(capsys, "construct", "t3", "15", "21", str(out))
    assert code == 0
    assert rep["edges"] == 112
    assert rep["recipe"]["base"] == "clique-union"
    g = read_graph_file(str(out))
    assert g.edge_count() == 112 and g.n == 21


def test_construct_connected_variant(capsys, tmp_path):
    out = tmp_path / "connected.g6"
    code, rep = run_cli(capsys, "construct", "t3", "26", "43", str(out), "--connected")
    assert code == 0
    assert rep["edges"] == 453
    assert rep["recipe"]["base"] == "L4.6-even"
    assert read_graph_file(str(out)).is_connected()


def test_construct_regular_arm(capsys, tmp_path):
    out = tmp_path / "reg.g6"
    code, rep = run_cli(capsys, "construct", "tpp", "30", "42", str(out))
    assert code == 0 and rep["edges"] == 525
    assert rep["recipe"]["base"] == "near-regular"


def test_construct_edge_format(capsys, tmp_path):
    out = tmp_path / "graph.edges"
    code, rep = run_cli(
        capsys, "construct", "tpp", "12", "17", str(out), "--format", "edges"
    )
    assert code == 0
    text = out.read_text()
    assert all(len(line.split()) == 2 for line in text.splitlines())
    assert read_graph_file(str(out)).edge_count() == rep["edges"]


def test_construct_bad_path_exits_2(capsys, tmp_path):
    code, rep = run_cli(
        capsys, "construct", "t3", "15", "21", str(tmp_path / "no" / "dir" / "x.g6")
    )
    assert code == 2 and rep["ok"] is False


# ---------------------------------------------------------------------- check

def test_check_construction_is_free(capsys, tmp_path):
    out = tmp_path / "host.g6"
    run_cli(capsys, "construct", "t3", "15", "21", str(out))
    code, rep = run_cli(capsys, "check", str(out), "t3:15")
    assert code == 0
    assert rep["contains"] is False
    assert rep["witness"] is None


def test_check_complete_host_contains(capsys, tmp_path):
    out = tmp_path / "k15.g6"
    out.write_text(to_graph6(SimpleGraph.complete(15)) + "\n")
    code, rep = run_cli(capsys, "check", str(out), "t3:15")
    assert code == 0
    assert rep["contains"] is True
    assert rep["witness_valid"] is True
    assert len(rep["witness"]) == 15

    small = tmp_path / "k14.g6"
    small.write_text(to_graph6(SimpleGraph.complete(14)) + "\n")
    code, rep = run_cli(capsys, "check", str(small), "t3:15")
    assert code == 0 and rep["contains"] is False


def test_check_report_times_read_search_and_witness(capsys, tmp_path):
    host = tmp_path / "k15.edges"
    host.write_text(f"# p=15\n{to_edge_text(SimpleGraph.complete(15))}")
    code, rep = run_cli(capsys, "check", str(host), "t3:15")  # validated
    assert code == 0 and rep["witness_valid"] is True
    assert set(rep["timing"]) == {"read_s", "search_s", "witness_s"}
    assert all(seconds >= 0 for seconds in rep["timing"].values())


def test_check_explicit_tree_from_file(capsys, tmp_path):
    tree_file = tmp_path / "tree.edges"
    tree_file.write_text("0 1\n1 2\n")
    host = tmp_path / "host.g6"
    host.write_text(to_graph6(SimpleGraph.complete(3)) + "\n")
    code, rep = run_cli(capsys, "check", str(host), f"file:{tree_file}")
    assert code == 0 and rep["contains"] is True


def test_check_rejects_equal_legs_without_leaf_hosts_quickly(capsys, tmp_path):
    # the spider with 9 legs of length 2 on a hub of degree 40: without a
    # Hall test per branch placement, every hub tried C(40, 9) leg picks
    tree = tmp_path / "legs.edges"
    tree.write_text("".join(f"0 {i}\n{i} {9 + i}\n" for i in range(1, 10)))
    shared = [(0, v) for v in range(1, 41)] + [(v, 41) for v in range(1, 41)]
    # vertex 1 has 9 private leaf hosts, 2..40 share 41: every prefix of a
    # pick passes a count of the union of the leaf hosts, but a pick with
    # two legs in 2..40 fails Hall's condition
    private = [(0, v) for v in range(1, 41)] + [(1, v) for v in range(42, 51)]
    private += [(v, 41) for v in range(2, 41)]
    for name, p, edges in (("shared", 42, shared), ("private", 51, private)):
        host = tmp_path / f"{name}.g6"
        host.write_text(to_graph6(SimpleGraph.from_edges(p, edges)) + "\n")
        start = time.monotonic()
        code, rep = run_cli(capsys, "check", str(host), f"file:{tree}")
        assert time.monotonic() - start < 0.5, name
        assert code == 0 and rep["contains"] is False, name


def test_non_ascii_text_only_in_comments(capsys, tmp_path):
    host = tmp_path / "host.edges"
    host.write_bytes("0 1\n1 2 # café\n".encode("utf-8"))
    tree = tmp_path / "tree.edges"
    tree.write_bytes("# arbre à trois sommets\n0 1\n1 2\n".encode("utf-8"))
    code, rep = run_cli(capsys, "check", str(host), f"file:{tree}")
    assert code == 0 and rep["contains"] is True
    for data, message in (
        ("0 1\n1 2 café\n".encode("utf-8"), "line 2: non-ASCII character outside a '#' comment"),
        ("0 1\n١ 2\n".encode("utf-8"), "line 2: non-ASCII character outside a '#' comment"),
        (b"0 1\n1 2\n2 3 # caf\xe9\n", "line 3: not UTF-8 text"),
    ):
        host.write_bytes(data)
        for argv in (("check", str(host), "path:3"), ("check", str(tree), f"file:{host}")):
            code, rep = run_cli(capsys, *argv)
            assert code == 2 and rep["error"] == message, (data, argv)


def test_check_missing_file_exits_2(capsys):
    code, rep = run_cli(capsys, "check", "/nonexistent.g6", "t3:15")
    assert code == 2


@pytest.mark.parametrize("text", ["0 999999999999\n", "# p=999999999999\n0 1\n"])
def test_check_huge_edge_list_order_exits_2(capsys, tmp_path, text):
    huge = tmp_path / "huge.edges"
    huge.write_text(text)
    small = tmp_path / "small.edges"
    small.write_text("0 1\n1 2\n")
    for host, spec in ((huge, "path:3"), (small, f"file:{huge}")):
        code, rep = run_cli(capsys, "check", str(host), spec)
        assert code == 2
        assert "258047" in rep["error"]


# --------------------------------------------------------------------- oracle

def test_oracle_matches_formula(capsys):
    code, rep = run_cli(capsys, "oracle", "7", "path:4")
    assert code == 0
    assert rep["value"] == 6
    assert rep["exact"] is True
    assert rep["equal"] is True
    assert rep["formula"] == 6
    witness = rep["witness_graph6"]
    from turantrees.graphs import from_graph6

    assert from_graph6(witness).edge_count() == 6


def test_oracle_budget_exhaustion_exits_1(capsys):
    code, rep = run_cli(capsys, "oracle", "8", "path:4", "--budget-nodes", "50")
    assert code == 1
    assert rep["exact"] is False
    assert rep["ok"] is False


def test_budget_reason_in_oracle_reports(capsys):
    _, rep = run_cli(capsys, "oracle", "7", "path:4")
    assert rep["exact"] is True and rep["budget_reason"] is None
    code, rep = run_cli(capsys, "oracle", "8", "path:4", "--budget-nodes", "60")
    assert code == 1 and rep["exact"] is False
    assert rep["budget_reason"] == "node budget exhausted"
    code, rep = run_cli(
        capsys, "verify", "--n", "15..15", "--p", "n", "--oracle", "--budget-nodes", "60"
    )
    rows = rep["results"]["oracle"]["rows"]
    assert code == 1
    assert any(not row["exact"] for row in rows) and any(row["exact"] for row in rows)
    for row in rows:
        assert row["budget_reason"] == (None if row["exact"] else "node budget exhausted")


def test_oracle_reports_its_seed(capsys):
    # the report alone shows what the search had to beat; run_cli checks
    # the schema, which requires the seed in both reports
    _, rep = run_cli(capsys, "oracle", "8", "path:4")
    assert rep["seed"] == {"edges": 7, "host": "clique-union"}
    _, rep = run_cli(capsys, "oracle", "8", "star:3", "--budget-nodes", "1")
    assert rep["exact"] is False
    assert rep["seed"] == {"edges": 8, "host": "near-regular"}
    assert rep["value"] == 8
    _, rep = run_cli(capsys, "oracle", "4", "t3:15")
    assert rep["seed"] == {"edges": 6, "host": "clique-union"}
    _, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n", "--oracle")
    for row in rep["results"]["oracle"]["rows"]:
        assert row["seed"]["host"] in ("clique-union", "near-regular")
        assert row["seed"]["edges"] <= row["oracle"]


def test_oracle_reports_its_anchored_counts(capsys):
    # run_cli validates each report against the schema, which requires the
    # counts in both reports; a report without them is rejected
    _, rep = run_cli(capsys, "oracle", "8", "path:4")
    assert set(rep["anchored"]) == {"searches", "memo_hits"}
    assert rep["anchored"]["searches"] > 0 and rep["anchored"]["memo_hits"] > 0
    del rep["anchored"]
    assert not REPORT_VALIDATOR.is_valid(rep)
    _, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n", "--oracle")
    rows = rep["results"]["oracle"]["rows"]
    assert all(row["anchored"]["searches"] >= 0 for row in rows)
    del rows[0]["anchored"]
    assert not REPORT_VALIDATOR.is_valid(rep)


def test_oracle_no_formula_family(capsys, tmp_path):
    tree_file = tmp_path / "fork.edges"
    tree_file.write_text("0 1\n1 2\n2 3\n1 4\n")
    code, rep = run_cli(capsys, "oracle", "6", f"file:{tree_file}")
    assert code == 0
    assert rep["formula"] is None and rep["equal"] is None
    assert rep["exact"] is True


def test_parser_defaults_do_not_carry_over(capsys):
    # main builds its parser once; an option given in one call must not
    # become the default of the next
    assert cli.main(["--quiet", "oracle", "6", "path:4"]) == 0  # warm the parser
    capsys.readouterr()
    _, rep = run_cli(capsys, "oracle", "6", "path:4", "--budget-nodes", "1")
    assert rep["exact"] is False
    _, rep = run_cli(capsys, "oracle", "6", "path:4")
    assert rep["exact"] is True
    _, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n", "--oracle")
    assert rep["params"]["oracle"] is True and "oracle" in rep["results"]
    _, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n")
    assert rep["params"]["oracle"] is False and "oracle" not in rep["results"]


def test_oracle_threads_flag_accepts_only_one(capsys):
    _, plain = run_cli(capsys, "oracle", "6", "path:4")
    _, flagged = run_cli(capsys, "oracle", "6", "path:4", "--threads", "1")
    assert "threads" not in flagged
    del plain["elapsed"], flagged["elapsed"]  # wall time differs run to run
    assert flagged == plain
    code, rep = run_cli(capsys, "oracle", "6", "path:4", "--threads", "2")
    assert code == 2
    assert rep["error"] == "the oracle search is serial: --threads must be 1"
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", "verify", "--threads", "1"])
    assert exc.value.code == 2


def test_cli_import_starts_no_process_pool():
    code = (
        "import sys, turantrees.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


# --------------------------------------------------------------------- verify

def test_verify_default_sweep_passes(capsys):
    code, rep = run_cli(capsys, "verify", "--n", "15..16", "--p", "n..2n")
    assert code == 0
    assert rep["ok"] is True
    assert rep["counts"]["failures"] == 0
    assert rep["counts"]["total"] > 0
    for name in (
        "identity",
        "sandwich",
        "recurrence",
        "dominance",
        "special_residues",
        "constructions",
    ):
        assert rep["results"][name]["failures"] == 0


def test_verify_connected_construction_row(capsys):
    code, rep = run_cli(capsys, "verify", "--n", "26..27", "--p", "2n-9")
    assert code == 0 and rep["ok"] is True
    # three families checked once per n, plus the connected variant for t3
    assert rep["results"]["constructions"]["checked"] == 8
    assert rep["results"]["constructions"]["failures"] == 0


def test_verify_family_subset_and_bad_tag(capsys):
    code, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n..n+2",
                        "--families", "tpp")
    assert code == 0
    assert rep["results"]["dominance"]["checked"] == 0
    code, rep = run_cli(capsys, "verify", "--families", "path")
    assert code == 2


def test_verify_oracle_suite(capsys):
    code, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n..n", "--oracle")
    assert code == 0
    oracle = rep["results"]["oracle"]
    assert oracle["all_equal"] is True
    assert len(oracle["rows"]) == 20
    assert all(row["equal"] for row in oracle["rows"])
    assert all(row["nodes"] > 0 for row in oracle["rows"])


@pytest.mark.parametrize("n", [44, 50])
def test_verify_evaluates_each_closed_form_once(capsys, n):
    # per family: every p in n..6n, and the recurrence's look-back p - (n-1)
    # for p >= 2n - 6
    keys = set(range(n, 6 * n + 1)) | {p - (n - 1) for p in range(2 * n - 6, 6 * n + 1)}
    extremal_value.cache_clear()
    code, rep = _report(capsys, "verify", "--n", f"{n}..{n}", "--p", "n..6n")
    assert code == 0 and rep["ok"]
    assert extremal_value.cache_info().misses == 3 * len(keys)


def test_verify_empty_range_exits_2(capsys):
    # a grid that holds no check is an error that names the bound, not a pass
    for argv, bound in [
        (("--n", "20..15"), "empty n range"),
        (("--n", "15..15", "--p", "3n..n"), "no p >= n"),
        (("--n", "15..15", "--p", "10..12"), "no p >= n"),
        (("--n", "5..6"), "n >= 10"),
    ]:
        code, rep = run_cli(capsys, "verify", *argv)
        assert code == 2, argv
        assert bound in rep["error"], (argv, rep["error"])
    # the oracle sweep runs its own suite, whatever the grid
    code, rep = run_cli(capsys, "verify", "--n", "5..6", "--oracle")
    assert code == 0 and rep["ok"]
    assert rep["counts"]["total"] == len(rep["results"]["oracle"]["rows"]) > 0


def _patched_hosts(monkeypatch, change):
    """Make ``verify`` see ``change(g, n, p)`` in place of each host whose
    ``change`` returns a graph; the recipe (and so its edge count) is kept."""
    real = cli.extremal_graph

    def fake(f, p, **kwargs):
        g, recipe = real(f, p, **kwargs)
        changed = change(g, f.n, p)
        return (g if changed is None else changed), recipe

    monkeypatch.setattr(cli, "extremal_graph", fake)


def test_verify_rejects_an_edge_between_block_and_base(capsys, monkeypatch):
    # t3 at n = 15, p = 30 is one block K_14 followed by a base on 16 vertices.
    def join_block_to_base(g, n, p):
        adj = list(g.adj)
        adj[n - 2] |= 1 << (n - 1)
        adj[n - 1] |= 1 << (n - 2)
        return SimpleGraph(g.n, adj)

    _patched_hosts(monkeypatch, join_block_to_base)
    code, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "30..30",
                        "--families", "t3")
    assert code == 1 and rep["ok"] is False
    assert rep["results"]["constructions"] == {"checked": 1, "failures": 1}
    assert rep["results"]["failures_detail"] == [
        {"check": "constructions", "family": "t3", "n": 15, "p": 30}
    ]


def test_verify_rejects_a_base_that_holds_the_tree(capsys, monkeypatch):
    # Only the host at p = 2n - 1 gets a complete base K_n; the host at p = n
    # has the same residue, so a memo keyed by anything coarser than the
    # base's rows would pass it unchecked.
    def complete_base(g, n, p):
        if p != 2 * n - 1:
            return None
        return SimpleGraph.complete(n - 1).disjoint_union(SimpleGraph.complete(n))

    _patched_hosts(monkeypatch, complete_base)
    code, rep = run_cli(capsys, "verify", "--n", "15..15", "--p", "n..3n",
                        "--families", "tpp")
    assert code == 1 and rep["ok"] is False
    assert rep["results"]["constructions"]["failures"] == 1
    assert rep["results"]["failures_detail"] == [
        {"check": "constructions", "family": "tpp", "n": 15, "p": 29}
    ]


def test_verify_certifies_each_base_once(capsys, monkeypatch):
    real = cli.contains_tree
    calls = []

    def counted(g, f):
        calls.append(g.n)
        return real(g, f)

    monkeypatch.setattr(cli, "contains_tree", counted)
    counts = {}
    for span in ("n..3n", "n..6n"):
        calls.clear()
        code, rep = run_cli(capsys, "verify", "--n", "40..50", "--p", span)
        assert code == 0 and rep["ok"] is True
        counts[span] = len(calls)
        # Only bases are searched: never more than 2n - 2 vertices.
        assert max(calls) <= 2 * 50 - 2
    assert counts["n..6n"] == counts["n..3n"]
    assert counts["n..3n"] < rep["results"]["constructions"]["checked"]


# ---------------------------------------------------------------------- table

def test_table_frozen_rows(capsys):
    code, rep = run_cli(capsys, "table", "t3", "15", "15", "43")
    assert code == 0
    assert len(rep["rows"]) == 29
    by_p = {row["p"]: row for row in rep["rows"]}
    assert by_p[23]["value"] == 127 and by_p[23]["branch"] == "Thm4.3"
    assert by_p[21]["value"] == 112
    assert by_p[22]["value"] == 119


def test_table_single_row(capsys):
    code, rep = run_cli(capsys, "table", "t3", "15", "15", "15")
    assert code == 0
    (row,) = rep["rows"]
    assert row == {"p": 15, "k": 1, "r": 1, "value": 91, "branch": "Thm4.1"}


def test_table_tpp_row(capsys):
    code, rep = run_cli(capsys, "table", "tpp", "15", "15", "29")
    assert code == 0
    assert {row["p"]: row["value"] for row in rep["rows"]}[29] == 182


def test_table_csv(capsys):
    code, out = run_cli(capsys, "table", "path", "4", "4", "8", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,k,r,value,branch"
    assert len(lines) == 6
    assert lines[4].startswith("7,2,1,6,")


def test_table_empty_range_exits_2(capsys):
    code, rep = run_cli(capsys, "table", "t3", "15", "20", "15")
    assert code == 2


# ------------------------------------------------- formula and table = library

_GRID = [
    (tag, n, partial)
    for tag, ns in (
        ("t3", (10, 12, 15, 28, 41)),
        ("tpp", (10, 13, 30)),
        ("tppp", (10, 21)),
        ("path", (2, 4, 7)),
        ("star", (1, 3, 6)),
    )
    for n in ns
    for partial in ((False, True) if tag == "t3" else (False,))
]


def _report(capsys, *argv: str) -> tuple[int, dict]:
    """``run_cli`` without the schema check, which dominates a call's time."""
    code = main(["--quiet", *argv])
    return code, json.loads(capsys.readouterr().out)


def _library(tag: str, n: int, p: int, partial: bool = False) -> dict:
    maker = {"t3": t3, "tpp": tpp, "tppp": tppp, "path": path, "star": star}[tag]
    try:
        ev = extremal_value(maker(n), p, partial=partial)
    except ValueError as exc:
        return {"error": str(exc)}
    return {"value": ev.value, "branch": ev.branch}


@pytest.mark.parametrize("tag,n,partial", _GRID)
def test_formula_equals_extremal_value(capsys, tag, n, partial):
    # p < n, then every residue once, then one step into the next block
    flags = ["--partial"] if partial else []
    for p in range(0, 2 * n + 1):
        code, rep = _report(capsys, "formula", tag, str(n), str(p), *flags)
        want = _library(tag, n, p, partial)
        if "error" in want:
            assert code == 2 and rep["error"] == want["error"]
        else:
            assert code == 0
            assert (rep["value"], rep["branch"]) == (want["value"], want["branch"])


@pytest.mark.parametrize("tag,n,partial", [g for g in _GRID if not g[2]])
def test_table_rows_equal_extremal_value(capsys, tag, n, partial):
    tree_n = n + 1 if tag == "star" else n
    code, rep = _report(capsys, "table", tag, str(n), "0", str(3 * n + 2))
    if code == 2:  # no closed form somewhere in the range: the library agrees
        assert any("error" in _library(tag, n, p) for p in range(0, 3 * n + 3))
        return
    assert [row["p"] for row in rep["rows"]] == list(range(0, 3 * n + 3))
    for row in rep["rows"]:
        p = row["p"]
        want = _library(tag, n, p)
        assert (row["value"], row["branch"]) == (want["value"], want["branch"])
        if tag == "star":
            assert (row["k"], row["r"]) == (0, 0)
        elif p < tree_n:
            assert (row["k"], row["r"]) == (0, p)
        else:
            assert (row["k"], row["r"]) == divmod(p, n - 1)


def test_formula_below_tree_order(capsys):
    # the library and the CLI agree below p = n
    code, rep = run_cli(capsys, "formula", "t3", "15", "10")
    assert code == 0
    assert (rep["value"], rep["branch"]) == (45, "small-host")
    # a path at p = n - 1 is a small host too; its value is unchanged
    code, rep = run_cli(capsys, "formula", "path", "5", "4")
    assert (rep["value"], rep["branch"]) == (6, "small-host")


# -------------------------------------------------------- bounds on the input

def test_edge_list_construction_keeps_its_order(capsys, tmp_path):
    out = tmp_path / "x.edges"
    code, rep = run_cli(
        capsys, "construct", "tpp", "20", "39", str(out), "--format", "edges"
    )
    assert code == 0 and rep["order"] == 39
    code, rep = run_cli(capsys, "check", str(out), "tpp:20")
    assert code == 0
    assert rep["order"] == 39 and rep["contains"] is False


def test_oracle_host_order_bound_exits_2(capsys):
    code, rep = run_cli(capsys, "oracle", "50", "star:2")
    assert code == 2
    assert "p <= 40" in rep["error"]


def test_check_long_path_has_no_order_bound(capsys, tmp_path):
    host = tmp_path / "path.edges"
    host.write_text("".join(f"{i} {i + 1}\n" for i in range(1199)))
    code, rep = run_cli(capsys, "check", str(host), "path:1100")
    assert code == 0
    assert rep["contains"] and rep["witness_valid"] is True


# ------------------------------------------------------------------ the shell

def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "turantrees", "--quiet", "formula", "t3", "15", "23"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["value"] == 127
    REPORT_VALIDATOR.validate(rep)


def test_error_reports_also_validate(capsys):
    code, rep = run_cli(capsys, "formula", "t3", "12", "20")
    assert code == 2
    REPORT_VALIDATOR.validate(rep)
