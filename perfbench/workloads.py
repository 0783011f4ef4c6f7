"""The benchmark's workloads: inputs made from a seed, the CLI calls, and
the checks on what the calls print.

Each workload is built by a function ``setup(prog, rng, workdir)`` that
returns a :class:`Workload`.  ``prog`` holds the freshly imported program
modules, ``rng`` is seeded from ``--seed``, and ``workdir`` is a scratch
directory for host files.  Checks raise :class:`Incorrect` when the program
answered wrongly and :class:`Failed` when it did not answer for the input it
was given.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable

import reference as ref


class Incorrect(Exception):
    """The program answered, and the answer is wrong."""


class Failed(Exception):
    """The program gave no answer for its input: it hung, crashed, exited
    with an error, or its report describes a different input."""


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[dict, int], None]


@dataclass
class Workload:
    ops: list[Op]
    limit_s: float  # per-operation time limit; a timeout counts as failed
    pass_check: Callable[[list[tuple[Op, dict]]], None] = lambda results: None
    final_check: Callable[[], None] = lambda: None


def _rows_to_sets(rows: list[int]) -> list[set[int]]:
    out = []
    for row in rows:
        s = set()
        while row:
            low = row & -row
            s.add(low.bit_length() - 1)
            row ^= low
        out.append(s)
    return out


# ---------------------------------------------------------------- verify-sweep

VERIFY_NS = range(15, 51)


def verify_counts(family: str, n: int) -> dict[str, int]:
    """The checks ``verify --n n..n --p n..3n --families family`` must run.

    The identity and sandwich checks run at every ``p``, the recurrence from
    ``p = 2n - 6`` (where ``p - (n-1)`` still has a block value), and the
    ``t3`` extras at every ``p``, at the special residues, and once more for
    each connected variant."""
    ps = range(n, 3 * n + 1)
    t3 = family == "t3"
    return {
        "identity": len(ps),
        "sandwich": len(ps),
        "recurrence": sum(p >= 2 * n - 6 for p in ps),
        "dominance": len(ps) if t3 else 0,
        "special_residues": sum(ref.is_t3_special(n, p) for p in ps) if t3 else 0,
        "constructions": len(ps) + (sum(ref.connected_variant(n, p) for p in ps) if t3 else 0),
    }


def _check_verify(expected: dict[str, int], report: dict, code: int) -> None:
    if code != 0 or report.get("ok") is not True:
        raise Incorrect(f"verify reported a failure: {report.get('results')}")
    results = report["results"]
    for name, count in expected.items():
        if results[name] != {"checked": count, "failures": 0}:
            raise Incorrect(f"{name}: {results[name]}, expected {count} checks")
    if report["counts"] != {"total": sum(expected.values()), "failures": 0}:
        raise Incorrect(f"counts {report['counts']}")


def verify_sweep(prog, rng, workdir: str) -> Workload:
    ops = []
    for family in ref.SPIDERS:
        for n in VERIFY_NS:
            argv = ["--quiet", "verify", "--n", f"{n}..{n}", "--p", "n..3n", "--families", family]
            expected = verify_counts(family, n)
            ops.append(Op(f"verify {family}:{n}", argv,
                          lambda report, code, e=expected: _check_verify(e, report, code)))

    grid = [(f, n, p) for f in ref.SPIDERS for n in VERIFY_NS for p in range(n, 3 * n + 1)]
    samples = rng.sample(grid, 12)

    def final_check() -> None:
        # verify prints counts only, so the values and hosts it checked are
        # recomputed here through the library and compared with the paper.
        for family, n, p in grid:
            value = prog.formulas.extremal_value(prog.trees.parse_family_spec(f"{family}:{n}"), p).value
            if value != ref.case_table(family, n, p)[0]:
                raise Incorrect(f"ex({p}; {family}:{n}) = {value}, paper gives {ref.case_table(family, n, p)[0]}")
        for family, n, p in samples:
            value, base = ref.case_table(family, n, p)
            g, _ = prog.constructions.extremal_graph(prog.trees.parse_family_spec(f"{family}:{n}"), p)
            if g.n != p or g.edge_count() != value:
                raise Incorrect(f"host for {family}:{n}, p={p} has order {g.n}, {g.edge_count()} edges")
            if base in ("clique-union", "near-regular") and not ref.spider_free_certificate(_rows_to_sets(g.adj), n):
                raise Incorrect(f"host for {family}:{n}, p={p} fails the distance-2 certificate")

    return Workload(ops, limit_s=10.0, final_check=final_check)


# ---------------------------------------------------------------- check-hosts

def _cells() -> list[tuple[str, str, list[tuple[int, int]]]]:
    """``(family, base, [(n, p), ...])`` for every base of every family,
    with one or two blocks ``K_{n-1}`` (``p < 3(n-1)``).

    ``tpp`` near-regular hosts with even ``n >= 20`` each have one non-edge
    on which containment hangs (the counted ``defect-1`` operation), so
    that cell draws odd ``n`` only; a seed must not decide whether an
    operation fails."""
    cells: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for family in ref.SPIDERS:
        for n in range(15, 51):
            for p in range(n, 3 * (n - 1)):
                base = ref.case_table(family, n, p)[1]
                if family == "tpp" and base == "near-regular" and n % 2 == 0:
                    continue
                cells.setdefault((family, base), []).append((n, p))
    return [(f, b, choices) for (f, b), choices in sorted(cells.items())]


def _lemma_base(prog, n: int, base: str) -> list[set[int]] | None:
    c = prog.constructions
    if base.startswith("L4.6"):
        return _rows_to_sets((c.lemma46_even(n) if n % 2 == 0 else c.lemma46_odd(n)).adj)
    if base.startswith("L4.7"):
        return _rows_to_sets(c.lemma47_construct(n).adj)
    return None


class _HostCheck:
    """Checks a ``check`` report against the host as written."""

    def __init__(self, adj, tree_n, tree_edges, contains: bool, certificate=None):
        self.adj, self.tree_n, self.tree_edges = adj, tree_n, tree_edges
        self.order, self.edges = len(adj), ref.edge_count(adj)
        self.contains, self.certificate = contains, certificate
        self.certified = None

    def __call__(self, report: dict, code: int) -> None:
        if (report.get("order"), report.get("edges")) != (self.order, self.edges):
            raise Failed(
                f"read order {report.get('order')} / {report.get('edges')} edges, "
                f"file holds {self.order} / {self.edges}"
            )
        if code != 0 or report["ok"] is not True or report["contains"] is not self.contains:
            raise Incorrect(f"exit {code}, ok {report['ok']}, contains {report['contains']}")
        if self.contains:
            if report["witness_valid"] is not True or not ref.is_embedding(
                self.adj, self.tree_edges, self.tree_n, report["witness"]
            ):
                raise Incorrect(f"bad witness {report['witness']}")
        else:
            if self.certified is None:
                self.certified = self.certificate(self.adj)
            if not self.certified:
                raise Incorrect("expected answer 'free' is not certified")


def check_hosts(prog, rng, workdir: str) -> Workload:
    ops: list[Op] = []
    problems: list[str] = []

    def write(name: str, adj, fmt: str = "g6") -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(ref.to_graph6(adj) + "\n" if fmt == "g6" else ref.to_edge_text(adj))
        return path

    def tree_file(family: str, n: int) -> str:
        path = os.path.join(workdir, f"tree-{family}-{n}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(f"{a} {b}\n" for a, b in ref.spider_edges(family, n)))
        return f"file:{path}"

    def add(label: str, path: str, spec: str, adj, contains: bool, certificate=None, tree=None):
        tree_n, tree_edges = tree or ref.tree_of_spec(spec)
        ops.append(Op(label, ["--quiet", "check", path, spec],
                      _HostCheck(adj, tree_n, tree_edges, contains, certificate)))

    # (a) Saturation: an extremal host plus one non-edge must contain the tree.
    for family, base, choices in _cells():
        # One host from each third of the cell's host orders, so that every
        # seed draws a similar mix of sizes.
        choices.sort(key=lambda np: np[1])
        for i in range(3):
            n, p = rng.choice(choices[i * len(choices) // 3:(i + 1) * len(choices) // 3])
            adj = ref.extremal_host(family, n, p, _lemma_base(prog, n, base))
            value = ref.case_table(family, n, p)[0]
            if ref.edge_count(adj) != value:
                problems.append(f"{base} host for {family}:{n}, p={p} has {ref.edge_count(adj)} edges, paper gives {value}")
            u, v = ref.random_non_edge(adj, rng)
            sat = [set(row) for row in adj]
            sat[u].add(v)
            sat[v].add(u)
            spec = f"{family}:{n}"
            path = write(f"sat-{family}-{base}-{i}.g6", sat)
            add(f"saturation {spec} {base}", path, spec, sat, True)
            if i:
                continue
            if base == "clique-union":
                # (c) The generic engine on the same query, and paths, whose
                # answer on a union of cliques follows from component sizes.
                add(f"generic file:{spec}", path, tree_file(family, n), sat, True,
                    tree=ref.tree_of_spec(spec))
                plain = write(f"cliques-{family}.g6", adj)
                largest = max(len(c) for c in ref.components(adj))
                add(f"path:{largest} cliques", plain, f"path:{largest}", adj, True)
                add(f"path:{largest + 1} cliques", plain, f"path:{largest + 1}", adj, False,
                    lambda g, m=largest + 1: max(len(c) for c in ref.components(g)) < m)
            if base == "near-regular":
                # (c) Stars, whose answer follows from the maximum degree.
                top = max(len(row) for row in sat)
                add(f"star:{top} near-regular", path, f"star:{top}", sat, True)
                add(f"star:{top + 1} near-regular", path, f"star:{top + 1}", sat, False,
                    lambda g, s=top + 1: max(len(row) for row in g) < s)

    # (c) The generic engine on near-regular hosts, fixed queries that take
    # it a few hundred milliseconds.
    for family, n, p, (u, v) in (("t3", 20, 25, (1, 10)), ("tpp", 19, 25, (0, 8)), ("tppp", 21, 30, (1, 10))):
        sat = ref.extremal_host(family, n, p)
        sat[u].add(v)
        sat[v].add(u)
        add(f"generic file:{family}:{n} near-regular", write(f"generic-{family}.g6", sat),
            tree_file(family, n), sat, True, tree=ref.tree_of_spec(f"{family}:{n}"))

    # (b) Adversarial hosts: every clique vertex passes the degree filter.
    for n in range(15, 31):
        adj = ref.adversarial_host(n)
        spec = f"tppp:{n}"
        add(f"adversarial {spec}", write(f"adversarial-{n}.g6", adj), spec, adj, False,
            lambda g, m=n: ref.spider_free_certificate(g, m))

    # (d) Large hosts, where reading the file dominates.  Edge lists cannot
    # carry a trailing isolated vertex (the counted defect-3 operation), so
    # p = 1 mod 14, whose base is a lone K_1, is not drawn.
    for family, lo in zip(ref.SPIDERS, (400, 600, 800)):
        p = rng.choice([q for q in range(lo, lo + 201) if q % 14 != 1])
        adj = ref.extremal_host(family, 15, p)
        spec = f"{family}:15"
        for fmt in ("g6", "edges"):
            add(f"large {fmt} {spec} p={p}", write(f"large-{family}.{fmt}", adj, fmt), spec, adj,
                False, lambda g: ref.spider_free_certificate(g, 15))

    # (e) Counted failures, on inputs that do not depend on the seed.
    sat = ref.extremal_host("tpp", 20, 25)
    sat[0].add(14)
    sat[14].add(0)
    add("defect-1 tpp:20 near-regular + (0,14)", write("defect1.g6", sat), "tpp:20", sat, True)
    edges_path = os.path.join(workdir, "defect3.edges")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        prog.cli.main(["--quiet", "construct", "tpp", "20", "39", edges_path, "--format", "edges"])
    add("defect-3 tpp:20 p=39 edge list", edges_path, "tpp:20", ref.extremal_host("tpp", 20, 39),
        False, lambda g: ref.spider_free_certificate(g, 20))

    def final_check() -> None:
        if problems:
            raise Incorrect("; ".join(problems))

    return Workload(ops, limit_s=2.0, final_check=final_check)


# ---------------------------------------------------------------- oracle-desk

# Every case is exact on one worker within about 1.5 s.  The cheap star cases
# put the median operation inside a cluster of similar times rather than at
# the step up to the 9 ms cases, where run-to-run noise would move it.
ORACLE_CASES = (
    ("path:4", range(4, 10)),
    ("path:5", range(5, 9)),
    ("path:6", range(6, 8)),
    ("star:2", range(3, 10)),
    ("star:3", range(4, 10)),
    ("star:4", range(5, 10)),
    ("star:5", range(6, 10)),
    ("star:6", range(7, 10)),
    ("star:7", range(8, 10)),
    ("star:8", range(9, 10)),
    ("t3:6", range(6, 9)),
    ("tpp:6", range(6, 9)),
    ("tppp:6", range(6, 8)),
    ("t3:7", range(7, 9)),
    ("tpp:7", range(7, 9)),
    ("tppp:7", range(7, 8)),
)


def _classical(spec: str, p: int) -> int | None:
    tag, _, arg = spec.partition(":")
    if tag == "path":
        return ref.ex_path(p, int(arg))
    if tag == "star":
        return ref.ex_star(p, int(arg))
    return None


def _lower_bound(tree_n: int, tree_edges, p: int) -> int:
    """Two universal T-free hosts: cliques ``K_{n-1}`` (components too small)
    and a near-regular graph of degree ``Delta(T) - 1``."""
    top = max(len(row) for row in ref.from_edges(tree_n, tree_edges))
    return max(ref.ex_path(p, tree_n), (top - 1) * p // 2)


class _OracleCheck:
    def __init__(self, spec: str, p: int, free_cache: dict):
        self.spec, self.p = spec, p
        self.tree_n, self.tree_edges = ref.tree_of_spec(spec)
        self.free_cache = free_cache

    def __call__(self, report: dict, code: int) -> None:
        value = report["value"]
        if code != 0 or report["ok"] is not True or report["exact"] is not True:
            raise Incorrect(f"exit {code}, ok {report['ok']}, exact {report['exact']}")
        classical = _classical(self.spec, self.p)
        if classical is not None and (value != classical or report["equal"] is not True):
            raise Incorrect(f"value {value}, classical {classical}")
        if value < _lower_bound(self.tree_n, self.tree_edges, self.p):
            raise Incorrect(f"value {value} below a known T-free host")
        key = (self.spec, report["witness_graph6"])
        if key not in self.free_cache:
            w = ref.from_graph6(report["witness_graph6"])
            self.free_cache[key] = (len(w), ref.edge_count(w)) == (self.p, value) and (
                ref.find_embedding(w, self.tree_edges, self.tree_n) is None
            )
        if not self.free_cache[key]:
            raise Incorrect(f"witness {report['witness_graph6']} is not a T-free host with {value} edges")


def _check_oracle_pass(results: list[tuple[Op, dict]]) -> None:
    """ex(p) never drops as p grows, and deleting a vertex of an extremal
    host on p + 1 vertices keeps at least a (p-1)/(p+1) share of its edges,
    so ex(p+1) <= floor(ex(p) (p+1) / (p-1))."""
    values: dict[tuple[str, int], int] = {}
    for op, report in results:
        values[(op.check.spec, op.check.p)] = report["value"]
    for (spec, p), value in values.items():
        nxt = values.get((spec, p + 1))
        if nxt is not None and not value <= nxt <= value * (p + 1) // (p - 1):
            raise Incorrect(f"{spec}: ex({p}) = {value}, ex({p + 1}) = {nxt}")


def oracle_desk(prog, rng, workdir: str) -> Workload:
    free_cache: dict = {}
    ops = [
        Op(f"oracle {spec} p={p}", ["--quiet", "oracle", str(p), spec, "--threads", "1"],
           _OracleCheck(spec, p, free_cache))
        for spec, ps in ORACLE_CASES
        for p in ps
    ]
    return Workload(ops, limit_s=10.0, pass_check=_check_oracle_pass)


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "check-hosts": check_hosts,
    "oracle-desk": oracle_desk,
}
