#!/usr/bin/env python3
"""Benchmark of the turantrees CLI, end to end and per layer.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` in
this process seven times over, each time building the workload's inputs, and
the median import-and-build time is ``setup_s``.  Each operation is one call of ``turantrees.cli.main(argv)``
with its output captured; whole passes over the workload's operations run
until ``--seconds`` of operation time and at least 100 operations are done.
Outputs are checked outside the timed region.  Times are scaled to a fixed
machine speed measured by a calibration loop run between operations (see
README.md, "Machine speed").  ``--trace 1`` alternates
untraced and traced passes and reports per-layer figures instead.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import types
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
SETUP_SLICES = 20  # calibration slices after each set-up
MIN_OPS = 100
CAL_NOMINAL_S = 1e-3  # calibration slice time that counts as speed 1
CAL_ROWS = tuple((i * 2654435761) & 0xFFFFFFFFFFFF for i in range(64))

sys.path.insert(0, HERE)
from tracing import ALL_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Failed, Incorrect  # noqa: E402


class OpTimeout(Exception):
    pass


TIMEOUT = "timeout"


def _on_alarm(signum, frame):
    raise OpTimeout


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work of the program's
    kind (big-int bit operations, a dict, JSON): about 1 ms."""
    start = time.perf_counter()
    acc = 0
    for shift in range(14):
        for row in CAL_ROWS:
            acc += (row ^ row >> shift).bit_count()
        table = {i: row & 0xFFFF for i, row in enumerate(CAL_ROWS)}
        acc += len(json.dumps(table)) + sum(sorted(table.values())[:8])
    return time.perf_counter() - start


def slowdown(slices: list[float]) -> float:
    """How many times slower than nominal the machine ran while ``slices``
    were taken."""
    return statistics.median(slices) / CAL_NOMINAL_S


def load_program() -> types.SimpleNamespace:
    """Import the program afresh, so that its module code runs again."""
    for name in [m for m in sys.modules if m == "turantrees" or m.startswith("turantrees.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"turantrees.{name}")
        for name in ("cli", "constructions", "formulas", "trees")
    })


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    passed: int = 0
    wall_s: float = 0.0  # time inside operations, failed ones included
    busy_s: float = 0.0  # the same, scaled to nominal speed
    latencies: list[float] = field(default_factory=list)  # scaled, operations that did not fail
    nodes: int = 0  # oracle search nodes, from the reports
    failures: dict[str, list] = field(default_factory=dict)  # label -> [count, reason]
    incorrect: list[str] = field(default_factory=list)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.setdefault(label, [0, reason])[0] += 1


def run_op(main, argv: list[str], limit_s: float) -> tuple[float, int | None, str, str | None]:
    """One CLI call under a time limit: (seconds, exit code, stdout, error);
    the error of a timeout is ``TIMEOUT``."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = TIMEOUT
    except SystemExit as exc:
        error = f"exit {exc.code}: {err.getvalue().strip()[-300:]}"
    except Exception:  # a crash of the program is one failed operation
        error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")[-600:]
    return time.perf_counter() - start, code, out.getvalue(), error


def run_pass(workload, main, rng: random.Random, tally: Tally, tracer: Tracer | None = None) -> None:
    """Every operation once, in a seeded order, each followed by a
    calibration slice; then the pass-level checks.  Operation times are
    scaled by the pass's median slice, except timeouts, whose length is the
    limit on the wall clock."""
    ops = list(workload.ops)
    rng.shuffle(ops)
    results = []
    slices = []
    timed: list[tuple[float, bool, bool]] = []  # (seconds, timed out, failed)
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        elapsed, code, text, error = run_op(main, op.argv, workload.limit_s)
        slices.append(calibration_slice())
        tally.attempted += 1
        tally.wall_s += elapsed
        if error is None:
            try:
                if code not in (0, 1):
                    raise Failed(f"exit {code}: {text.strip()[-300:]}")
                try:
                    report = json.loads(text)
                except ValueError:
                    raise Failed(f"no JSON report: {text[-300:]!r}") from None
                op.check(report, code)
            except Failed as exc:
                error = str(exc)
            except Incorrect as exc:
                tally.incorrect.append(f"{op.label}: {exc}")
            else:
                tally.passed += 1
                tally.nodes += report.get("nodes", 0)
                results.append((op, report))
        if error is not None:
            tally.fail(op.label, f"timeout after {workload.limit_s} s" if error == TIMEOUT else error)
        timed.append((elapsed, error == TIMEOUT, error is not None))
    factor = slowdown(slices)
    for elapsed, timed_out, failed in timed:
        scaled = elapsed if timed_out else elapsed / factor
        tally.busy_s += scaled
        if not failed:
            tally.latencies.append(scaled)
    try:
        workload.pass_check(results)
    except Incorrect as exc:
        tally.incorrect.append(f"pass: {exc}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, prog, rng, seconds: float, tally: Tally, setup_s: float) -> dict:
    while tally.wall_s < seconds or tally.attempted < MIN_OPS:
        run_pass(workload, prog.cli.main, rng, tally)
    lat = tally.latencies
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(tally.passed / tally.busy_s, "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, prog, rng, seconds: float, tally: Tally, spans_path: str) -> dict:
    """Pairs of passes, one untraced and one traced, until ``seconds`` of
    operation time; per-layer figures are per traced pass."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    passes = 0
    while plain.wall_s + traced.wall_s < seconds or passes == 0:
        run_pass(workload, prog.cli.main, rng, plain)
        tracer.install()
        try:
            run_pass(workload, tracer.wrap("cli", prog.cli.main), rng, traced, tracer)
        finally:
            tracer.uninstall()
        passes += 1
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.incorrect += part.incorrect
        for label, (count, reason) in part.failures.items():
            tally.failures.setdefault(label, [0, reason])[0] += count
    tracer.write_spans(spans_path)

    out = {}
    for layer in ALL_LAYERS:
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / passes, "count")
        out[f"{layer}.self_s"] = metric(tracer.self_s[layer] / passes, "s")
    nodes = traced.nodes / passes
    anchored = tracer.calls["containment.anchored"] / passes
    read_s = tracer.self_s["graphs.read"]
    oracle_s = tracer.total_s["oracle"]
    out["containment.anchored.calls_per_node"] = metric(anchored / nodes if nodes else 0.0, "ratio")
    out["graphs.read.mb_per_s"] = metric(tracer.read_bytes / 1e6 / read_s if read_s else 0.0, "MB/s")
    out["oracle.nodes"] = metric(nodes, "count")
    out["oracle.nodes_per_s"] = metric(traced.nodes / oracle_s if oracle_s else 0.0, "1/s")
    out["trace.overhead_s"] = metric((traced.wall_s - plain.wall_s) / passes, "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "turantrees", "cli.py")):
        print(f"error: no program sources at {SRC}/turantrees", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally()
    try:
        setup_times, slices = [], []
        workload = prog = None
        for _ in range(SETUP_REPEATS):
            workload = prog = None  # the previous set-up's inputs are not this one's cost
            gc.collect()
            start = time.perf_counter()
            prog = load_program()
            workload = WORKLOADS[args.workload](prog, random.Random(args.seed), workdir)
            setup_times.append(time.perf_counter() - start)
            slices += [calibration_slice() for _ in range(SETUP_SLICES)]
        setup_s = statistics.median(setup_times) / slowdown(slices)
        rng = random.Random(f"order-{args.seed}")
        if args.trace:
            spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = traced_run(workload, prog, rng, args.seconds, tally, spans)
        else:
            metrics = timed_run(workload, prog, rng, args.seconds, tally, setup_s)
        try:
            workload.final_check()
        except Incorrect as exc:
            tally.incorrect.append(f"final: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, (count, reason) in sorted(tally.failures.items()):
        print(f"failed x{count}: {label}: {reason}", file=sys.stderr)
    for line in tally.incorrect[:20]:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
