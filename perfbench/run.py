"""End-to-end and per-layer benchmark of the finshift CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 35 --trace 0

Each workload (see ``workloads.py``) is a closed loop with one client in one
process: ops are ``finshift.cli.main(argv)`` calls with stdout and stderr
captured, issued one at a time.  A pass runs the workload's op list once;
passes repeat until the next one would end after ``--seconds``.  Outputs
are checked by the oracles after the loop.

Times are calibrated.  On a shared host the interpreter's speed can drift
by a factor of up to 1.8 for minutes at a time, far more than the changes
the benchmark must catch.  So a fixed speed probe (loops of tuple, dict,
frozenset and integer work, the kind of work the ops do) runs before each
pass, after it, and between ops every ``CALIBRATE_EVERY_S``; the pass's op
latencies are scaled by ``PROBE_NOMINAL_S`` over the pass's median probe
time.  Time metrics are therefore seconds (or ms) at the speed where the
probe takes ``PROBE_NOMINAL_S``; the run record also gives the raw figures.
An op's latency is its median over the untraced passes.

- ``setup_s``: median of ``SETUP_REPEATS`` fresh imports of finshift plus
  input generation (the files are then written once, untimed);
- ``run_s``: the op loop's time, summing each op's median latency;
- ``ops_per_s``: the op list's length over ``run_s``;
- ``op_p50_ms``, ``op_p95_ms``: percentiles over the op list of the ops'
  median latencies;
- ``peak_rss_mb``: the process's peak resident memory over set-up and the
  first pass (later passes repeat the same ops; counting them would make
  the figure depend on how many fit in the run).

``--trace 0`` reports those.  ``--trace 1`` alternates untraced and traced
passes and reports per-layer self time and work per traced pass, the
tracing overhead and the time no span covers; the run record adds the
figures the inputs fix (``FIXED_BY_INPUTS``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import workloads
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
CALIBRATE_EVERY_S = 1.0
PROBE_NOMINAL_S = 0.01

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "files.self_s": "s",
    "files.calls": "count",
    "groups.self_s": "s",
    "groups.build.calls": "count",
    "groups.build.self_s": "s",
    "groups.subgroups.self_s": "s",
    "groups.subgroups.subsets": "count",
    "groups.cosets.self_s": "s",
    "patterns.self_s": "s",
    "shiftspace.self_s": "s",
    "shiftspace.enum.calls": "count",
    "shiftspace.enum.self_s": "s",
    "shiftspace.enum.configs": "count",
    "shiftspace.enum.space": "count",
    "freext.self_s": "s",
    "freext.extend.self_s": "s",
    "freext.extend.families": "count",
    "freext.extract.self_s": "s",
    "dynprops.self_s": "s",
    "dynprops.entropy.self_s": "s",
    "dynprops.aut.self_s": "s",
    "dynprops.aut.perms": "count",
    "dynprops.mme.self_s": "s",
    "dynprops.mme.points": "count",
    "dynprops.si.self_s": "s",
    "zline.self_s": "s",
    "zline.words": "count",
    "suites.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

# Traced figures that the inputs fix, so neither direction is better; the
# run record reports them, and a change means the work itself changed.
FIXED_BY_INPUTS = ("shiftspace.enum.yield", "freext.extract.ok_ratio", "suites.checks")


def _best_of_five(fn) -> float:
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def _allocating():
    table = {}
    for x in itertools.product((0, 1), repeat=12):
        y = tuple(x[i] for i in range(12))
        table[y] = frozenset((y, x))


def _arithmetic():
    s = 0
    for i in range(60_000):
        s += i * i % 7


def probe_s() -> float:
    """Time of a fixed probe: a loop that allocates tuples, dicts and
    frozensets plus a loop of integer arithmetic, each its best of five.
    Either alone tracks the drift of only some workloads; the two together
    track all three."""
    return _best_of_five(_allocating) + _best_of_five(_arithmetic)


def _import_finshift():
    """Import finshift afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "finshift" or m.startswith("finshift.")]:
        del sys.modules[name]
    cli = importlib.import_module("finshift.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"finshift was imported from {cli.__file__}, not {SRC}")
    return cli


def _setup(workload: str, seed: int, work: str):
    """Import plus input generation, repeated; returns the last import's
    cli module and inputs, and the median set-up time, raw and calibrated.
    The input files are written once, untimed: file-system latency is the
    benchmark's own and varies far more than the work being measured."""
    probes = [probe_s()]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = _import_finshift()
        inputs, files = workloads.build(workload, seed, work)
        times.append(perf_counter() - start)
    probes.append(probe_s())
    files.flush()
    raw = statistics.median(times)
    return cli, inputs, raw, raw * PROBE_NOMINAL_S / statistics.median(probes)


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the loop must go on; the oracle sees it
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, (rc, out.getvalue(), err.getvalue())


class Loop:
    """Runs passes over one op list and keeps their timings and what the
    oracles need."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first = None     # outcomes of the first pass
        self.other = []       # (op index, outcome) where a later pass differed
        self.latencies = {False: [], True: []}  # per pass: op latencies, s
        self.wall = {False: [], True: []}       # per pass: wall time, s
        self.scaled = []      # per untraced pass: calibrated op latencies
        self.probes = []
        self.op_marks = []    # (first span index, op name) per traced op
        self.peak_rss_mb = None  # after set-up and the first pass

    def run_pass(self, tracer=None) -> None:
        traced = tracer is not None
        outcomes, latencies = [], []
        gc.collect()
        start = perf_counter()
        probes = [probe_s()]
        last = perf_counter()
        if traced:
            tracer.install()
        for op in self.ops:
            if traced:
                self.op_marks.append((tracer.span_count, op.name))
            elapsed, outcome = _call(self.cli, op.argv)
            latencies.append(elapsed)
            outcomes.append(outcome)
            if perf_counter() - last >= CALIBRATE_EVERY_S:
                probes.append(probe_s())
                last = perf_counter()
        if traced:
            tracer.uninstall()
        probes.append(probe_s())
        self.probes += probes
        self.wall[traced].append(perf_counter() - start)
        self.latencies[traced].append(latencies)
        if not traced:
            scale = PROBE_NOMINAL_S / statistics.median(probes)
            self.scaled.append([e * scale for e in latencies])
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.first is None:
            self.first = outcomes
        else:
            self.other += [(i, o) for i, o in enumerate(outcomes) if o != self.first[i]]

    def passes(self, traced: bool) -> int:
        return len(self.wall[traced])

    def op_latencies(self, traced: bool = False) -> list[float]:
        """Each op's median raw latency over the passes of one kind."""
        return [statistics.median(lat) for lat in zip(*self.latencies[traced])]

    def calibrated_latencies(self) -> list[float]:
        """Each op's median calibrated latency over the untraced passes."""
        return [statistics.median(lat) for lat in zip(*self.scaled)]

    def verdicts(self):
        """(attempted, failed, failed op names) over every pass run."""
        passes = self.passes(False) + self.passes(True)
        attempted = failed = 0
        names = {}
        judged = [(i, o, passes - sum(1 for j, _ in self.other if j == i))
                  for i, o in enumerate(self.first)]
        judged += [(i, o, 1) for i, o in self.other]
        for i, outcome, times in judged:
            units, failures = self.ops[i].check(*outcome)
            attempted += units * times
            failed += len(failures) * times
            if failures:
                names[self.ops[i].name] = failures[0]
        return attempted, failed, names


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "finshift")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _run_known_defects(cli, ops):
    """Run each known-defect op once, untimed, and report its outcome."""
    report = []
    for op in ops:
        _, outcome = _call(cli, op.argv)
        _, failures = op.check(*outcome)
        report.append({
            "op": op.name,
            "argv": " ".join(os.path.basename(a) for a in op.argv),
            "expected": "exit 2 with one error: line",
            "observed": "as expected" if not failures else failures[0],
        })
    return report


def _run_loop(loop: Loop, seconds: float, tracer) -> None:
    """Passes until the next would end after ``seconds``; with a tracer,
    untraced and traced passes alternate and each kind runs at least once."""
    begin = perf_counter()
    traced_next = False
    while True:
        loop.run_pass(tracer if traced_next else None)
        if tracer is not None:
            traced_next = not traced_next
            if not (loop.passes(False) and loop.passes(True)):
                continue
        estimate = statistics.median(loop.wall[traced_next])
        if perf_counter() - begin + estimate > seconds:
            return


def _layer_metrics(tracer, loop):
    """The per-layer metrics, and the figures the inputs fix."""
    passes = loop.passes(True)
    layers = tracer.layer_metrics(passes)
    traced_run_s = sum(loop.op_latencies(True))
    untraced_run_s = sum(loop.op_latencies(False))
    attributed = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    layers.update({
        "trace.run_s": traced_run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.unattributed_s": sum(map(sum, loop.latencies[True])) / passes - attributed,
        "trace.spans": tracer.span_count / passes,
    })
    return ({name: layers[name] for name in PER_LAYER},
            {name: layers[name] for name in FIXED_BY_INPUTS})


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "finshift", "cli.py")):
        print(f"perfbench: no finshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        cli, inputs, raw_setup_s, setup_s = _setup(args.workload, args.seed, work)
        ops = inputs.ops if args.ops is None else _sample(inputs.ops, args.ops)
        loop = Loop(cli, ops)
        tracer = Tracer() if args.trace else None
        _run_loop(loop, args.seconds, tracer)
        attempted, failed, failed_ops = loop.verdicts()
        defects = _run_known_defects(cli, inputs.known_defects)
        latencies = loop.calibrated_latencies()
        if tracer is None:
            run_s = sum(latencies)
            metrics = {
                "setup_s": setup_s,
                "run_s": run_s,
                "ops_per_s": len(ops) / run_s,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_p95_ms": _quantile(latencies, 0.95) * 1e3,
                "peak_rss_mb": loop.peak_rss_mb,
            }
            units = END_TO_END
            fixed = None
        else:
            metrics, fixed = _layer_metrics(tracer, loop)
            units = PER_LAYER
            if args.spans:
                starts = [first for first, _ in loop.op_marks]
                tracer.write_spans(args.spans, lambda i: loop.op_marks[
                    bisect.bisect_right(starts, i) - 1][1])

    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    per_op = {op.name: t * 1e3 for op, t in zip(ops, latencies)}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": {"untraced": loop.passes(False), "traced": loop.passes(True)},
        "ops_per_pass": len(ops),
        "ops_by_kind": kinds,
        "op_samples": f"{len(ops)} ops, each the median of {loop.passes(False)} passes",
        "raw": {"setup_s": raw_setup_s, "run_s": sum(loop.op_latencies()),
                "probe_median_s": statistics.median(loop.probes),
                "probe_nominal_s": PROBE_NOMINAL_S},
        "error_path_share": sum(op.error_path for op in ops) / len(ops),
        "fail_ratio": failed / attempted,
        "failed_ops": failed_ops,
        "slowest_ops_ms": dict(sorted(per_op.items(), key=lambda kv: -kv[1])[:5]),
        "known_defects": defects,
        "fixed_by_inputs": fixed,
    }
    for name, value in metrics.items():
        print(f"{name}\t{value!r}\t{units[name]}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _sample(ops, n: int):
    """The first op of each kind, then the rest in order, up to ``n``."""
    seen, head, tail = set(), [], []
    for op in ops:
        (tail if op.kind in seen else head).append(op)
        seen.add(op.kind)
    return (head + tail)[:max(n, len(head))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run only this many ops per pass (smoke test)")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write every span to this TSV file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
