"""Benchmark of the fmdp solver: one workload, one seed, one process.

    python3 perfbench/run.py --workload ring --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` beside this directory, nothing is installed.  The workloads and
their correctness gates are in ``workloads.py``.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:

* ``pass_s``: seconds for one pass over the workload's operations, the sum
  over operations of each one's median sample.  A pass is the ``api()``
  calls on ``ring`` and ``sysadmin3``, reading and checking every
  certificate file under both backends on ``verify``, and the oracle
  replay on ``oracle``.
* ``setup_s``: importing the package plus the median of three builds of
  the workload's inputs (models, and the files written for ``verify`` and
  ``oracle``).
* ``peak_rss_mb``: peak resident memory of the process.

Both times are scaled to a reference machine speed by ``probe.py``; the
unscaled seconds are kept in the run record.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``tracer.py``, each the median over the
traced passes, plus ``trace.overhead``, the scaled traced pass time over
the untraced one.  Per-layer seconds are unscaled span self times, which
include the probe's interruptions (about 2%).  Every operation's result
must repeat bit for bit across samples and between traced and untraced
passes.

An operation starts only while it is predicted to end within
``--seconds``; at least one full pass always runs.  The last line of
standard output is the JSON result; a run record with the stop reason of
every instance, the samples, and in traced runs the spans, goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

PER_LAYER_SECONDS = {
    "simplex.master_s": "simplex.master",
    "simplex.explicit_s": "simplex.explicit",
    "elim.pricing_s": "elim.pricing",
    "elim.maxsum_s": "elim.maxsum",
    "lpbuild.blocks_s": "lpbuild.blocks",
    "lpbuild.assemble_s": "lpbuild.assemble",
    "lp.stdform_s": "lp.stdform",
    "error.bellman_s": "error.bellman",
    "weights.self_s": "weights.update",
    "certify.master_s": "certify.master",
    "certify.full_s": "certify.full",
    "certify.file_s": "certify.file",
    "certify.file_raw_s": "certify.file_raw",
    "lpio.read_lp_s": "lpio.read_lp",
    "lpio.read_cert_s": "lpio.read_cert",
    "oracle.explicit_lp_s": "oracle.explicit_lp",
    "oracle.q_s": "oracle.q",
    "oracle.optimal_value_s": "oracle.optimal_value",
    "policy.greedy_s": "policy.greedy",
    "api.self_s": "api.solve",
}
PER_LAYER_COUNTS = {
    "simplex.master_solves": "count",
    "simplex.master_pivots": "count",
    "simplex.master_rows_max": "rows",
    "simplex.master_cols_max": "cols",
    "simplex.explicit_pivots": "count",
    "elim.pricing_calls": "count",
    "elim.max_table": "entries",
    "lpbuild.rows": "rows",
    "lpbuild.cols": "cols",
    "weights.cut_rounds": "count",
    "weights.cuts": "count",
    "weights.box_growths": "count",
    "lpio.bytes": "bytes",
    "policy.branches": "count",
    "api.iterations": "count",
    "values.max_bits": "bits",
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="fmdp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _direct(name, fn, *args, **kwargs):
    """Untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


class Runner:
    """Runs operations, checks outcomes, and keeps the samples.

    Samples are seconds scaled to the reference machine speed by ``probe``;
    ``raw`` keeps the unscaled ones.
    """

    def __init__(self, ops, probe: SpeedProbe) -> None:
        self.ops = ops
        self.probe = probe
        self.samples: dict[str, list[float]] = {op.name: [] for op in ops}
        self.raw: dict[str, list[float]] = {op.name: [] for op in ops}
        self.first: dict[str, object] = {}
        self.stops: dict[str, set] = {op.name: set() for op in ops}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, op, tracer=None) -> float | None:
        """One timed operation, traced when ``tracer`` is given; returns its
        scaled seconds, or None if it failed."""
        args = op.prepare()
        self.attempted += 1
        call = _direct
        if tracer is not None:
            tracer.request = op.name
            call = tracer.call
        try:
            outcome, seconds, scaled = self.probe.measure(op.run, call, *args)
            self.stops[op.name].add(op.stop(outcome))
            if tracer is not None:
                op.note(tracer, outcome)
            problem = op.check(outcome)
            key = op.key(outcome)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.stops[op.name].add(f"raised {type(exc).__name__}")
            problem = f"{op.name}: raised {type(exc).__name__}: {exc}"
        else:
            first = self.first.get(op.name)
            if problem is None and first is not None and key != op.key(first):
                problem = f"{op.name}: result differs from the first sample"
            if problem is None:
                self.first.setdefault(op.name, outcome)
        self._fail(problem)
        if problem is not None:
            return None
        if tracer is None:
            self.samples[op.name].append(scaled)
            self.raw[op.name].append(seconds)
        return scaled

    def audit(self) -> None:
        """The costly one-off checks, on each operation's first outcome."""
        for op in self.ops:
            if op.name in self.first:
                try:
                    problem = op.audit(self.first[op.name])
                except Exception as exc:  # a failed check is counted, not fatal
                    problem = f"{op.name}: audit raised {type(exc).__name__}: {exc}"
                self._fail(problem)

    def _fail(self, problem: str | None) -> None:
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def _untraced(runner: Runner, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    last: dict[str, float] = {}
    k = 0
    while True:
        op = runner.ops[k % len(runner.ops)]
        if k >= len(runner.ops) and time.perf_counter() + last[op.name] > deadline:
            break
        started = time.perf_counter()
        runner.run(op)
        last[op.name] = time.perf_counter() - started
        k += 1
    medians = [statistics.median(s) for s in runner.samples.values() if s]
    return {"pass_s": (sum(medians), "s")}


def _traced(runner: Runner, seconds: float, tracer_module) -> tuple[dict, list]:
    untraced: list[float] = []
    traced: list[tuple[float, object]] = []

    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced.append(sum(runner.run(op) or 0.0 for op in runner.ops))
        tracer = tracer_module.Tracer()
        with tracer:
            traced.append((sum(runner.run(op, tracer) or 0.0 for op in runner.ops), tracer))
        if 2 * time.perf_counter() - started > deadline:
            break
    per_pass = [_layer_metrics(tracer) for _, tracer in traced]
    metrics = {name: (statistics.median(p[name] for p in per_pass), "s") for name in PER_LAYER_SECONDS}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = (statistics.median_low(p[name] for p in per_pass), unit)
    overhead = statistics.median(t for t, _ in traced) / statistics.median(untraced)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, [tracer for _, tracer in traced]


def _layer_metrics(tracer) -> dict:
    own = tracer.self_seconds()
    out = {name: own.get(span, 0.0) for name, span in PER_LAYER_SECONDS.items()}
    for name in PER_LAYER_COUNTS:
        out[name] = tracer.counters.get(name, tracer.maxima.get(name, 0))
    return out


def _layer_totals(tracer) -> dict:
    """Self seconds per layer, the first component of the span name."""
    out: dict[str, float] = {}
    for span, seconds in tracer.self_seconds().items():
        layer = span.split(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "fmdp" / "__init__.py").is_file():
        print(f"run.py: no package sources at {ROOT / 'src' / 'fmdp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with SpeedProbe() as probe:
        return _run(args, probe)


def _run(args, probe: SpeedProbe) -> int:
    (workloads, tracer_module), import_raw, import_s = probe.measure(
        lambda: (importlib.import_module("workloads"), importlib.import_module("tracer"))
    )
    if args.workload not in workloads.INSTANCES:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = workloads.Workload(args.workload, args.seed, Path(tmp))
        workload.prepare()
        builds = [probe.measure(workload.setup)[1:] for _ in range(SETUP_REPEATS)]
        record["setup_raw_s"] = import_raw + statistics.median(raw for raw, _ in builds)
        setup_s = import_s + statistics.median(scaled for _, scaled in builds)
        runner = Runner(workload.ops(), probe)
        if args.trace:
            metrics, tracers = _traced(runner, args.seconds, tracer_module)
            record["layers_self_s"] = [_layer_totals(t) for t in tracers]
            record["updates"] = [t.per_update for t in tracers]
            record["spans"] = [t.spans for t in tracers]
        else:
            metrics = _untraced(runner, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
        runner.audit()

    record["stops"] = {name: sorted(s) for name, s in runner.stops.items()}
    record["samples"] = runner.samples
    record["raw_samples"] = runner.raw
    record["problems"] = runner.problems
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    for problem in runner.problems:
        print(f"run.py: {problem}", file=sys.stderr)

    result = {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
