"""Spans and counters around the solver's layers, recorded from outside.

A ``Tracer`` is installed for the length of a traced run.  It replaces a
fixed set of attributes in the consumer modules ``fmdp.api``,
``fmdp.weights``, ``fmdp.error`` and ``fmdp.cli`` with wrappers that
record one span per call (name, start, end, parent, request id) and read
the counters the callee already exposes (``solve_lp``'s ``stats``,
``update_weights``'s ``trace``).  Leaving the context restores every
attribute, so nothing under ``src/`` changes and an untraced run pays
nothing.

Modules are looked up with ``importlib.import_module``: ``fmdp.api``
written as an attribute is the re-exported ``api`` function, not the
module.

Span names are ``<layer>.<what>`` with the layer named after the package
module doing the work.  A span's self time is its duration minus the
durations of its direct children; the per-layer metrics are sums of these.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from fractions import Fraction
from typing import Any, Callable, Iterable

__all__ = ["Tracer", "max_bits"]


def max_bits(values: Iterable[Fraction]) -> int:
    """Largest numerator or denominator bit length among ``values``."""
    best = 0
    for q in values:
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """In-memory span recorder that patches the solver's layer boundaries.

    ``spans`` holds ``[name, start, end, parent, request]`` lists in start
    order; ``parent`` is an index into ``spans`` or ``None``.  ``counters``
    holds the layer counters; ``maxima`` the counters that keep a maximum.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.per_update: list[dict] = []
        self.request: str | None = None
        self._final_certificate = None
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._after_assemble = False

    def note_result(self, result) -> None:
        """Fold an ``ApiResult`` and the certificate of its last weight fit
        into ``values.max_bits``; call it outside every span."""
        self.counters["api.iterations"] += len(result.phi_history)
        sources = [result.w, result.phi_history, (result.err,)]
        if self._final_certificate is not None:
            sources += [self._final_certificate.primal, self._final_certificate.dual]
            self._final_certificate = None
        for values in sources:
            self.note_bits(values)

    def note_bits(self, values: Iterable[Fraction]) -> None:
        self.maxima["values.max_bits"] = max(self.maxima["values.max_bits"], max_bits(values))

    # -- spans ----------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.request]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over every span of that name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def total_seconds(self) -> dict[str, float]:
        """Inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    # -- patching -------------------------------------------------------

    def _wrap(self, module_name: str, attr: str, name, before=None, after=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            result = tracer.call(span_name, original, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        self._install()
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _install(self) -> None:
        count, peak = self.counters, self.maxima

        def with_stats(args, kwargs):
            if len(args) < 2 and kwargs.get("stats") is None:
                kwargs["stats"] = {}

        def stats_of(args, kwargs) -> dict:
            return args[1] if len(args) > 1 else kwargs["stats"]

        def master_solved(args, kwargs, cert):
            std, stats = args[0], stats_of(args, kwargs)
            count["simplex.master_solves"] += 1
            count["simplex.master_pivots"] += stats["pivots"]
            peak["simplex.master_rows_max"] = max(peak["simplex.master_rows_max"], std.num_rows)
            peak["simplex.master_cols_max"] = max(peak["simplex.master_cols_max"], std.num_cols)

        def explicit_solved(args, kwargs, cert):
            count["simplex.explicit_pivots"] += stats_of(args, kwargs)["pivots"]
            self.note_bits(cert.primal)
            self.note_bits(cert.dual)

        def with_update_trace(args, kwargs):
            self._after_assemble = False
            if kwargs.get("trace") is None:
                kwargs["trace"] = {}

        def updated(args, kwargs, result):
            step = kwargs["trace"]
            count["weights.cut_rounds"] += step["rounds"]
            count["weights.cuts"] += step["cuts"]
            count["weights.box_growths"] += step["box_growths"]
            peak["lpbuild.rows"] = max(peak["lpbuild.rows"], step["lp_rows"])
            peak["lpbuild.cols"] = max(peak["lpbuild.cols"], step["lp_cols"])
            self.per_update.append(
                {k: step[k] for k in ("rounds", "cuts", "box_growths", "lp_rows", "lp_cols")}
            )
            self._final_certificate = step["certificate"]

        def blocks_built(args, kwargs, blocks):
            # A round's table spans the eliminated variable and the scope of
            # its replacement: every entry the round maximizes over.
            dims = args[0].dims
            for block in blocks:
                for rnd in block.rounds:
                    size = dims[rnd.var]
                    for v in rnd.scope_e:
                        size *= dims[v]
                    peak["elim.max_table"] = max(peak["elim.max_table"], size)

        def assembled(args, kwargs, lp):
            self._after_assemble = True

        def greedy(args, kwargs, pol):
            peak["policy.branches"] = max(peak["policy.branches"], len(pol))

        def priced(args, kwargs, result):
            count["elim.pricing_calls"] += 1

        def certify_name(args, kwargs):
            return "certify.full" if self._after_assemble else "certify.master"

        for module in ("fmdp.api", "fmdp.cli"):
            self._wrap(module, "update_weights", "weights.update", with_update_trace, updated)
            self._wrap(module, "greedy_decision_list", "policy.greedy", after=greedy)
            self._wrap(module, "factored_bellman_err", "error.bellman")
        self._wrap("fmdp.api", "optimal_value", "oracle.optimal_value")
        self._wrap("fmdp.weights", "weight_lp_blocks", "lpbuild.blocks", after=blocks_built)
        self._wrap("fmdp.weights", "assemble_lp", "lpbuild.assemble", after=assembled)
        self._wrap("fmdp.weights", "to_standard_form", "lp.stdform")
        self._wrap("fmdp.weights", "solve_lp", "simplex.master", with_stats, master_solved)
        self._wrap("fmdp.weights", "check_optimality", certify_name)
        self._wrap("fmdp.weights", "max_sum_decode", "elim.pricing", after=priced)
        self._wrap("fmdp.error", "max_sum", "elim.maxsum")
        self._wrap("fmdp.cli", "api", "api.solve", after=lambda a, k, res: self.note_result(res))
        self._wrap("fmdp.cli", "posterior_bound", "api.posterior_bound")
        self._wrap("fmdp.cli", "solve_lp", "simplex.explicit", with_stats, explicit_solved)
        self._wrap("fmdp.cli", "to_standard_form", "lp.stdform")
        self._wrap("fmdp.cli", "enumerate_states", "oracle.states")
        self._wrap("fmdp.cli", "explicit_q", "oracle.q")
        self._wrap("fmdp.cli", "explicit_bellman_err", "oracle.bellman")
        self._wrap("fmdp.cli", "explicit_weight_lp", "oracle.explicit_lp")
