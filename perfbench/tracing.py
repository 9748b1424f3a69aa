"""Span tracer for the benchmark's traced runs.

The tracer wraps public library functions at the module attributes their
callers look them up through (``uasim.montecarlo.sample_deltas``,
``uasim.cli.grid_estimates``, ...), so the program is not edited.  Spans are
kept in memory as ``[span_id, parent_id, name, start, end, attrs]`` and
written out when the run ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

import uasim.averaging
import uasim.cli
import uasim.formulas
import uasim.ftregion
import uasim.montecarlo


class Tracer:
    """Records nested spans while ``active``; passes calls through otherwise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.active = False
        self._stack: list[list] = []

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, attrs]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """Traced stand-in for ``fn``; ``describe(args, kwargs, result)``
        returns the span's attributes and runs after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span[5] = describe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), describe))

    def install(self) -> None:
        """Wrap every measured cross-module call site of the library."""
        mc, cli = uasim.montecarlo, uasim.cli
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "grid_estimates", "montecarlo.grid_estimates")
        self.patch(cli, "discriminate", "montecarlo.discriminate")
        self.patch(cli, "estimate_fusion", "montecarlo.estimate_fusion",
                   _estimator_attrs(mc.estimate_fusion))
        self.patch(cli, "encoder_error_scaling", "averaging.encoder_error_scaling")
        self.patch(cli, "sweep_region", "ftregion.sweep_region",
                   lambda a, k, result: {"points": len(result)})
        self.patch(cli, "load_synthetic_curve", "ftregion.load_synthetic_curve")
        self.patch(cli, "logical_success_prob", "parity.logical_success_prob")
        self.patch(mc, "estimate_fidelity", "montecarlo.estimate_fidelity",
                   _estimator_attrs(mc.estimate_fidelity))
        self.patch(mc, "estimate_end_to_end", "montecarlo.estimate_end_to_end",
                   _estimator_attrs(mc.estimate_end_to_end))
        for owner in (mc, uasim.averaging):
            self.patch(owner, "sample_deltas", "gates.sample_deltas", _delta_attrs)
        self.patch(mc, "build_tree", "averaging.build_tree",
                   lambda a, k, result: {"N": len(a[0])})
        self.patch(mc, "success_branch", "averaging.success_branch")
        # Formulas are reached through the module (cli: ``formulas.X``), by
        # imported name, and through the CLI's formula table built at import.
        for attr in uasim.formulas.__all__:
            if callable(getattr(uasim.formulas, attr)):
                self.patch(uasim.formulas, attr, f"formulas.{attr}")
        self.patch(mc, "success_prob_single", "formulas.success_prob_single")
        self.patch(uasim.ftregion, "effective_rates", "formulas.effective_rates")
        table = cli._FORMULAS
        for key, (func, variants) in list(table.items()):
            table[key] = (self.wrap(f"formulas.{func.__name__}", func), variants)


def _estimator_attrs(fn):
    sig = inspect.signature(fn)

    def describe(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return {
            "N": a["num_copies"],
            "samples": a["samples"],
            "chunks": math.ceil(a["samples"] / a["chunk_size"]),
        }

    return describe


def _delta_attrs(args, kwargs, result):
    return {"kind": args[0].kind, "deltas": int(result.size)}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            covered[span[1]] += span[4] - span[3]
    return [span[4] - span[3] - covered[i] for i, span in enumerate(spans)]


MC_ESTIMATORS = (
    "montecarlo.grid_estimates",
    "montecarlo.estimate_fidelity",
    "montecarlo.estimate_fusion",
    "montecarlo.estimate_end_to_end",
)


def layer_metrics(spans, selfs, first_pass, traced_passes, pass_bytes_out) -> dict:
    """Per-layer metrics from the spans of every traced pass.

    Times are seconds per traced pass (or rates over all of them); counts come
    from the first traced pass alone, ``first_pass`` being its slice of
    ``spans``, so they repeat exactly for a given seed.
    """
    self_by = defaultdict(float)
    for span, s in zip(spans, selfs):
        self_by[span[2]] += s
    by_span = dict(self_by)

    def per_pass(total):
        return total / traced_passes

    def rate(name, key, group, scale, denom_key=None):
        """Inclusive time per unit of ``denom_key`` (or per call), by group."""
        time_, units = defaultdict(float), defaultdict(float)
        for span in spans:
            if span[2] == name:
                g = span[5][key]
                time_[g] += span[4] - span[3]
                units[g] += span[5][denom_key] if denom_key else 1
        return {g: scale * time_[g] / units[g] if units[g] else 0.0 for g in group}

    m = {}
    m["gates.sample_deltas.self_s"] = per_pass(self_by["gates.sample_deltas"])
    for kind, value in rate("gates.sample_deltas", "kind", ("gaussian", "four-moment"),
                            1e9, "deltas").items():
        m[f"gates.sample_deltas.{kind}.ns_per_delta"] = value
    m["montecarlo.self_s"] = per_pass(sum(self_by[n] for n in MC_ESTIMATORS))
    for N, value in rate("montecarlo.estimate_fidelity", "N", (2, 4, 8, 16),
                         1e9, "samples").items():
        m[f"montecarlo.single.N{N}.ns_per_sample"] = value
    for N, value in rate("montecarlo.estimate_fusion", "N", (1, 2, 4, 8),
                         1e9, "samples").items():
        m[f"montecarlo.fusion.N{N}.ns_per_sample"] = value
    m["montecarlo.discriminate.self_s"] = per_pass(self_by["montecarlo.discriminate"])
    m["averaging.build_tree.self_s"] = per_pass(self_by["averaging.build_tree"])
    for N, value in rate("averaging.build_tree", "N", (2, 4, 8), 1e6).items():
        m[f"averaging.build_tree.N{N}.us_per_call"] = value
    m["averaging.success_branch.self_s"] = per_pass(self_by["averaging.success_branch"])
    m["averaging.encoder_error_scaling.self_s"] = per_pass(
        self_by["averaging.encoder_error_scaling"])
    m["formulas.self_s"] = per_pass(
        sum(v for k, v in self_by.items() if k.startswith("formulas.")))
    m["ftregion.sweep_region.self_s"] = per_pass(self_by["ftregion.sweep_region"])
    m["ftregion.load_synthetic_curve.self_s"] = per_pass(
        self_by["ftregion.load_synthetic_curve"])
    m["parity.logical_success_prob.self_s"] = per_pass(
        self_by["parity.logical_success_prob"])
    m["cli.self_s"] = per_pass(self_by["cli.main"])

    # exact counts, first traced pass only
    counts = defaultdict(int)
    for span in first_pass:
        name, attrs = span[2], span[5]
        counts[name + ".calls"] += 1
        if name == "gates.sample_deltas":
            counts[f"deltas.{attrs['kind']}"] += attrs["deltas"]
        elif name in MC_ESTIMATORS and attrs:
            counts["chunks"] += attrs["chunks"]
            counts["points"] += 1
        elif name == "ftregion.sweep_region":
            counts["sweep_points"] += attrs["points"]
        elif name.startswith("formulas."):
            counts["formulas"] += 1
    deltas = counts["deltas.gaussian"] + counts["deltas.four-moment"] + counts["deltas.uniform"]
    m["gates.sample_deltas.deltas"] = deltas
    m["gates.sample_deltas.gaussian.deltas"] = counts["deltas.gaussian"]
    m["gates.sample_deltas.four-moment.deltas"] = counts["deltas.four-moment"]
    m["gates.sample_deltas.bytes_out"] = 8 * deltas  # computed: one float64 per delta
    m["montecarlo.chunks"] = counts["chunks"]
    m["montecarlo.points"] = counts["points"]
    m["averaging.build_tree.calls"] = counts["averaging.build_tree.calls"]
    m["formulas.calls"] = counts["formulas"]
    m["ftregion.sweep_region.points"] = counts["sweep_points"]
    m["cli.calls"] = counts["cli.main.calls"]
    m["cli.bytes_out"] = pass_bytes_out
    return m, by_span
