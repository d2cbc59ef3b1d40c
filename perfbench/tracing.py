"""Per-layer tracing from outside the program.

`install` wraps the public functions of each cesarobench module where
their callers look them up (for example both `operators.moment_sequence`
and `measures.moment`), so no file under src/ changes.  Each wrapper
records a call count, extra counts taken from its arguments or result,
and self time: the call's duration minus the time of the wrapped calls it
made.  Calls above the per-element level also keep a span (id, parent id,
name, start, end) in memory; the whole trace is written out at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from cesarobench import analysis, cli, measures, operators, spaces, specfun

# Per-layer metrics in BENCHMARK.json, with their units.  `.s` is self time.
METRICS = {
    "measures.moment.calls": "count",
    "measures.moment.s": "s",
    "measures.moment_sequence.calls": "count",
    "measures.moment_sequence.terms": "count",
    "measures.moment_sequence.s": "s",
    "specfun.log_beta.calls": "count",
    "operators.SectionOp.builds": "count",
    "operators.SectionOp.s": "s",
    "operators.section_norm.dense_svd.calls": "count",
    "operators.section_norm.dense_svd.s": "s",
    "operators.section_norm.power_iteration.calls": "count",
    "operators.section_norm.power_iteration.iterations": "count",
    "operators.section_norm.power_iteration.s": "s",
    "analysis.classify_carleson.s": "s",
    "analysis.classify_moments.s": "s",
    "analysis.classify_boundedness.s": "s",
    "analysis.classify_compactness.s": "s",
    "analysis.reports.s": "s",
    "analysis.reports.bytes": "B",
    "measures.tail_values.calls": "count",
    "measures.tail_values.points": "count",
    "measures.tail_values.s": "s",
    "measures.moment_by_parts.calls": "count",
    "measures.moment_by_parts.s": "s",
    "operators.apply.calls": "count",
    "operators.apply.s": "s",
    "spaces.norm.calls": "count",
    "spaces.norm.s": "s",
    "analysis.prop1_bound_check.s": "s",
    "analysis.est_ratio_check.s": "s",
    "cli.panel_setup.s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # [span id, child time] per open call
        self._next_id = 0
        self._leaves: list[tuple[str, list]] = []
        self._origin = time.perf_counter()

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.totals[name + ".s"] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((frame[0], parent, name, start - self._origin, end - self._origin))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, start, time.perf_counter())

    def timed(self, name: str, fn, counts=None, label_of=None):
        """Wrap fn.  `counts` returns {suffix: amount} from (args, result);
        `label_of` renames a successful call from its result."""
        totals = self.totals

        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, name, start, time.perf_counter())
                raise
            end = time.perf_counter()
            label = name if label_of is None else label_of(result)
            self._exit(frame, label, start, end)
            if counts is not None:
                for suffix, amount in counts(args, result).items():
                    totals[f"{label}.{suffix}"] += amount
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a per-element function that calls no timed function: keeps
        only its call count and time, with the least cost per call."""
        totals, stack, clock = self.totals, self._stack, time.perf_counter
        acc = [0, 0.0]
        self._leaves.append((name, acc))

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            acc[0] += 1
            acc[1] += duration
            if stack:
                stack[-1][1] += duration
            return result

        return wrapper

    def counted(self, name: str, fn):
        totals = self.totals
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            totals[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fold_leaves(self) -> None:
        for name, acc in self._leaves:
            self.totals[name + ".calls"] += acc[0]
            self.totals[name + ".s"] += acc[1]
            acc[:] = [0, 0.0]

    def metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round."""
        self._fold_leaves()
        return {name: self.totals.get(name, 0.0) / rounds for name in METRICS}

    def write(self, path: Path, extra: dict) -> None:
        self._fold_leaves()
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["totals"] = dict(sorted(self.totals.items()))
        doc["spans"] = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "rows": self.spans,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _calls(args, result) -> dict:
    return {"calls": 1}


def install(tracer: Tracer) -> None:
    """Wrap the program's functions for the rest of this process."""

    def patch(modules, attr, wrapper):
        for module in modules:
            setattr(module, attr, wrapper)

    # Per-element calls keep no span: a verify round makes millions.
    patch([measures, analysis, cli], "moment", tracer.leaf("measures.moment", measures.moment))
    patch([specfun], "log_beta", tracer.counted("specfun.log_beta", specfun.log_beta))

    patch([measures, operators], "moment_sequence", tracer.timed(
        "measures.moment_sequence", measures.moment_sequence,
        lambda args, result: {"calls": 1, "terms": len(result)},
    ))
    # truncate and tail_section rebuild through dataclasses.replace, which
    # calls the class directly, so the build itself is wrapped.
    operators.SectionOp.__post_init__ = tracer.timed(
        "operators.SectionOp", operators.SectionOp.__post_init__,
        lambda args, result: {"builds": 1},
    )

    def norm_counts(args, est):
        if est.method == "power_iteration":
            return {"calls": 1, "iterations": est.iterations}
        return {"calls": 1}

    patch([operators, analysis], "section_norm", tracer.timed(
        "operators.section_norm", operators.section_norm, norm_counts,
        label_of=lambda est: f"operators.section_norm.{est.method}",
    ))
    for name in ("classify_carleson", "classify_moments",
                 "classify_boundedness", "classify_compactness"):
        patch([analysis], name, tracer.timed(f"analysis.{name}", getattr(analysis, name)))
    for name in ("reports_to_json", "reports_to_csv"):
        patch([cli], name, tracer.timed(
            "analysis.reports", getattr(analysis, name),
            lambda args, text: {"bytes": len(text.encode("utf-8"))},
        ))
    patch([measures], "tail_values", tracer.timed(
        "measures.tail_values", measures.tail_values,
        lambda args, result: {"calls": 1, "points": result.size},
    ))
    patch([measures, cli], "moment_by_parts",
          tracer.timed("measures.moment_by_parts", measures.moment_by_parts, _calls))
    patch([operators], "apply", tracer.timed("operators.apply", operators.apply, _calls))
    patch([spaces], "norm", tracer.timed("spaces.norm", spaces.norm, _calls))
    for name in ("prop1_bound_check", "est_ratio_check"):
        patch([analysis], name, tracer.timed(f"analysis.{name}", getattr(analysis, name)))
    for name in ("load_config", "build_panel", "parse_measure"):
        patch([cli], name, tracer.timed("cli.panel_setup", getattr(cli, name)))
