"""Outside-in span tracing of one exprgg CLI run.

The tracer replaces functions at the module bindings the program looks them
up through (``graphstats.iter_candidate_pairs``, ``cli.emit`` and so on);
patching only the defining module would record nothing, because callers hold
their own reference from ``from .x import y``. Generators are timed per
``next()`` call, so a span never covers the consumer's work between items.

A span is ``(name, start_ns, end_ns, parent, count)``: ``parent`` is the
index of the enclosing span (-1 for the root) and ``count`` is the work the
call did (points sampled, pairs yielded, rows written...). Spans stay in
memory until the run ends. The run must be single-threaded: the open-span
stack is shared by every caller.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, int, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter_ns(), 0, parent, 0))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, count: int) -> None:
        self._stack.pop()
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, int(count))

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(result, args)`` gives the span's count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            done = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    done = count(result, args)
                return result
            finally:
                self._close(idx, done)

        return traced

    def wrap_generator(self, fn: Callable, name: str, count: Callable) -> Callable:
        """A generator whose every ``next()`` is a span counted by ``count(item)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                done = 0
                try:
                    item = next(it)
                    done = count(item)
                except StopIteration:
                    return
                finally:
                    self._close(idx, done)
                yield item

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries an ``experiment`` run crosses."""
    from exprgg import cli, experiments, graphstats

    def layer(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))

    def stream(module, attr, name, count):
        setattr(module, attr, tracer.wrap_generator(getattr(module, attr), name, count))

    layer(cli, "run_experiment", "experiments.run_experiment")
    layer(cli, "emit", "experiments.emit", lambda _, args: len(args[0]))
    layer(cli, "write_manifest", "experiments.write_manifest")
    layer(experiments, "sample_exponential_cloud", "sampling.sample_exponential_cloud",
          lambda cloud, _: cloud.n)
    layer(experiments, "degree_summary", "graphstats.degree_summary",
          lambda summ, _: summ.epsilon_n)
    layer(experiments, "degree_ratios", "graphstats.degree_ratios")
    layer(experiments, "edge_density_gap", "graphstats.edge_density_gap")
    layer(experiments, "build_grid_index", "spatial.build_grid_index",
          lambda index, _: index.n_cells)
    layer(graphstats, "build_grid_index", "spatial.build_grid_index",
          lambda index, _: index.n_cells)
    stream(graphstats, "iter_candidate_pairs", "spatial.iter_candidate_pairs",
           lambda pair: len(pair[0]))
    stream(experiments, "iter_matched_blocks", "spatial.iter_matched_blocks",
           lambda block: len(block[0]) * len(block[1]))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def check_tree(spans: Sequence[Span]) -> List[str]:
    """Problems that would make self times meaningless: a span that ends
    before it starts, sticks out of its parent, or overlaps a sibling."""
    problems = []
    last_child_end: Dict[int, int] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) lies outside its parent {parent}")
        if start < last_child_end.get(parent, start):
            problems.append(f"span {i} ({name}) overlaps an earlier sibling")
        last_child_end[parent] = max(end, last_child_end.get(parent, end))
    return problems


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: busy seconds, self seconds and summed count."""
    selfs = self_times_ns(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        row = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "count": 0})
        row["busy_s"] += (end - start) / 1e9
        row["self_s"] += selfs[i] / 1e9
        row["count"] += count
    return out


# Layers whose self times, with the root's untraced remainder, make up the
# whole traced wall time. A span name missing here breaks that sum.
SELF_TIME_LAYERS = (
    "sampling.self_s", "spatial.index_busy_s", "spatial.pairs_busy_s",
    "spatial.blocks_busy_s", "graphstats.self_s", "experiments.self_s",
    "experiments.emit_s", "experiments.manifest_s",
)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer times and counts of one traced run whose root is ``spans[0]``."""
    by_name = summarize(spans)

    def total(prefix: str, key: str) -> float:
        return sum(row[key] for name, row in by_name.items() if name.startswith(prefix))

    pairs = total("spatial.iter_candidate_pairs", "count")
    edges = total("graphstats.degree_summary", "count")
    root = by_name[spans[0][0]]
    return {
        "sampling.busy_s": total("sampling.", "busy_s"),
        "sampling.self_s": total("sampling.", "self_s"),
        "sampling.points": total("sampling.", "count"),
        "spatial.index_busy_s": total("spatial.build_grid_index", "busy_s"),
        "spatial.cells": total("spatial.build_grid_index", "count"),
        "spatial.pairs_busy_s": total("spatial.iter_candidate_pairs", "busy_s"),
        "spatial.candidate_pairs": pairs,
        "spatial.blocks_busy_s": total("spatial.iter_matched_blocks", "busy_s"),
        "spatial.block_entries": total("spatial.iter_matched_blocks", "count"),
        "graphstats.busy_s": total("graphstats.", "busy_s"),
        "graphstats.self_s": total("graphstats.", "self_s"),
        "graphstats.edges": edges,
        "graphstats.hit_ratio": edges / pairs if pairs else 0.0,
        "experiments.self_s": total("experiments.run_experiment", "self_s"),
        "experiments.emit_s": total("experiments.emit", "busy_s"),
        "experiments.manifest_s": total("experiments.write_manifest", "busy_s"),
        "experiments.rows": total("experiments.emit", "count"),
        "trace.untraced_s": root["self_s"],
        "trace.wall_s": root["busy_s"],
    }


def remainder_gap_s(metrics: Dict[str, float]) -> float:
    """Traced wall time minus (layer self times + untraced remainder); ~0 when
    every span belongs to a reported layer."""
    parts = sum(metrics[name] for name in SELF_TIME_LAYERS) + metrics["trace.untraced_s"]
    return metrics["trace.wall_s"] - parts


def analyse(spans: Sequence[Span]) -> Tuple[Dict[str, float], List[str]]:
    """Layer metrics of one traced run, and what is wrong with its span tree."""
    problems = check_tree(spans)
    metrics = layer_metrics(spans)
    gap = remainder_gap_s(metrics)
    if abs(gap) > 1e-6:
        problems.append(f"layer self times + untraced remainder miss the traced wall by {gap:.3e}s")
    return metrics, problems
