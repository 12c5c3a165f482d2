"""Seeded Monte Carlo suites confronting empirical graph statistics with the
closed-form laws, emitting machine-readable tables plus a run manifest.

Replications are independent jobs seeded by derive_replication_seed(base_seed,
global_counter), so a table is byte-identical across runs and across any
worker count; rows are always ordered by (n, replication).
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, get_args, get_type_hints,
)

import numpy as np

from ._version import __version__ as ARTIFACT_VERSION
from .model import (
    BOUND_NAMES,
    DegreeSummary,
    EdgeDistanceFamily,
    LogRegime,
    PointCloud,
    PowerFamily,
    TextFile,
    TheoryBounds,
    _check_dim,
    _check_int,
    _check_rate,
    _check_seed,
    _number,
    _pow_or_inf,
    fmt17,
    read_text,
    write_text,
)
from .graphstats import _edge_counts_multi, degree_ratios, degree_summary, edge_density_gap
from .sampling import derive_replication_seed, sample_exponential_cloud
from .spatial import build_grid_index, iter_matched_blocks  # unused; bench tracing patches them
from .theory import (
    containment_radius,
    edge_distance,
    pair_connect_prob,
    series_classifier,
    theory_bounds,
)

ARTIFACT_NAME = "exprgg"

DEFAULT_Y_GRID = tuple(i / 20 for i in range(1, 21))  # 0.05, 0.10, ..., 1.00

# JSON and table name of each field whose Python name differs ("lambda" is
# reserved in Python); every other field keeps its name.
_WIRE_NAMES = {"lam": "lambda"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: which law to probe, at which sizes, how many seeded reps."""

    kind: str
    n_list: Tuple[int, ...]
    d: int
    lam: float
    replications: int
    base_seed: int
    family: Optional[EdgeDistanceFamily] = None
    y_grid: Optional[Tuple[float, ...]] = None
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        kind = EXPERIMENT_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.n_list, (list, tuple, np.ndarray)):
            raise ValueError(f"n_list must be a list of integers, got {self.n_list!r}")
        n_list = tuple(_check_int(n, "every n in n_list") for n in self.n_list)
        if not n_list:
            raise ValueError("n_list must be nonempty")
        if any(n < 2 for n in n_list):
            raise ValueError("every n must be >= 2")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got {n_list}")
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "d", _check_dim(self.d))
        object.__setattr__(self, "lam", _check_rate(self.lam))
        object.__setattr__(self, "replications", _check_int(self.replications, "replications"))
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "base_seed", _check_seed(self.base_seed, "base_seed"))
        if kind.families:
            if not isinstance(self.family, kind.families):
                names = " or ".join(f.__name__ for f in kind.families)
                raise ValueError(f"{self.kind} requires a {names} family")
        elif self.family is not None:
            raise ValueError(f"{self.kind} does not take an edge-distance family")
        if self.family is not None:
            if self.family.lam != self.lam or self.family.d != self.d:
                raise ValueError("family (lam, d) must match the spec's (lam, d)")
        if kind.y_grid:
            grid = () if self.y_grid is None else self.y_grid
            if not isinstance(grid, (list, tuple, np.ndarray)) or not all(
                isinstance(y, numbers.Real) and not isinstance(y, bool) for y in grid
            ):
                raise ValueError(f"y_grid must be a list of numbers, got {self.y_grid!r}")
            grid = tuple(map(float, grid))
            if not grid:
                raise ValueError(f"{self.kind} requires a nonempty y_grid")
            if any(not 0.0 <= y <= 1.0 for y in grid):
                raise ValueError("y_grid values must lie in [0, 1]")
            if any(b <= a for a, b in zip(grid, grid[1:])) or grid[-1] <= 0.0:
                raise ValueError("y_grid must be strictly increasing with max > 0")
            object.__setattr__(self, "y_grid", grid)
        elif self.y_grid is not None:
            raise ValueError(f"{self.kind} does not take a y_grid")
        if kind.epsilon:
            if self.epsilon is None or not self.epsilon >= 0.0:
                raise ValueError(f"{self.kind} requires epsilon >= 0")
            object.__setattr__(self, "epsilon", _number(self.epsilon, "epsilon"))
        elif self.epsilon is not None:
            raise ValueError(f"{self.kind} does not take epsilon")
        kind.theory(self)  # a spec is valid when its kind's theory block builds


@dataclass(frozen=True)
class ResultRow:
    """One replication's outcome, one field per table column in column order;
    fields that are not meaningful for the experiment kind stay None and are
    emitted blank, never zero-filled."""

    experiment: str
    n: int
    d: int
    lam: float
    family: Optional[str]
    param1: Optional[float]
    param2: Optional[float]
    replication: int
    seed: int
    y_n: Optional[float] = None
    epsilon_n: Optional[int] = None
    min_degree: Optional[int] = None
    max_degree: Optional[int] = None
    min_ratio: Optional[float] = None
    max_ratio: Optional[float] = None
    p_y: Optional[float] = None
    gap: Optional[float] = None
    contained: Optional[bool] = None
    has_edge: Optional[bool] = None


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
CSV_COLUMNS = tuple(_WIRE_NAMES.get(name, name) for name in _ROW_FIELDS)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: List[ResultRow]
    summaries: List[dict]
    theory: dict = field(default_factory=dict)


def _family_columns(family: Optional[EdgeDistanceFamily]):
    if isinstance(family, LogRegime):
        return "log", family.c, None
    if isinstance(family, PowerFamily):
        return "power", family.alpha, family.beta
    return None, None, None


def _graph_columns(spec: ExperimentSpec, cloud: PointCloud, own) -> dict:
    """Columns of a graph kind: the degree summary of G_n(y_n) is computed
    once, and ``own(spec, summary, y_n)`` adds the kind's columns."""
    y = edge_distance(spec.family, cloud.n)
    summ = degree_summary(cloud, y)
    return dict(
        y_n=y, epsilon_n=summ.epsilon_n, p_y=pair_connect_prob(y, spec.lam, spec.d),
        **own(spec, summ, y),
    )


def _degree_law_columns(spec: ExperimentSpec, summ: DegreeSummary, y: float) -> dict:
    min_ratio, max_ratio = degree_ratios(summ, y, spec.d)
    return dict(
        min_degree=summ.min_degree, max_degree=summ.max_degree,
        min_ratio=min_ratio, max_ratio=max_ratio,
    )


def _edge_slln_columns(spec: ExperimentSpec, summ: DegreeSummary, y: float) -> dict:
    return dict(gap=edge_density_gap(summ, y, spec.lam, spec.d))


def _threshold_columns(spec: ExperimentSpec, summ: DegreeSummary, y: float) -> dict:
    return dict(max_degree=summ.max_degree, has_edge=summ.epsilon_n >= 1)


def _uniform_columns(spec: ExperimentSpec, cloud: PointCloud) -> dict:
    n = cloud.n
    ys = np.asarray(spec.y_grid, dtype=np.float64)
    density = _edge_counts_multi(cloud, ys) / (n * (n - 1) / 2)
    p = np.array([pair_connect_prob(y, spec.lam, spec.d) for y in ys])
    return dict(gap=float(np.max(np.abs(density - p))))


def _containment_columns(spec: ExperimentSpec, cloud: PointCloud) -> dict:
    radius = containment_radius(cloud.n, spec.lam, spec.d, spec.epsilon)
    return dict(contained=bool(cloud.points.max() <= radius))


def _summary_head(rows: List[ResultRow], *columns: str) -> dict:
    """The opening keys of a per-n summary: n, the first row's ``columns``, the row count."""
    return {"n": rows[0].n, **{c: getattr(rows[0], c) for c in columns}, "replications": len(rows)}


def _stats(rows: List[ResultRow], column: str) -> dict:
    """The mean, sd, min, max and spread of one column over n's rows."""
    v = np.array([getattr(r, column) for r in rows])
    stats = dict(mean=v.mean(), sd=v.std(), min=v.min(), max=v.max(), spread=v.max() - v.min())
    return {f"{stat}_{column}": float(x) for stat, x in stats.items()}


def _summary_degree_law(spec: ExperimentSpec, rows: List[ResultRow], theory: dict) -> dict:
    return {
        **_summary_head(rows, "y_n"),
        **_stats(rows, "min_ratio"), **_stats(rows, "max_ratio"),
        # The five bounds of the theory block, the same at every n.
        **{k: v for k, v in theory.items() if k.endswith(("_bound", "_envelope"))},
    }


def _summary_edge_slln(spec: ExperimentSpec, rows: List[ResultRow], theory: dict) -> dict:
    gaps = np.array([r.gap for r in rows])
    p = rows[0].p_y
    return {
        **_summary_head(rows, "y_n", "p_y"),
        "mean_gap": float(gaps.mean()),
        "mean_relative_gap": float(gaps.mean() / p) if p > 0 else None,
    }


def _summary_uniform(spec: ExperimentSpec, rows: List[ResultRow], theory: dict) -> dict:
    sups = np.array([r.gap for r in rows])
    return {
        **_summary_head(rows),
        "mean_sup_gap": float(sups.mean()),
        "max_sup_gap": float(sups.max()),
    }


def _summary_containment(spec: ExperimentSpec, rows: List[ResultRow], theory: dict) -> dict:
    n = rows[0].n
    return {
        **_summary_head(rows),
        "radius": containment_radius(n, spec.lam, spec.d, spec.epsilon),
        "epsilon": spec.epsilon,
        "containment_frequency": sum(1 for r in rows if r.contained) / len(rows),
        "predicted_escape_bound": theory["predicted_escape_bounds"][str(n)],
    }


def _summary_threshold(spec: ExperimentSpec, rows: List[ResultRow], theory: dict) -> dict:
    return {
        **_summary_head(rows, "y_n", "p_y"),
        "expected_edges": theory["first_moment_expected_edges"][str(rows[0].n)],
        "edge_frequency": sum(1 for r in rows if r.has_edge) / len(rows),
    }


def _theory_degree_law(spec: ExperimentSpec) -> dict:
    """The BOUND_NAMES bounds and the envelope (2 lam)^d, refused if infinite. The ratios
    divide by n * y_n^d, so a c at which it or y_n is not finite and positive is refused."""
    tb = theory_bounds(spec.family.c, spec.lam, spec.d)
    for n in spec.n_list:
        y = edge_distance(spec.family, n)
        scale = n * _pow_or_inf(y, spec.d)
        if not (0.0 < y < math.inf and 0.0 < scale < math.inf):
            raise ValueError(
                f"{spec.kind} needs a finite c with y_n and n * y_n^d finite and "
                f"positive: at n = {n}, c = {spec.family.c} gives y_n = {y}, "
                f"n * y_n^d = {scale}"
            )
    envelope = _pow_or_inf(2.0 * spec.lam, spec.d)
    if envelope == math.inf:
        raise ValueError(f"(2 lambda)^d must be finite, got lambda={spec.lam}, d={spec.d}")
    theory = {}
    for name in BOUND_NAMES:
        theory[name] = getattr(tb, name)
        if name == "min_limsup_bound":
            theory["min_limsup_envelope"] = envelope
    return theory


def _theory_containment(spec: ExperimentSpec) -> dict:
    for n in spec.n_list:
        containment_radius(n, spec.lam, spec.d, spec.epsilon)  # refuses an infinite radius
    return {
        "predicted_escape_bounds": {
            str(n): min(1.0, spec.d * float(n) ** -spec.epsilon) for n in spec.n_list
        }
    }


def _theory_threshold(spec: ExperimentSpec) -> dict:
    return {
        "series": series_classifier(spec.family),
        "first_moment_expected_edges": {
            str(n): n * (n - 1) / 2
            * pair_connect_prob(edge_distance(spec.family, n), spec.lam, spec.d)
            for n in spec.n_list
        },
    }


@dataclass(frozen=True)
class ExperimentKind:
    """One experiment kind: its own row columns for a sampled cloud, the summary of one
    n's rows given the theory block, and the manifest's theory block; plus the spec
    parameters it takes (accepted family types, none if empty; a y-grid; an escape
    exponent epsilon). A spec is valid when its theory block builds, so that is where
    a kind refuses the parameters its laws cannot use."""

    columns: Callable[[ExperimentSpec, PointCloud], dict]
    summary: Callable[[ExperimentSpec, List[ResultRow], dict], dict]
    theory: Callable[[ExperimentSpec], dict]
    families: Tuple[type, ...] = ()
    y_grid: bool = False
    epsilon: bool = False


EXPERIMENT_KINDS: Dict[str, ExperimentKind] = {
    "degree-law": ExperimentKind(
        partial(_graph_columns, own=_degree_law_columns), _summary_degree_law,
        _theory_degree_law, families=(LogRegime,),
    ),
    "edge-slln": ExperimentKind(
        partial(_graph_columns, own=_edge_slln_columns), _summary_edge_slln,
        lambda spec: {}, families=(LogRegime,),
    ),
    "uniform-slln": ExperimentKind(
        _uniform_columns, _summary_uniform, lambda spec: {"y_grid": list(spec.y_grid)},
        y_grid=True,
    ),
    "containment": ExperimentKind(
        _containment_columns, _summary_containment, _theory_containment, epsilon=True,
    ),
    "threshold": ExperimentKind(
        partial(_graph_columns, own=_threshold_columns), _summary_threshold,
        _theory_threshold, families=(LogRegime, PowerFamily),
    ),
}

KINDS = tuple(EXPERIMENT_KINDS)


def _run_replication(spec: ExperimentSpec, i_n: int, rep: int) -> ResultRow:
    """One seeded job: sample the cloud and fill the shared and kind columns."""
    n = spec.n_list[i_n]
    seed = derive_replication_seed(spec.base_seed, i_n * spec.replications + rep)
    cloud = sample_exponential_cloud(n, spec.d, spec.lam, seed)
    tag, p1, p2 = _family_columns(spec.family)
    return ResultRow(
        experiment=spec.kind, n=n, d=spec.d, lam=spec.lam,
        family=tag, param1=p1, param2=p2, replication=rep, seed=seed,
        **EXPERIMENT_KINDS[spec.kind].columns(spec, cloud),
    )


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return threads if threads > 0 else (os.cpu_count() or 1)


def run_experiment(
    spec: ExperimentSpec,
    threads: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> ExperimentResult:
    """Run every (n, replication) job of ``spec`` and summarize per n.

    ``threads`` parallelizes the replications of each n; the result is
    independent of the worker count. ``progress`` receives one line per n,
    with its wall time and replications per second.
    """
    workers = _resolve_threads(threads)
    kind = EXPERIMENT_KINDS[spec.kind]
    theory = kind.theory(spec)
    per_n: List[List[ResultRow]] = []
    for i_n, n in enumerate(spec.n_list):
        started = time.perf_counter()
        job = partial(_run_replication, spec, i_n)
        reps = range(spec.replications)
        if workers > 1 and spec.replications > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(job, reps))
        else:
            rows = [job(rep) for rep in reps]
        per_n.append(rows)
        if progress is not None:
            elapsed = time.perf_counter() - started
            progress(f"[{spec.kind}] n={n}: {spec.replications} replication(s) done in "
                     f"{elapsed:.3f} s ({spec.replications / elapsed:.1f} reps/s)")
    return ExperimentResult(
        spec=spec,
        rows=[row for rows in per_n for row in rows],
        summaries=[kind.summary(spec, rows, theory) for rows in per_n],
        theory=theory,
    )


# ---------------------------------------------------------------------------
# Table emission and parsing
# ---------------------------------------------------------------------------

def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt17(v)
    return str(v)


def _json_cell(v) -> str:
    """A JSON literal: numbers as in the CSV table, anything else (null,
    booleans, strings, lists, a non-finite float) through to_jsonable."""
    if isinstance(v, (int, float, np.integer)) and not isinstance(v, bool) and math.isfinite(v):
        return _csv_cell(v)
    return json.dumps(to_jsonable(v))


def _json_object(items) -> str:
    """A one-line JSON object of (key, cell value) items."""
    return "{" + ", ".join(f"{json.dumps(k)}: {_json_cell(v)}" for k, v in items) + "}"


def _row_items(row: ResultRow):
    return zip(CSV_COLUMNS, (getattr(row, name) for name in _ROW_FIELDS))


def _render_csv(table: Sequence[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in table:
        lines.append(",".join(_csv_cell(v) for _, v in _row_items(row)))
    return "\n".join(lines) + "\n"


def _render_json(table: Sequence[ResultRow]) -> str:
    body = ["  " + _json_object(_row_items(row)) for row in table]
    return "[\n" + ",\n".join(body) + "\n]\n"


def render_table(table: Sequence[ResultRow], fmt: str) -> str:
    if not table:
        raise ValueError("refusing to emit an empty table")
    if fmt == "csv":
        return _render_csv(table)
    if fmt == "json":
        return _render_json(table)
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def emit(table: Sequence[ResultRow], fmt: str, destination: TextFile) -> None:
    """Write ``table`` as CSV or JSON (fixed column set, 17-digit floats)."""
    write_text(destination, render_table(table, fmt), "table")


def _scalar_type(hint) -> type:
    """The type a field holds when not None: a table row's int, float, bool
    or str, or any other type hint, taken whole."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


_ROW_HINTS = get_type_hints(ResultRow)
_COLUMN_TYPES = {
    col: _scalar_type(_ROW_HINTS[name]) for col, name in zip(CSV_COLUMNS, _ROW_FIELDS)
}


# What the writer puts in a JSON cell of each column type, besides null: a
# float column's non-finite values are the strings _NON_FINITE.
_JSON_CELLS = {
    int: ("an integer", int), float: ("a number or 'inf', '-inf' or 'nan'", (int, float)),
    str: ("a string", str), bool: ("a boolean", bool),
}
_NON_FINITE = ("inf", "-inf", "nan")


def _parse_cell(column: str, raw, from_json: bool = False):
    """A CSV cell's text, or a JSON cell's value, as its column's type; None
    for a blank CSV cell or a JSON null."""
    if raw is None or raw == "" and not from_json:
        return None
    kind = _COLUMN_TYPES[column]
    if isinstance(raw, bool) and kind is not bool:
        raise ValueError(f"boolean {raw!r} in column {column}, which holds no booleans")
    what, types = _JSON_CELLS[kind]
    if from_json and not (isinstance(raw, types) or kind is float and raw in _NON_FINITE):
        raise ValueError(f"column {column} takes {what} in a JSON table, got {raw!r}")
    if kind is bool and not isinstance(raw, bool):
        if raw not in ("true", "false"):
            raise ValueError(f"bad boolean {raw!r} in column {column}")
        return raw == "true"
    return kind(raw)  # float() accepts 'inf'


def _row_from_cells(cells: Dict[str, object], from_json: bool = False) -> ResultRow:
    return ResultRow(*(_parse_cell(col, cells.get(col), from_json) for col in CSV_COLUMNS))


def parse_table(text: str, fmt: str) -> List[ResultRow]:
    """Inverse of :func:`render_table`. A CSV cell is text, converted by its
    column's type. A JSON cell must already hold what the writer writes in
    its column: null, or an integer, a number (or the string of a non-finite
    one), a string or a boolean; anything else is refused, naming the column."""
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
            raise ValueError("CSV table has a missing or unexpected header")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"CSV row has {len(parts)} fields, expected {len(CSV_COLUMNS)}")
            rows.append(_row_from_cells(dict(zip(CSV_COLUMNS, parts))))
        return rows
    if fmt == "json":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError(f"JSON table must be a list of rows, got {type(data).__name__}")
        for i, obj in enumerate(data):
            if not isinstance(obj, dict):
                raise ValueError(f"JSON table row {i} must be an object, got {type(obj).__name__}")
            odd = sorted(obj.keys() ^ _COLUMN_TYPES.keys())
            if odd:
                raise ValueError(f"JSON table row {i} must have exactly the table columns; "
                                 f"missing or unexpected: {', '.join(odd)}")
        return [_row_from_cells(obj, from_json=True) for obj in data]
    raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def read_table(path: TextFile, fmt: str) -> List[ResultRow]:
    """The rows of a table file; every refusal names the file."""
    text = read_text(path, "table")
    try:
        return parse_table(text, fmt)
    except ValueError as exc:  # a JSONDecodeError too
        raise ValueError(f"cannot read table from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# JSON form of the domain types (exact round-trip) and the run manifest
# ---------------------------------------------------------------------------

# The types from_jsonable builds, by the name in their "type" tag; it
# resolves no other class name.
_JSON_TYPES = {
    cls.__name__: cls
    for cls in (PointCloud, DegreeSummary, LogRegime, PowerFamily, TheoryBounds,
                ExperimentSpec)
}


def to_jsonable(obj):
    """The strict-JSON form of ``obj``; from_jsonable inverts it exactly.

    A domain type becomes {"type": its class name, field: value, ...} in field
    order, with _WIRE_NAMES renaming fields. Arrays, tuples and lists become
    lists and dicts are walked. A non-finite float becomes its 17-digit
    string; every other value passes unchanged.
    """
    if _JSON_TYPES.get(type(obj).__name__) is type(obj):
        out = {"type": type(obj).__name__}
        for f in fields(obj):
            out[_WIRE_NAMES.get(f.name, f.name)] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return fmt17(obj)
    return obj


def from_jsonable(data: dict):
    """Inverse of :func:`to_jsonable` for a domain type. Unknown keys are
    ignored, and each type's constructor normalises and validates the values.
    A derived (init=False) field may be left out; a supplied one must equal
    the value the constructor derives. A string becomes a float only in a
    float field. Malformed input raises ValueError that names the missing,
    inconsistent or wrong-typed field."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    cls = _JSON_TYPES.get(data.get("type"))
    if cls is None:
        raise ValueError(f"cannot decode object of type {data.get('type')!r}")
    kwargs, derived, hints = {}, {}, get_type_hints(cls)
    for f in fields(cls):
        name = _WIRE_NAMES.get(f.name, f.name)
        if name not in data:
            if f.init and f.default is MISSING:
                raise ValueError(f"{cls.__name__} object is missing field {name!r}")
            continue
        value = data[name]
        if isinstance(value, dict):
            value = from_jsonable(value)
        elif isinstance(value, str) and _scalar_type(hints[f.name]) is float:
            try:
                value = float(value)  # the string form of a non-finite float
            except ValueError:
                raise ValueError(
                    f"{cls.__name__} field {name!r} must be a number, got {value!r}"
                ) from None
        (kwargs if f.init else derived)[f.name] = value
    obj = cls(**kwargs)
    for key, value in derived.items():
        if value != getattr(obj, key):
            raise ValueError(
                f"{cls.__name__} field {key!r} is {value!r} but its inputs give "
                f"{getattr(obj, key)!r}"
            )
    return obj


def manifest_path_for(output_path: str) -> str:
    return str(output_path) + ".manifest.json"


def build_manifest(result: ExperimentResult, output_path: str, fmt: str) -> dict:
    return to_jsonable({
        "artifact": {"name": ARTIFACT_NAME, "version": ARTIFACT_VERSION},
        "spec": result.spec,
        "output": {"path": str(output_path), "format": fmt, "rows": len(result.rows)},
        "theory": result.theory,
        "summary": result.summaries,
    })


def write_manifest(result: ExperimentResult, output_path: str, fmt: str) -> str:
    path = manifest_path_for(output_path)
    manifest = build_manifest(result, output_path, fmt)
    write_text(path, json.dumps(manifest, indent=2, allow_nan=False) + "\n", "manifest")
    return path


def spec_from_json_file(path: TextFile) -> ExperimentSpec:
    """Load an ExperimentSpec from a spec JSON file or a run manifest."""
    try:
        data = json.loads(read_text(path, "spec"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot read spec from {path}: {exc}") from exc
    if isinstance(data, dict) and data.get("type") != "ExperimentSpec" and "spec" in data:
        data = data["spec"]
    obj = from_jsonable(data)
    if not isinstance(obj, ExperimentSpec):
        raise ValueError(f"{path} does not contain an experiment spec")
    return obj
