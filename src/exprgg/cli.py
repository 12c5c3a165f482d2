"""Command-line front end: sampling, graph statistics, closed-form values,
verification of the neighbour engines against brute force, and the
experiment suites.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 verification
mismatch. Identical argv always produces byte-identical standard output;
progress goes to the error stream.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .experiments import (
    DEFAULT_Y_GRID,
    EXPERIMENT_KINDS,
    KINDS,
    ExperimentSpec,
    _csv_cell,
    _json_object,
    emit,
    fmt17,
    run_experiment,
    spec_from_json_file,
    write_manifest,
)
from .graphstats import _edge_counts_multi, degree_summary
from .model import LogRegime, PointCloud, PowerFamily
from .sampling import (
    derive_replication_seed,
    sample_exponential_cloud,
    uniform_stream,
    write_cloud,
)
from .spatial import brute_force_edges, build_grid_index, neighbors_within
from .theory import (
    a_max,
    a_min,
    chernoff_lower_tail,
    chernoff_upper_tail,
    containment_radius,
    h_function,
    pair_connect_prob,
    theory_bounds,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit word")
    return value


def _int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


# Value type of each flag; every flag not listed takes a float.
_FLAG_TYPES = {"n": int, "d": int, "seed": _u64, "reps": int, "cases": int, "max-n": int,
               "y-grid": _float_list}

# The experiment flags that spell out a spec, which --spec replaces.
_SPEC_FLAGS = ("d", "lambda", "c", "alpha", "beta", "n", "reps", "seed", "epsilon", "y-grid")


def _dest(name: str) -> str:
    return "lam" if name == "lambda" else name.replace("-", "_")


def _add_flags(parser, names, required: bool = True, **overrides) -> None:
    """Add ``--name`` for each of ``names``, typed by ``_FLAG_TYPES``, with
    ``overrides[name]`` as further add_argument keywords; ``name=value``
    makes one optional with that default."""
    for name in names:
        name, _, default = name.partition("=")
        kwargs = dict(type=_FLAG_TYPES.get(name, float), required=required and not default,
                      default=float(default) if default else None)
        parser.add_argument(f"--{name}", dest=_dest(name), **{**kwargs, **overrides.get(name, {})})


def _a_min_lines(args) -> List[str]:
    root, has_root = a_min(args.c, args.lam, args.d)
    if not has_root:
        print("note: no root below 1 (lambda^d * c <= 1); bound degenerates to 0",
              file=sys.stderr)
    return [fmt17(root)]


_BOUNDS_FIELDS = (
    "lambda_pow_d", "a_min", "a_min_has_root", "a_max",
    "min_liminf_bound", "min_limsup_bound", "max_liminf_bound", "max_limsup_bound",
)


def _bounds_lines(args) -> List[str]:
    tb = theory_bounds(args.c, args.lam, args.d)
    return [f"{name}={_csv_cell(getattr(tb, name))}" for name in _BOUNDS_FIELDS]


# Each closed-form quantity: its help, its flags, and the lines it prints.
_THEORY = {
    "p": ("pair connection probability", ("y", "lambda", "d"),
          lambda a: [fmt17(pair_connect_prob(a.y, a.lam, a.d))]),
    "h": ("binomial tail rate function", ("t",), lambda a: [fmt17(h_function(a.t))]),
    "chernoff-upper": ("upper-tail binomial bound", ("n", "p", "k"),
                       lambda a: [fmt17(chernoff_upper_tail(a.n, a.p, a.k))]),
    "chernoff-lower": ("lower-tail binomial bound", ("n", "p", "k"),
                       lambda a: [fmt17(chernoff_lower_tail(a.n, a.p, a.k))]),
    "a-min": ("degree strong-law root(s)", ("c", "lambda", "d"), _a_min_lines),
    "a-max": ("degree strong-law root(s)", ("c", "lambda", "d"),
              lambda a: [fmt17(a_max(a.c, a.lam, a.d))]),
    "bounds": ("degree strong-law root(s)", ("c", "lambda", "d"), _bounds_lines),
    "radius": ("containment radius", ("n", "lambda", "d", "epsilon=0"),
               lambda a: [fmt17(containment_radius(a.n, a.lam, a.d, a.epsilon))]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exprgg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sample = sub.add_parser("sample", help="sample an exponential point cloud")
    _add_flags(p_sample, ("n", "d", "lambda", "seed"))
    p_sample.add_argument("--out", default=None, help="dump path (default: stdout)")
    p_sample.set_defaults(run=_cmd_sample)

    p_graph = sub.add_parser("graph", help="degree summary of one sampled graph")
    _add_flags(p_graph, ("n", "d", "lambda", "y", "seed"))
    p_graph.add_argument("--format", choices=("csv", "json"), default="csv")
    p_graph.set_defaults(run=_cmd_graph)

    p_theory = sub.add_parser("theory", help="evaluate a closed-form quantity")
    t_sub = p_theory.add_subparsers(dest="quantity", required=True, parser_class=_Parser)
    for name, (help_text, flags, lines) in _THEORY.items():
        t_p = t_sub.add_parser(name, help=help_text)
        _add_flags(t_p, flags)
        t_p.set_defaults(run=_cmd_theory, lines=lines)

    p_verify = sub.add_parser(
        "verify",
        help="grid neighbour queries, and degree counts and y-grid edge counts (a sorted "
        "sweep at d = 1, sorted last-axis windows over a grid of columns at d >= 2), vs "
        "the brute force oracle, on each sampled cloud, on its 1/4-lattice snap, and at "
        "y equal to the distance between its vertices 0 and 1",
    )
    _add_flags(p_verify, ("cases", "max-n", "seed"))
    p_verify.set_defaults(run=_cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo suite")
    p_exp.add_argument("kind", choices=KINDS)
    _add_flags(p_exp, _SPEC_FLAGS, required=False,
               n=dict(type=_int_list, help="comma list of sizes"))
    p_exp.add_argument("--spec", default=None, help="JSON spec or manifest to rerun")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--threads", type=int, default=None, help="0 = auto")
    p_exp.set_defaults(run=_cmd_experiment)

    return parser


def _cmd_sample(args) -> int:
    cloud = sample_exponential_cloud(args.n, args.d, args.lam, args.seed)
    write_cloud(cloud, sys.stdout if args.out is None else args.out)
    return EXIT_OK


def _cmd_graph(args) -> int:
    cloud = sample_exponential_cloud(args.n, args.d, args.lam, args.seed)
    summ = degree_summary(cloud, args.y)
    cells = {
        "n": args.n, "d": args.d, "lambda": args.lam, "y": args.y, "seed": args.seed,
        "epsilon_n": summ.epsilon_n, "min_degree": summ.min_degree,
        "max_degree": summ.max_degree,
    }
    if args.format == "csv":
        print(",".join(cells))
        print(",".join(_csv_cell(v) for v in cells.values()))
    else:
        print(_json_object({**cells, "degrees": summ.degrees}.items()))
    return EXIT_OK


def _cmd_theory(args) -> int:
    for line in args.lines(args):
        print(line)
    return EXIT_OK


def _engine_mismatches(cloud: PointCloud, y: float) -> List[str]:
    """Names of the engines whose answer on ``cloud`` at y differs from
    brute force: grid neighbour queries, degree_summary, and the y-grid edge
    counter at (y / 2, y)."""
    n = cloud.n
    expected = brute_force_edges(cloud, y)
    # Directed edges as codes i * n + j; each undirected edge appears twice.
    want = np.sort(np.concatenate((expected @ [n, 1], expected @ [1, n])))
    index = build_grid_index(cloud, y)
    hits = [np.fromiter(neighbors_within(index, i, y), dtype=np.int64) for i in range(n)]
    got = np.sort(np.repeat(np.arange(n) * n, [len(h) for h in hits]) + np.concatenate(hits))
    # The oracle's edges at y / 2 are those of its edges at y whose distance,
    # computed as it computes it, is within y / 2.
    dist = np.abs(cloud.points[expected[:, 0]] - cloud.points[expected[:, 1]]).max(axis=1)
    counts = [np.count_nonzero(dist <= y / 2), len(expected)]
    checks = (
        ("neighbors", np.array_equal(got, want)),
        ("degrees", np.array_equal(degree_summary(cloud, y).degrees,
                                   np.bincount(expected.ravel(), minlength=n))),
        ("edge-counts", np.array_equal(_edge_counts_multi(cloud, (y / 2, y)), counts)),
    )
    return [name for name, ok in checks if not ok]


def _cmd_verify(args) -> int:
    """Each case checks every engine on a sampled cloud, then on that cloud
    snapped to the 1/4 lattice with y moved onto the lattice above it, where
    ties at distance exactly y are common, then on the sampled cloud at y
    equal to the oracle's own distance between vertices 0 and 1, so that at
    least one pair lies at exactly y."""
    if args.cases < 1 or args.max_n < 2:
        raise ValueError("verify needs --cases >= 1 and --max-n >= 2")
    mismatches = 0
    for case in range(args.cases):
        case_seed = derive_replication_seed(args.seed, case)
        u = uniform_stream(case_seed, 4)
        n = min(2 + int(u[0] * (args.max_n - 1)), args.max_n)
        d = 1 + int(u[1] * 3) % 3
        lam = 0.5 + 1.5 * u[2]
        y = float(u[3]) * 1.5 / lam
        cloud = sample_exponential_cloud(n, d, lam, derive_replication_seed(case_seed, 0))
        snapped = replace(cloud, points=np.floor(4 * cloud.points) / 4)
        checks = [(cloud, y, ""), (snapped, (math.floor(4 * y) + 1) / 4, ", 1/4 lattice")]
        realised = float(np.abs(cloud.points[0] - cloud.points[1]).max())
        if realised > 0.0:  # a cell size of 0 is refused
            checks.append((cloud, realised, ", realised distance"))
        failed = [
            f"(n={n}, d={d}, lambda={fmt17(lam)}, y={fmt17(at)}{where}) in {', '.join(names)}"
            for c, at, where in checks
            if (names := _engine_mismatches(c, at))
        ]
        if failed:
            mismatches += 1
            print(f"case {case}: MISMATCH {'; '.join(failed)}", file=sys.stderr)
    print(f"verify: {args.cases} cases, {args.cases - mismatches} matched")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _build_spec(args) -> ExperimentSpec:
    """The spec that --spec names or the spec flags spell out. Every flag
    given reaches ExperimentSpec, which refuses those its kind does not take."""
    given = {name: getattr(args, _dest(name)) for name in _SPEC_FLAGS}
    if args.spec is not None:
        extra = [f"--{name}" for name, value in given.items() if value is not None]
        if extra:
            raise ValueError(f"--spec replaces the spec flags; drop {', '.join(extra)}")
        spec = spec_from_json_file(args.spec)
        if spec.kind != args.kind:
            raise ValueError(
                f"spec file is for {spec.kind!r} but the command line says {args.kind!r}"
            )
        return spec
    missing = [f"--{name}" for name in ("d", "lambda", "n", "reps", "seed")
               if given[name] is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)} (or use --spec)")
    kind = EXPERIMENT_KINDS[args.kind]
    if args.c is not None and (args.alpha is not None or args.beta is not None):
        raise ValueError("give either --c or --alpha/--beta, not both")
    family = None
    if args.c is not None:
        family = LogRegime(c=args.c, lam=args.lam, d=args.d)
    elif args.alpha is not None and args.beta is not None:
        family = PowerFamily(alpha=args.alpha, beta=args.beta, lam=args.lam, d=args.d)
    elif args.alpha is not None or args.beta is not None:
        raise ValueError("give both --alpha and --beta")
    elif kind.families:
        raise ValueError(f"{args.kind} needs --c or both --alpha and --beta")
    y_grid = DEFAULT_Y_GRID if args.y_grid is None and kind.y_grid else args.y_grid
    return ExperimentSpec(
        kind=args.kind,
        n_list=tuple(args.n),
        d=args.d,
        lam=args.lam,
        replications=args.reps,
        base_seed=args.seed,
        family=family,
        y_grid=y_grid,
        epsilon=args.epsilon,
    )


def _cmd_experiment(args) -> int:
    spec = _build_spec(args)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("EXPRGG_THREADS", "0"))
    result = run_experiment(
        spec, threads=threads, progress=lambda line: print(line, file=sys.stderr)
    )
    emit(result.rows, args.format, args.out)
    manifest = write_manifest(result, args.out, args.format)
    print(f"wrote {len(result.rows)} rows to {args.out} (manifest: {manifest})")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"exprgg: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"exprgg: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
