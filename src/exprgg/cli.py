"""Command-line front end: sampling, graph statistics, closed-form values,
verification of the neighbour engines against brute force, and the
experiment suites.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 verification
mismatch. Identical argv always produces byte-identical standard output;
progress goes to the error stream.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

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
from .graphstats import degree_summary
from .model import LogRegime, PowerFamily
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


def _default_threads() -> int:
    return int(os.environ.get("EXPRGG_THREADS", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exprgg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sample = sub.add_parser("sample", help="sample an exponential point cloud")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--d", type=int, required=True)
    p_sample.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sample.add_argument("--seed", type=_u64, required=True)
    p_sample.add_argument("--out", default=None, help="dump path (default: stdout)")

    p_graph = sub.add_parser("graph", help="degree summary of one sampled graph")
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.add_argument("--d", type=int, required=True)
    p_graph.add_argument("--lambda", dest="lam", type=float, required=True)
    p_graph.add_argument("--y", type=float, required=True)
    p_graph.add_argument("--seed", type=_u64, required=True)
    p_graph.add_argument("--format", choices=("csv", "json"), default="csv")

    p_theory = sub.add_parser("theory", help="evaluate a closed-form quantity")
    t_sub = p_theory.add_subparsers(dest="quantity", required=True, parser_class=_Parser)

    t_p = t_sub.add_parser("p", help="pair connection probability")
    t_p.add_argument("--y", type=float, required=True)
    t_p.add_argument("--lambda", dest="lam", type=float, required=True)
    t_p.add_argument("--d", type=int, required=True)

    t_h = t_sub.add_parser("h", help="binomial tail rate function")
    t_h.add_argument("--t", type=float, required=True)

    for name in ("chernoff-upper", "chernoff-lower"):
        t_c = t_sub.add_parser(name, help=f"{name.split('-')[1]}-tail binomial bound")
        t_c.add_argument("--n", type=int, required=True)
        t_c.add_argument("--p", type=float, required=True)
        t_c.add_argument("--k", type=float, required=True)

    for name in ("a-min", "a-max", "bounds"):
        t_a = t_sub.add_parser(name, help="degree strong-law root(s)")
        t_a.add_argument("--c", type=float, required=True)
        t_a.add_argument("--lambda", dest="lam", type=float, required=True)
        t_a.add_argument("--d", type=int, required=True)

    t_r = t_sub.add_parser("radius", help="containment radius")
    t_r.add_argument("--n", type=int, required=True)
    t_r.add_argument("--lambda", dest="lam", type=float, required=True)
    t_r.add_argument("--d", type=int, required=True)
    t_r.add_argument("--epsilon", type=float, default=0.0)

    p_verify = sub.add_parser(
        "verify",
        help="grid neighbour queries and degree_summary (sorted sweep at d = 1, "
        "grid at d >= 2) vs the brute force oracle",
    )
    p_verify.add_argument("--cases", type=int, required=True)
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--seed", type=_u64, required=True)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo suite")
    p_exp.add_argument("kind", choices=KINDS)
    p_exp.add_argument("--d", type=int)
    p_exp.add_argument("--lambda", dest="lam", type=float)
    p_exp.add_argument("--c", type=float, default=None)
    p_exp.add_argument("--alpha", type=float, default=None)
    p_exp.add_argument("--beta", type=float, default=None)
    p_exp.add_argument("--n", type=_int_list, default=None, help="comma list of sizes")
    p_exp.add_argument("--reps", type=int, default=None)
    p_exp.add_argument("--seed", type=_u64, default=None)
    p_exp.add_argument("--epsilon", type=float, default=None)
    p_exp.add_argument("--y-grid", type=_float_list, default=None)
    p_exp.add_argument("--spec", default=None, help="JSON spec or manifest to rerun")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--threads", type=int, default=None, help="0 = auto")

    return parser


def _cmd_sample(args) -> int:
    cloud = sample_exponential_cloud(args.n, args.d, args.lam, args.seed)
    if args.out is None:
        write_cloud(cloud, sys.stdout)
    else:
        write_cloud(cloud, args.out)
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
    if args.quantity == "p":
        print(fmt17(pair_connect_prob(args.y, args.lam, args.d)))
    elif args.quantity == "h":
        print(fmt17(h_function(args.t)))
    elif args.quantity == "chernoff-upper":
        print(fmt17(chernoff_upper_tail(args.n, args.p, args.k)))
    elif args.quantity == "chernoff-lower":
        print(fmt17(chernoff_lower_tail(args.n, args.p, args.k)))
    elif args.quantity == "a-min":
        root, has_root = a_min(args.c, args.lam, args.d)
        print(fmt17(root))
        if not has_root:
            print("note: no root below 1 (lambda^d * c <= 1); bound degenerates to 0",
                  file=sys.stderr)
    elif args.quantity == "a-max":
        print(fmt17(a_max(args.c, args.lam, args.d)))
    elif args.quantity == "bounds":
        tb = theory_bounds(args.c, args.lam, args.d)
        print(f"lambda_pow_d={fmt17(tb.lambda_pow_d)}")
        print(f"a_min={fmt17(tb.a_min)}")
        print(f"a_min_has_root={'true' if tb.a_min_has_root else 'false'}")
        print(f"a_max={fmt17(tb.a_max)}")
        print(f"min_liminf_bound={fmt17(tb.min_liminf_bound)}")
        print(f"min_limsup_bound={fmt17(tb.min_limsup_bound)}")
        print(f"max_liminf_bound={fmt17(tb.max_liminf_bound)}")
        print(f"max_limsup_bound={fmt17(tb.max_limsup_bound)}")
    else:  # radius
        print(fmt17(containment_radius(args.n, args.lam, args.d, args.epsilon)))
    return EXIT_OK


def _cmd_verify(args) -> int:
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
        expected = brute_force_edges(cloud, y)
        index = build_grid_index(cloud, y)
        got = set()
        for i in range(n):
            for j in neighbors_within(index, i, y):
                got.add((i, j) if i < j else (j, i))
        expected_degrees = [0] * n
        for a, b in expected:
            expected_degrees[a] += 1
            expected_degrees[b] += 1
        summ = degree_summary(cloud, y)
        failed = [
            name for name, ok in (("neighbors", got == expected),
                                  ("degrees", list(summ.degrees) == expected_degrees))
            if not ok
        ]
        if failed:
            mismatches += 1
            print(
                f"case {case}: MISMATCH (n={n}, d={d}, lambda={fmt17(lam)}, y={fmt17(y)})"
                f" in {', '.join(failed)}",
                file=sys.stderr,
            )
    print(f"verify: {args.cases} cases, {args.cases - mismatches} matched")
    return EXIT_OK if mismatches == 0 else EXIT_MISMATCH


def _build_spec(args) -> ExperimentSpec:
    if args.spec is not None:
        spec = spec_from_json_file(args.spec)
        if spec.kind != args.kind:
            raise ValueError(
                f"spec file is for {spec.kind!r} but the command line says {args.kind!r}"
            )
        return spec
    missing = [
        flag
        for flag, val in (("--d", args.d), ("--lambda", args.lam),
                          ("--n", args.n), ("--reps", args.reps), ("--seed", args.seed))
        if val is None
    ]
    if missing:
        raise ValueError(f"missing required flags: {', '.join(missing)} (or use --spec)")
    kind = EXPERIMENT_KINDS[args.kind]
    family = None
    if kind.families:
        if args.c is not None and (args.alpha is not None or args.beta is not None):
            raise ValueError("give either --c or --alpha/--beta, not both")
        if args.c is not None:
            family = LogRegime(c=args.c, lam=args.lam, d=args.d)
        elif args.alpha is not None and args.beta is not None:
            family = PowerFamily(alpha=args.alpha, beta=args.beta, lam=args.lam, d=args.d)
        else:
            raise ValueError(f"{args.kind} needs --c or both --alpha and --beta")
    y_grid = None
    if kind.y_grid:
        y_grid = tuple(args.y_grid) if args.y_grid is not None else DEFAULT_Y_GRID
    return ExperimentSpec(
        kind=args.kind,
        n_list=tuple(args.n),
        d=args.d,
        lam=args.lam,
        replications=args.reps,
        base_seed=args.seed,
        family=family,
        y_grid=y_grid,
        epsilon=args.epsilon if kind.epsilon else None,
    )


def _cmd_experiment(args) -> int:
    spec = _build_spec(args)
    threads = args.threads if args.threads is not None else _default_threads()
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
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "theory":
            return _cmd_theory(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise ValueError(f"unknown command {args.command!r}")
    except OSError as exc:
        print(f"exprgg: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(f"exprgg: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
