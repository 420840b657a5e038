"""Command-line front end.

Subcommands:

* run <spec-file>            execute an experiment spec, write CSV
* validate <spec-file>       parse and validate a spec, report problems
* oracle alpha <spec-file>   empirical supermodularity certificates
* oracle subopt <spec-file>  exact relative-suboptimality reports
* graph gen ...              generate a graph and save its edge list

Exit codes: 0 success, 1 validation error, 2 runtime error (running out
of memory included).
"""

from __future__ import annotations

import argparse
import sys

from . import bench
from .graphs import ER_P, SENSOR_KNN, save_graph
from .oracle import save_alpha_csv, save_subopt_csv
from .rng import RNG_NAME

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our own
    # error type so usage problems report as validation failures (1)
    def error(self, message):
        raise _CliValidationError(message)


def _thread_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:  # a usage error, exit 1
        raise argparse.ArgumentTypeError(
            f"thread count must be an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gsample", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment spec")
    run.add_argument("spec", help="path to a key=value spec file")
    run.add_argument("--out", help="override the spec's output path")
    run.add_argument("--threads", type=_thread_count, default=None,
                     help="most processes the trials run in, one per "
                     "usable CPU at most (default: the usable CPUs; 1 runs "
                     "them in process)")
    run.add_argument("--blue", action="store_true",
                     help="use the unbiased estimator whenever |S| >= K")

    val = sub.add_parser("validate", help="check a spec without running it")
    val.add_argument("spec")

    oracle = sub.add_parser("oracle", help="exhaustive verification studies")
    oracle.add_argument("kind", choices=("alpha", "subopt"))
    oracle.add_argument("spec")
    oracle.add_argument("--out", help="override the spec's output path")

    graph = sub.add_parser("graph", help="graph utilities")
    gsub = graph.add_subparsers(dest="graph_command", required=True)
    gen = gsub.add_parser("gen", help="generate a graph, save as edge list")
    gen.add_argument("--model", required=True, choices=bench.GRAPH_MODELS)
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--knn", type=int, default=SENSOR_KNN,
                     help="G1 neighbour count, at most n - 1")
    gen.add_argument("--p", type=float, default=ER_P, help="G2 edge probability")
    gen.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    spec = bench.parse_spec_file(args.spec)
    result = bench.run_experiment(spec, threads=args.threads,
                                  use_blue=args.blue)
    out = args.out or spec.out
    bench.write_result_csv(result, out)
    print(f"wrote {len(result.rows)} rows to {out} "
          f"(study={spec.study}, rng={RNG_NAME}, "
          f"base_seed={spec.base_seed})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = bench.parse_spec_file(args.spec)
    print(f"{args.spec}: valid {spec.study} spec "
          f"({len(spec.methods)} methods, {len(spec.sweep)} sweep values, "
          f"{spec.trials} trials)")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = bench.parse_spec_file(args.spec)
    out = args.out or spec.out
    if args.kind == "alpha":
        reports = bench.run_alpha_certificate(spec)
        save_alpha_csv(reports, out)
        worst = min(r.alpha_empirical for _, r in reports)
        print(f"wrote {len(reports)} alpha rows to {out} "
              f"(min empirical alpha={worst:.6f}, rng={RNG_NAME})")
    else:
        reports = bench.run_subopt_reports(spec)
        save_subopt_csv(reports, out)
        worst = max(r.r for _, _, r in reports)
        print(f"wrote {len(reports)} suboptimality rows to {out} "
              f"(max r={worst:.6f}, rng={RNG_NAME})")
    return EXIT_OK


def _cmd_graph(args) -> int:
    if problem := bench.graph_problem(args.model, args.n, args.knn, args.p):
        raise bench.SpecError(problem[1])
    graph = bench.make_graph(args.model, args.n, args.seed, args.knn, args.p)
    save_graph(graph, args.out)
    print(f"wrote {args.model} graph (n={graph.n}, "
          f"edges={graph.edge_count}, seed={graph.meta['seed']}) to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_graph(args)
    except bench.SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
