"""Command-line driver.

Subcommands: `compress` (one run, optionally saving the factorization),
`sweep` (a size sweep written as CSV or JSON lines), and `verify`
(recompute the error estimate for a saved factorization against an oracle
rebuilt at the file's size, rank and leaf size).  Exit codes: 0 success,
2 configuration error, non-finite oracle output, or a missing, malformed or
unwritable file, 3 ill-conditioned probe matrix.
"""

import argparse
import dataclasses
import sys

from .bench import PROBLEMS, build_oracle, estimate_rel_err, run_once, sweep
from .compress import CompressionConfig
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    IllConditionedProbeError,
    NonFiniteError,
)
from .serialize import load_factorization, save_factorization

EXIT_CONFIG = 2
EXIT_ILL_CONDITIONED = 3


def _add_config_arguments(parser):
    parser.add_argument("--problem", required=True, choices=PROBLEMS)
    parser.add_argument("--rank", type=int, required=True, help="basis columns per node (r)")
    parser.add_argument("--leaf", type=int, required=True, help="leaf size threshold (m)")
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="probe columns s (default: max(r + max leaf size, 3r))",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--power-iters", type=int, default=20, help="power-method iterations for rel_err"
    )


def _size_list(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _config(args):
    return CompressionConfig(
        rank=args.rank, leaf_threshold=args.leaf, probes=args.samples, seed=args.seed
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hbs",
        description="Compress black-box rank-structured operators from randomized probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="compress one problem instance")
    _add_config_arguments(p_compress)
    p_compress.add_argument("--n", type=int, required=True)
    p_compress.add_argument("--save", default=None, help="write the factorization here")
    p_compress.add_argument("--json", action="store_true", help="print the record as JSON")

    p_sweep = sub.add_parser("sweep", help="run a size sweep and write one row per size")
    _add_config_arguments(p_sweep)
    p_sweep.add_argument(
        "--n-list", type=_size_list, required=True, help="comma-separated ascending sizes"
    )
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--json", action="store_true", help="write JSON lines instead of CSV")

    p_verify = sub.add_parser("verify", help="re-estimate rel_err for a saved factorization")
    p_verify.add_argument("--load", required=True)
    p_verify.add_argument("--problem", required=True, choices=PROBLEMS)
    p_verify.add_argument("--seed", type=int, default=0, help="the seed the file was built with")
    p_verify.add_argument("--power-iters", type=int, default=20)
    return parser


def _print_record(record, as_json):
    if as_json:
        print(record.json_row())
    else:
        for key, value in dataclasses.asdict(record).items():
            print(f"{key}: {value}")


def _cmd_compress(args):
    record, f = run_once(
        args.problem, args.n, _config(args), power_iters=args.power_iters
    )
    if args.save:
        save_factorization(f, args.save)
    _print_record(record, args.json)
    return 0


def _cmd_sweep(args):
    sweep(
        args.problem,
        args.n_list,
        _config(args),
        args.out,
        power_iters=args.power_iters,
        as_json=args.json,
    )
    return 0


def _cmd_verify(args):
    try:
        f = load_factorization(args.load).validate()
    except ValueError as exc:  # a block failed validation
        raise FormatError(f"{args.load}: {exc}") from exc
    config = CompressionConfig(rank=f.rank, leaf_threshold=f.tree.leaf_threshold, seed=args.seed)
    oracle = build_oracle(args.problem, f.n, config)
    rel_err = estimate_rel_err(oracle, f, iters=args.power_iters, seed=args.seed)
    print(f"rel_err: {rel_err:.6e}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"compress": _cmd_compress, "sweep": _cmd_sweep, "verify": _cmd_verify}[
        args.command
    ]
    try:
        return handler(args)
    except (ConfigurationError, DimensionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"non-finite data: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IllConditionedProbeError as exc:
        print(f"ill-conditioned probe: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
