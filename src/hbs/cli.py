"""Command-line driver.

Subcommands: `compress` (one run, optionally saving the factorization),
`sweep` (a size sweep written as CSV or JSON lines), and `verify`
(recompute the error estimate for a saved factorization against an oracle
rebuilt at the file's size, rank and leaf size, and print the oracle
columns the estimate used, forward / transpose).  A failure prints one
line, the error's `kind` and message, and exits with its `exit_code` (see
`hbs.errors`): 2 for a configuration error, non-finite data, a malformed
file or a resource limit, 3 for an ill-conditioned probe.  An unreadable or
unwritable file and running out of memory also exit 2.  Success exits 0.
"""

import argparse
import dataclasses
import sys

from .bench import PROBLEMS, build_oracle, estimate_rel_err, run_once, sweep
from .compress import CompressionConfig
from .errors import FormatError, HbsError, ResourceLimitError
from .serialize import load_factorization, save_factorization


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
    return parser


def _print_record(record, as_json):
    if as_json:
        print(record.json_row())
    else:
        for key, value in dataclasses.asdict(record).items():
            print(f"{key}: {value}")


def _cmd_compress(args):
    record, f = run_once(args.problem, args.n, _config(args))
    if args.save:
        save_factorization(f, args.save)
    _print_record(record, args.json)
    return 0


def _cmd_sweep(args):
    sweep(args.problem, args.n_list, _config(args), args.out, as_json=args.json)
    return 0


def _cmd_verify(args):
    try:
        f = load_factorization(args.load).validate()
    except FormatError as exc:  # name the file the malformed blocks came from
        raise FormatError(f"{args.load}: {exc}") from exc
    config = CompressionConfig(rank=f.rank, leaf_threshold=f.tree.leaf_threshold, seed=args.seed)
    config.validate_for(f.tree)  # reject a bad seed before oracle assembly
    oracle = build_oracle(args.problem, f.n, config)
    rel_err = estimate_rel_err(oracle, f, seed=args.seed)
    print(f"rel_err: {rel_err:.6e}")
    print("oracle columns (a / at): {} / {}".format(*oracle.matvec_count))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"compress": _cmd_compress, "sweep": _cmd_sweep, "verify": _cmd_verify}[
        args.command
    ]
    try:
        return handler(args)
    except HbsError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing, unreadable or unwritable file
        print(f"{FormatError.kind}: {exc}", file=sys.stderr)
        return FormatError.exit_code
    except MemoryError as exc:
        print(f"{ResourceLimitError.kind}: out of memory ({exc})", file=sys.stderr)
        return ResourceLimitError.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
