"""Command-line entry points: generate, train, verify, report.

Each command runs on one OpenBLAS thread (`blas.one_thread`), whatever
OPENBLAS_NUM_THREADS says, so its outputs are the same at any thread count;
`main` gives the caller's count back when the command ends, by any exit.
`report.json` and `verify_report.json` record the library and the count.
"""

from __future__ import annotations

import argparse

# argparse imports locale when it first looks up its message translations,
# during the first parse. Importing it with the CLI counts that one-time
# cost as start-up instead of as part of the first command.
import locale  # noqa: F401
import sys

from . import blas
from .errors import ConfigError

# Found once, at import, so that no command pays the lookup.
blas.libraries()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efgen",
        description=(
            "Exponential-family generative models: synthetic data generation, "
            "training to stationary points, and entropy-sum verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
            p.add_argument("--seed", type=int, default=None, help="override config seeds")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    add_common(sub.add_parser("generate", help="sample a synthetic dataset + manifest"))
    add_common(sub.add_parser("train", help="train to convergence or iteration cap"))

    p_verify = sub.add_parser("verify", help="criterion + entropy-sum gap verdicts")
    add_common(p_verify)
    p_verify.add_argument("--model", required=True, help="trained model JSON")

    p_report = sub.add_parser("report", help="aggregate run summaries into CSV")
    p_report.add_argument("summaries", nargs="+", help="summary.json files")
    add_common(p_report, needs_config=False)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with blas.one_thread():
        return _run(args)


def _run(args) -> int:
    from . import harness

    try:
        if args.command != "report":
            config = harness.load_config(args.config, seed_override=args.seed)
        if args.command == "generate":
            paths = harness.cmd_generate(config, out_dir=args.out)
            if not args.quiet:
                print(f"wrote {paths['dataset']} and {paths['manifest']}")
        elif args.command == "train":
            paths = harness.cmd_train(config, out_dir=args.out)
            if not args.quiet:
                print(f"wrote {paths['report']}")
        elif args.command == "verify":
            result = harness.cmd_verify(config, args.model, out_dir=args.out)
            if not args.quiet:
                for name, verdict in result["verdicts"].items():
                    print(f"{name}: {verdict['status']}")
        elif args.command == "report":
            out_path = None
            if args.out:
                import os

                out_path = os.path.join(harness.make_output_dir(args.out), "aggregate.csv")
            table = harness.cmd_report(args.summaries, out_path=out_path)
            if not args.quiet:
                print(table if out_path is None else f"wrote {table}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
