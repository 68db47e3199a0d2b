"""Command-line entry point.

Each subcommand runs the pipeline prefix ending at its stage (up-to-date
stages are skipped); run-all runs everything. Exit codes: 0 success, 1 stage
failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ConfigError, load_config
from .pipeline import STAGES, StageError, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rljp",
        description="Learn and apply first-order-logic judgment rules for "
        "legal judgment prediction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in (*STAGES, "run-all"):
        last_stage = STAGES[-1] if name == "run-all" else name
        sub = subparsers.add_parser(name, help=f"run the pipeline through {last_stage}")
        sub.set_defaults(last_stage=last_stage)
        sub.add_argument("--config", required=True, help="path to the JSON config file")
        sub.add_argument("--run-dir", default="run", help="artifact directory (default: ./run)")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
        sub.add_argument(
            "--resume", action="store_true", help="continue in an existing run directory"
        )
        sub.add_argument(
            "--mock", action="store_true", help="force offline scripted/mock backends"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_pipeline(
            config,
            args.run_dir,
            mock=args.mock,
            resume=args.resume,
            last_stage=args.last_stage,
        )
    except FileExistsError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1
    stages = manifest["stages"]
    done = sum(1 for entry in stages.values() if entry.get("status") == "ok")
    print(f"run {manifest['run_id']}: {done} stage(s) ok, {manifest['agent_calls']} agent calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
