"""Command-line front end for the calibration pipeline.

Subcommands run one stage, after recomputing the stages it depends on, or
the whole loop; artifacts go to --out.  Exit status 0 means every gate
passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import (STAGE_DEPS, STAGES, PipelineContext, RunConfig,
                       run_pipeline, summary_to_json)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser = argparse.ArgumentParser(
        prog="arbsurf",
        description="Certified arbitrage-free surface calibration pipeline",
        parents=[common])
    parser.add_argument("--stage", default=None, choices=STAGES + ("all",),
                        help="run a single stage (alternative to subcommands)")
    sub = parser.add_subparsers(dest="command")
    for name in STAGES + ("all",):
        sub.add_parser(name, parents=[common],
                       help=f"run the {name} stage"
                       if name != "all" else "run the full pipeline")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage = args.command or args.stage or "all"
    try:
        cfg = _load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if stage == "all":
        try:
            summary, status = run_pipeline(cfg, out_dir=args.out)
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        _report(summary)
        return status

    ctx = PipelineContext(cfg, out_dir=args.out)
    try:
        for name in STAGE_DEPS[stage] + (stage,):
            ctx._timed(name, getattr(ctx, f"stage_{name}"))
    except Exception as exc:
        print(f"pipeline stage '{name}' failed: {exc}", file=sys.stderr)
        return 2
    ctx.summary["gates"] = ctx.gates
    print(summary_to_json(ctx.summary))
    return 0 if all(g["pass"] for g in ctx.gates.values()) else 1


def _report(summary: dict) -> None:
    for name, gate in summary["gates"].items():
        flag = "PASS" if gate["pass"] else "FAIL"
        print(f"{name:12s} {flag}  value={gate['value']} threshold={gate['threshold']}")
    print("all gates:", "PASS" if summary["all_pass"] else "FAIL")


if __name__ == "__main__":
    sys.exit(main())
