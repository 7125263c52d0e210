"""Command-line front end for the calibration pipeline.

``arbsurf [STAGE] [--config PATH] [--out DIR] [--seed N]`` runs one stage
after the stages it depends on, or the whole loop (``all``, the default),
through ``run_pipeline``; the options go before or after the stage.  Every
run prints its summary as JSON and, with --out, writes it and the stages'
artifacts there.  Exit status 0 means every gate passed, 1 that one failed,
and 2 a config, output or stage error.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, RunConfig, run_pipeline, summary_to_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arbsurf",
        description="Certified arbitrage-free surface calibration pipeline")
    parser.add_argument("stage", nargs="?", default="all",
                        choices=STAGES + ("all",),
                        help="run this stage after its dependencies "
                        "(default: all, the full pipeline)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = RunConfig(dict(cfg, seed=args.seed))
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    stage = STAGES[-1] if args.stage == "all" else args.stage
    try:
        summary, status = run_pipeline(cfg, args.out, stage)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(summary_to_json(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
