#!/usr/bin/env python3
"""Run the full experiment pipeline (synth → … → evaluate) into one
output directory.

Usage:
    python scripts/run_pipeline.py --out out [--config cfg.json] [--seed N]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from macroplan.cli import STAGES, RunConfig, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--skip-training", action="store_true",
                        help="reuse checkpoints already in --out")
    args = parser.parse_args()

    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    for stage in STAGES:
        if args.skip_training and stage.startswith("train-"):
            continue
        print(f"==> {stage}")
        status = run(stage, cfg, Path(args.out))
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
