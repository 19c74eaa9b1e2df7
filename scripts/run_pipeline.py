#!/usr/bin/env python3
"""Run the full experiment pipeline (synth → … → evaluate) into one
output directory.

Usage:
    python scripts/run_pipeline.py --out out [--config cfg.json] [--seed N]
"""

import argparse
import sys

from macroplan.cli import STAGES, main as run_stage


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    # each stage reads the config through the command line's own path
    common = ["--out", args.out]
    if args.config:
        common += ["--config", args.config]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    for stage in STAGES:
        print(f"==> {stage}")
        status = run_stage([stage, *common])
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
