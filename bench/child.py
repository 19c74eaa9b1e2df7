"""One benchmark run, in the child process that ``run.py`` starts.

Set-up runs ``synth`` for the league.  Then whole rounds of the remaining
stages run, each in a fresh directory, as many as fit in ``--seconds``: every
stage goes through ``macroplan.cli.run`` and is timed from outside, and its
outputs are checked.  With ``--trace 1`` rounds alternate untraced and
traced (at least one of each), so the tracing overhead is measured in the
same process.
The result goes to ``result.json`` in the work directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from macroplan.cli import RunConfig, run

import checks
import tracing
from workloads import ROUND_STAGES, WORKLOADS, stage_config

#: artifacts hashed per round; every round must reproduce them byte for byte
HASHED = ("plans_pred.txt", "summaries.jsonl", "report.json",
          "planner.mpln", "generator.mpln")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_stage(stage, cfg, out: Path, league, tracer=None):
    """(seconds, errors) of one stage: its status and its output check."""
    # each stage starts on a heap without the last one's garbage, as it
    # would in a process of its own; the tape's reference cycles otherwise
    # leave a collection of earlier garbage to land in whichever stage
    gc.collect()
    if tracer is not None:
        tracer.begin_stage(stage)
    start = time.perf_counter()
    status = run(stage, cfg, out)
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_stage()
    if status != 0:
        return seconds, [f"{stage}: exited with status {status}"]
    return seconds, checks.run_check(stage, out, league)


def make_league(cfg, seed: int, out: Path) -> int:
    """Set-up: ``synth`` each part of the league (``checks.league_parts``)
    and join them, ids prefixed, into ``out/games.jsonl``; the status of the
    first ``synth`` that fails, else 0."""
    lines = []
    for prefix, part in checks.league_parts(cfg, seed):
        status = run("synth", part, out / prefix)
        if status != 0:
            return status
        for line in (out / prefix / "games.jsonl").read_text().splitlines():
            game = json.loads(line)
            game["id"] = f"{prefix}-{game['id']}"
            lines.append(json.dumps(game, sort_keys=True))
    (out / "games.jsonl").write_text("\n".join(lines) + "\n")
    return 0


def run_round(workload, cfg, league, games_file: Path, out: Path,
              tracer=None) -> dict:
    """One round of every stage after ``synth`` in a fresh ``out``."""
    out.mkdir(parents=True)
    shutil.copy(games_file, out / "games.jsonl")
    times, errors, failed = {}, [], 0
    for stage in ROUND_STAGES:
        seconds, stage_errors = run_stage(
            stage, stage_config(cfg, workload, stage), out, league, tracer)
        times[stage] = seconds
        failed += bool(stage_errors)
        errors.extend(stage_errors)
    if tracer is not None and not errors:
        calls = tracer.calls_by_stage()
        for key, want in checks.expected_calls(out, league).items():
            if calls[key] != want:
                errors.append(f"trace: {key[1]} called {calls[key]} times "
                              f"in {key[0]}, expected {want}")
    hashes = {name: sha256(out / name) for name in HASHED
              if (out / name).exists()}
    return {"times": times, "errors": errors, "failed": failed,
            "hashes": hashes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    cfg = RunConfig(**workload.config)
    league_dir = args.workdir / "league"
    setup_tracer = tracing.Tracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.install()
        setup_tracer.begin_stage("synth")
    status = make_league(cfg, args.seed, league_dir)
    setup_end = time.perf_counter()
    if setup_tracer is not None:
        setup_tracer.end_stage()
        setup_tracer.uninstall()
    if status != 0:
        print(f"error: synth exited with status {status}", file=sys.stderr)
        return 1

    league = checks.League(cfg, args.seed)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    durations = []
    # a round starts only if it should end by the deadline, judged by the
    # longer of the last two; a traced run needs one untraced and one traced
    while not rounds or (args.trace and len(rounds) < 2) \
            or time.perf_counter() + max(durations[-2:]) <= deadline:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_start = time.perf_counter()
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            result = run_round(workload, cfg, league,
                               league_dir / "games.jsonl",
                               args.workdir / f"round{len(rounds)}", tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(args.workdir / f"round{len(rounds)}")
        if tracer is not None:
            result["layers"] = tracer.summary()
            last_tracer = tracer
        rounds.append(result)
        durations.append(time.perf_counter() - round_start)

    errors = [e for r in rounds for e in r["errors"]]
    hashes = rounds[0]["hashes"]
    if any(r["hashes"] != hashes for r in rounds):
        errors.append("artifacts differ between rounds of one run")
    untraced = [r for r in rounds if "layers" not in r]
    metrics = {"pipeline_s": statistics.median(
        sum(r["times"].values()) for r in untraced)}
    result = {"setup_end": setup_end, "rounds": len(rounds),
              "attempted": len(rounds) * len(ROUND_STAGES),
              "failed": sum(r["failed"] for r in rounds),
              "errors": errors, "hashes": hashes, "metrics": metrics,
              "round_times": [r["times"] for r in rounds]}
    if args.trace:
        traced = [r for r in rounds if "layers" in r]
        setup_layers = setup_tracer.summary()
        result["layers"] = {
            name: setup_layers[name]
            + statistics.median(r["layers"][name] for r in traced)
            for name in setup_layers}
        for stage in ROUND_STAGES:
            result["layers"][f"stage.{stage}.s"] = statistics.median(
                r["times"][stage] for r in untraced)
        result["layers"]["trace.overhead_s"] = (
            statistics.median(sum(r["times"].values()) for r in traced)
            - metrics["pipeline_s"])
        last_tracer.write(args.workdir / "spans.tsv")
    (args.workdir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
