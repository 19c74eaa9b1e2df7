"""Benchmark workloads: a RunConfig override set per workload, plus the beam
width each inference stage runs with when it differs from the config's.

The workloads differ in which layer does most of the work; README.md gives
the reasons and the layer-to-metric map.  The config's seed stays the
models' own; ``--seed`` seeds only the held-out games
(``checks.league_parts``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: CLI stages a round runs, in order, after the set-up stage ``synth``.
ROUND_STAGES = ("derive-plans", "enumerate", "train-planner",
                "train-generator", "plan", "generate", "evaluate")


@dataclass(frozen=True)
class Workload:
    config: dict
    #: stage -> beam width, for stages that decode with another width
    beams: dict = field(default_factory=dict)


WORKLOADS = {
    # generator beam search dominates: beam 5 to a 40-token cap on every game
    "decode-rich": Workload(config={
        "games": 36, "holdout": 20, "planner_epochs": 2,
        "generator_epochs": 1, "planner_hidden": 64, "generator_hidden": 64,
        "generator_max_len": 40, "beam": 5}),
    # entity-only league with 150 candidates per game: the candidate
    # encoder, the K x K contextualizer and the pointer beam dominate
    "plan-free": Workload(config={
        "kind": "event-free", "games": 48, "holdout": 36,
        "batters_per_team": 6, "planner_epochs": 3, "generator_epochs": 1,
        "planner_hidden": 64, "generator_hidden": 64,
        "generator_max_len": 30, "beam": 1}, beams={"plan": 5}),
}


def stage_config(cfg, workload: Workload, stage: str):
    """The RunConfig ``stage`` runs with under ``workload``."""
    if stage in workload.beams:
        return replace(cfg, beam=workload.beams[stage])
    return cfg
