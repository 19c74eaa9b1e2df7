"""Candidate paragraph-plan enumeration and gold augmentation."""

from __future__ import annotations

from .data import Game
from .verbalize import ParagraphPlanSpec

__all__ = ["enumerate_candidates", "augment_with_gold"]


def enumerate_candidates(game: Game) -> list[ParagraphPlanSpec]:
    """The candidate set E: singletons (teams, players, half-innings) followed
    by combinations (team-pair, team+player, player+both-teams, and, for
    event-free data, player+player pairs)."""
    visiting, home = game.visiting_team.name, game.home_team.name
    players = [p.name for p in game.players]

    specs: list[ParagraphPlanSpec] = []
    specs.append(ParagraphPlanSpec((visiting,)))
    specs.append(ParagraphPlanSpec((home,)))
    for p in players:
        specs.append(ParagraphPlanSpec((p,)))
    if game.kind == "event-rich":
        for inning, half in game.halves():
            specs.append(ParagraphPlanSpec(event_refs=((inning, half),)))

    specs.append(ParagraphPlanSpec((visiting, home)))
    for team in (visiting, home):
        for p in players:
            specs.append(ParagraphPlanSpec((team, p)))
    for p in players:
        specs.append(ParagraphPlanSpec((p, visiting, home)))
    if game.kind == "event-free":
        for i in range(len(players)):
            for j in range(i + 1, len(players)):
                specs.append(ParagraphPlanSpec((players[i], players[j])))
    return specs


def augment_with_gold(candidates: list[ParagraphPlanSpec],
                      gold: list[ParagraphPlanSpec]) -> list[ParagraphPlanSpec]:
    """Training-time candidate set: candidates plus any gold spec not already
    present (equal entity and event refs)."""
    present = set(candidates)
    out = list(candidates)
    for g in gold:
        if g not in present:
            present.add(g)
            out.append(g)
    return out
