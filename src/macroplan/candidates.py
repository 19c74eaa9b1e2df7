"""Candidate paragraph-plan enumeration and gold augmentation."""

from __future__ import annotations

from .data import Game
from .verbalize import ParagraphPlanSpec, verbalize_plan

__all__ = ["enumerate_candidates", "augment_with_gold"]


def enumerate_candidates(game: Game) -> list[ParagraphPlanSpec]:
    """The candidate set E: singletons (teams, players, half-innings) followed
    by combinations (team-pair, team+player, player+both-teams, and, for
    event-free data, player+player pairs)."""
    visiting, home = game.visiting_team.name, game.home_team.name
    players = [p.name for p in game.players]

    specs: list[ParagraphPlanSpec] = []
    specs.append(ParagraphPlanSpec("entity-singleton", (visiting,)))
    specs.append(ParagraphPlanSpec("entity-singleton", (home,)))
    for p in players:
        specs.append(ParagraphPlanSpec("entity-singleton", (p,)))
    if game.kind == "event-rich":
        for inning, half in game.halves():
            specs.append(ParagraphPlanSpec("event-group", (), ((inning, half),)))

    specs.append(ParagraphPlanSpec("entity-pair", (visiting, home)))
    for team in (visiting, home):
        for p in players:
            specs.append(ParagraphPlanSpec("entity-pair", (team, p)))
    for p in players:
        specs.append(ParagraphPlanSpec("entity-pair", (p, visiting, home)))
    if game.kind == "event-free":
        for i in range(len(players)):
            for j in range(i + 1, len(players)):
                specs.append(ParagraphPlanSpec("entity-pair",
                                               (players[i], players[j])))
    return [verbalize_plan(s, game) for s in specs]


def augment_with_gold(candidates: list[ParagraphPlanSpec],
                      gold: list[ParagraphPlanSpec]) -> list[ParagraphPlanSpec]:
    """Training-time candidate set: candidates plus any gold spec not already
    present (equality on kind, entity refs, event refs)."""
    present = {c.identity() for c in candidates}
    out = list(candidates)
    for g in gold:
        if g.identity() not in present:
            present.add(g.identity())
            out.append(g)
    return out
