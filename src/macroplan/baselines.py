"""Non-neural reference systems: a template summarizer whose every extracted
relation is table-supported, and a deterministic plan realizer whose output
can be reverse-engineered back into the same plan."""

from __future__ import annotations

from .data import Game, SummaryDoc
from .oracle import ORDINAL_WORDS
from .verbalize import ParagraphPlanSpec

__all__ = ["templ_summary", "realize_plan_template"]

_ORDINAL_BY_NUMBER = {v: k for k, v in ORDINAL_WORDS.items()}
#: how many batters (by RBI, then hits) and pitchers (by strikeouts)
#: :func:`templ_summary` describes
TOP_BATTERS = 4
TOP_PITCHERS = 2


def _winner_loser(game: Game):
    v, h = game.visiting_team, game.home_team
    vr, hr = int(v.attr_map["TR"]), int(h.attr_map["TR"])
    if hr > vr:
        return h, v
    return v, h  # ties go to the visiting side, which bats first


def _team_sentence(team) -> list[str]:
    a = team.attr_map
    return ["The", team.name, "scored", a["TR"], "runs", "on", a["TH"],
            "hits", "and", "committed", a["E"], "errors", "."]


def _batter_sentence(player) -> list[str]:
    a = player.attr_map
    return [player.name, "had", a["AB"], "at-bats", ",", a["BR"], "runs",
            ",", a["BH"], "hits", "and", a["RBI"], "RBI", "."]


def _pitcher_sentence(player) -> list[str]:
    a = player.attr_map
    return [player.name, "pitched", a["IP"], "innings", "and", "recorded",
            a["K"], "strikeouts", "and", a["BB"], "walks", "."]


def _player_sentence(player) -> list[str]:
    return _batter_sentence(player) if player.player_role() == "batter" \
        else _pitcher_sentence(player)


def _half_sentences(game: Game, inning: int, half: str) -> list[str]:
    tokens: list[str] = []
    for ev in game.plays_in_half(inning, half):
        tokens.extend(["In", "the", _ORDINAL_BY_NUMBER[inning], "inning", ",",
                       ev.batter, ev.action, "against", ev.pitcher, "."])
    return tokens


def templ_summary(game: Game) -> SummaryDoc:
    """Fixed-layout summary.  Numeric sentences carry exactly one entity and
    pair each number with an adjacent type-defining cue word, so rule-based
    extraction recovers only table-supported relations."""
    winner, loser = _winner_loser(game)
    paragraphs: list[list[str]] = []
    paragraphs.append(["The", winner.name, "defeated", "the", loser.name,
                       "on", winner.side, "ground", "."])
    paragraphs.append(_team_sentence(game.visiting_team)
                      + _team_sentence(game.home_team))

    def sort_key(rec_types):
        def key(p):
            a = p.attr_map
            return tuple(-int(a[t]) for t in rec_types) + (p.name,)
        return key

    batters = [p for p in game.players
               if p.player_role() == "batter"]
    pitchers = [p for p in game.players
                if p.player_role() == "pitcher"]
    player_tokens: list[str] = []
    for p in sorted(batters, key=sort_key(("RBI", "BH")))[:TOP_BATTERS]:
        player_tokens.extend(_batter_sentence(p))
    for p in sorted(pitchers, key=sort_key(("K",)))[:TOP_PITCHERS]:
        player_tokens.extend(_pitcher_sentence(p))
    if player_tokens:
        paragraphs.append(player_tokens)

    for inning, half in game.halves():
        tokens = _half_sentences(game, inning, half)
        if tokens:
            paragraphs.append(tokens)

    paragraphs.append(["The", winner.name, "won", "the", "game", "."])
    return SummaryDoc.from_lists(paragraphs)


# ---------------------------------------------------------------------------
# Plan realization


def _mention_sentence(names: list[str]) -> list[str]:
    tokens: list[str] = []
    for i, name in enumerate(names):
        if i > 0:
            tokens.append("and" if i == len(names) - 1 else ",")
        tokens.append(name)
    tokens.extend(["featured", "in", "the", "game", "."])
    return tokens


def realize_plan_template(specs: list[ParagraphPlanSpec],
                          game: Game) -> SummaryDoc:
    """One paragraph per paragraph plan, phrased so that reverse plan
    derivation recovers the same entity and event references in order:
    entities are named in spec order with no stray ordinals, and each
    half-inning is introduced by "In the <ordinal> inning" with the batter
    and pitcher of its plays named alongside."""
    paragraphs: list[list[str]] = []
    for spec in specs:
        tokens: list[str] = []
        entities = list(spec.entity_refs)
        if len(entities) == 1:
            rec = game.entity(entities[0])
            if rec.kind == "team":
                tokens.extend(_team_sentence(rec))
            else:
                tokens.extend(_player_sentence(rec))
        elif entities:
            tokens.extend(_mention_sentence(entities))
        for inning, half in spec.event_refs:
            tokens.extend(_half_sentences(game, inning, half))
        if not tokens:
            raise ValueError(f"cannot realize empty plan spec {spec!r}")
        paragraphs.append(tokens)
    if not paragraphs:
        raise ValueError("cannot realize an empty plan")
    return SummaryDoc.from_lists(paragraphs)

