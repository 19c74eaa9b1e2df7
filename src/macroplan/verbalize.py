"""Verbalization of entities, plays and half-inning events into paragraph-plan
token sequences, and the ``V(...)`` shorthand plan files write paragraph plans
in.

Record fields render as marker-fused tokens (``<TR>9``); markers, ``<P>`` and
``EOM`` are structural tokens that tokenization and BPE never split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .data import EntityRecord, Game, PlayEvent

__all__ = [
    "ParagraphPlanSpec",
    "PARAGRAPH_SEP",
    "EOM_TOKEN",
    "verbalize_entity",
    "verbalize_play",
    "verbalize_event_group",
    "verbalize_plan",
    "strip_marker",
    "is_marker_token",
    "render_spec",
    "parse_spec",
]

PARAGRAPH_SEP = "<P>"
EOM_TOKEN = "EOM"


@dataclass(frozen=True)
class ParagraphPlanSpec:
    """A symbolic plan for one output paragraph: the entities and the
    half-innings it covers."""

    entity_refs: tuple[str, ...] = ()
    event_refs: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if not self.entity_refs and not self.event_refs:
            raise ValueError("plan paragraph references nothing")

    def identifiers(self) -> list[str]:
        """Entity/event identifiers for intrinsic plan evaluation."""
        out = [f"E:{name}" for name in self.entity_refs]
        out.extend(f"V:{i}-{h}" for i, h in self.event_refs)
        return out


def is_marker_token(token: str) -> bool:
    return token.startswith("<") and ">" in token


def strip_marker(token: str) -> str:
    """``<TR>9`` -> ``9``; non-marker tokens pass through."""
    if is_marker_token(token):
        return token[token.index(">") + 1:]
    return token


def verbalize_entity(rec: EntityRecord) -> list[str]:
    """Alternating type-marker/value rendering in schema order, name first."""
    head = "<TEAM>" if rec.kind == "team" else "<PLAYER>"
    tokens = [head + rec.name]
    for rec_type, value in rec.attributes:
        tokens.append(f"<{rec_type}>{value}")
    return tokens


def verbalize_play(ev: PlayEvent) -> list[str]:
    tokens = [
        f"<INN>{ev.inning}",
        f"<HALF>{ev.half}",
        f"<BATTING>{ev.batting_team}",
        f"<PITCHING>{ev.pitching_team}",
        f"<PL-ID>{ev.play_id}",
        f"<BATTER>{ev.batter}",
        f"<PITCHER>{ev.pitcher}",
    ]
    if ev.scorer:
        tokens.append(f"<SCORER>{ev.scorer}")
    if ev.fielder:
        tokens.append(f"<FIELDER>{ev.fielder}")
    for name in ev.basemen:
        tokens.append(f"<BASEMEN>{name}")
    tokens.append(f"<ACTION>{ev.action}")
    bat, pit = ev.scores
    tokens.append(f"<SCORES>{ev.batting_team}-{bat}-{ev.pitching_team}-{pit}")
    return tokens


def _event_participants(halves, game: Game) -> list[str]:
    """Participating entities in first-appearance order: plays scanned in
    (half order, play_id) order, within a play batter, pitcher, fielder,
    scorer, basemen."""
    seen: list[str] = []
    for inning, half in halves:
        for ev in game.plays_in_half(inning, half):
            for name in (ev.batter, ev.pitcher, ev.fielder, ev.scorer, *ev.basemen):
                if name and name not in seen:
                    seen.append(name)
    return seen


def verbalize_event_group(halves, game: Game) -> list[str]:
    """Entities once each in first-appearance order, then every play of each
    half in play_id order."""
    if game.kind != "event-rich":
        raise ValueError("event verbalization requires an event-rich game")
    present = set(game.halves())
    for hk in halves:
        if tuple(hk) not in present:
            raise ValueError(f"unknown half-inning {hk[0]}-{hk[1]}")
    tokens: list[str] = []
    for name in _event_participants(halves, game):
        tokens.extend(verbalize_entity(game.entity(name)))
    for inning, half in halves:
        for ev in game.plays_in_half(inning, half):
            tokens.extend(verbalize_play(ev))
    return tokens


def verbalize_plan(spec: ParagraphPlanSpec, game: Game) -> tuple[str, ...]:
    """The tokens of ``spec`` against ``game``: entities in spec order (first
    mention only), then event groups."""
    tokens: list[str] = []
    seen: set[str] = set()
    for name in spec.entity_refs:
        if name in seen:
            continue
        seen.add(name)
        try:
            rec = game.entity(name)
        except KeyError:
            raise ValueError(f"plan references unknown entity {name!r}") from None
        tokens.extend(verbalize_entity(rec))
    if spec.event_refs:
        tokens.extend(verbalize_event_group(spec.event_refs, game))
    return tuple(tokens)


def render_spec(spec: ParagraphPlanSpec) -> str:
    """Figure-style shorthand: ``V(name)`` / ``V(4-B, 5-B)``."""
    parts = [f"V({name})" for name in spec.entity_refs]
    if spec.event_refs:
        inner = ", ".join(f"{i}-{h}" for i, h in spec.event_refs)
        parts.append(f"V({inner})")
    return " ".join(parts)


_GROUP = re.compile(r"V\(([^)]*)\)")
_EVENT_REF = re.compile(r"^(\d+)-([TB])$")


def parse_spec(text: str) -> ParagraphPlanSpec:
    """The inverse of :func:`render_spec`: a group of half-innings only is
    an event group, any other group an entity name."""
    entity_refs: list[str] = []
    event_refs: list[tuple[int, str]] = []
    for inner in _GROUP.findall(text):
        matches = [_EVENT_REF.match(x.strip()) for x in inner.split(",")]
        if all(matches):
            event_refs.extend((int(m.group(1)), m.group(2)) for m in matches)
        else:
            entity_refs.append(inner)
    return ParagraphPlanSpec(tuple(entity_refs), tuple(event_refs))
