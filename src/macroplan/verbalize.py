"""Verbalization of entities, plays and half-inning events into paragraph-plan
token sequences.

Record fields render as marker-fused tokens (``<TR>9``); markers, ``<P>`` and
``EOM`` are structural tokens that tokenization and BPE never split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
]

PARAGRAPH_SEP = "<P>"
EOM_TOKEN = "EOM"


@dataclass(frozen=True)
class ParagraphPlanSpec:
    """A symbolic plan for one output paragraph.

    ``kind`` is one of entity-singleton, entity-pair, event-group, mixed-gold.
    ``tokens`` is empty until :func:`verbalize_plan` fills it.
    """

    kind: str
    entity_refs: tuple[str, ...] = ()
    event_refs: tuple[tuple[int, str], ...] = ()
    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == "entity-singleton":
            ok = len(self.entity_refs) == 1 and not self.event_refs
        elif self.kind == "entity-pair":
            ok = 2 <= len(self.entity_refs) <= 3 and not self.event_refs
        elif self.kind == "event-group":
            ok = len(self.event_refs) >= 1
        elif self.kind == "mixed-gold":
            ok = bool(self.entity_refs) or bool(self.event_refs)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid plan spec: kind={self.kind!r} "
                             f"entities={self.entity_refs} events={self.event_refs}")

    def identity(self) -> tuple:
        """Equality key used for gold augmentation (tokens excluded)."""
        return (self.kind, self.entity_refs, self.event_refs)

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


def verbalize_plan(spec: ParagraphPlanSpec, game: Game) -> ParagraphPlanSpec:
    """Fill ``spec.tokens``: entities in spec order (first mention only),
    then event groups."""
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
    if not tokens:
        raise ValueError("plan spec verbalizes to an empty sequence")
    return replace(spec, tokens=tuple(tokens))


def render_spec(spec: ParagraphPlanSpec) -> str:
    """Figure-style shorthand: ``V(name)`` / ``V(4-B, 5-B)``."""
    parts = [f"V({name})" for name in spec.entity_refs]
    if spec.event_refs:
        inner = ", ".join(f"{i}-{h}" for i, h in spec.event_refs)
        parts.append(f"V({inner})")
    return " ".join(parts)
