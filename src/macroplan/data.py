"""Game data model, tokenization, serialization and paragraph reconstruction."""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "EntityRecord",
    "PlayEvent",
    "SummaryDoc",
    "Game",
    "GameValidationError",
    "KIND_ORDER",
    "tokenize",
    "split_sentences",
    "load_games",
    "save_games",
    "numeric_value",
]


class GameValidationError(ValueError):
    """Raised when a game violates a structural invariant."""


#: The attribute types an entity of each kind carries, in the exact order
#: they are verbalized.
KIND_ORDER = {
    "team": ("TR", "TH", "E"),
    "batter": ("H/V", "AB", "BR", "BH", "RBI", "TEAM"),
    "pitcher": ("H/V", "W", "L", "IP", "PH", "PR", "ER", "BB", "K", "TEAM"),
}


def numeric_value(value: str):
    """Parse an attribute value as int or float; returns None for non-numeric."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


@dataclass(frozen=True)
class EntityRecord:
    name: str
    kind: str  # "team" | "player"
    side: str  # "home" | "visiting"
    attributes: tuple[tuple[str, str], ...]

    @property
    def attr_map(self) -> dict[str, str]:
        return dict(self.attributes)

    def player_role(self) -> str:
        """Return "batter" or "pitcher" based on which attribute order matches."""
        types = tuple(t for t, _ in self.attributes)
        for role in ("batter", "pitcher"):
            if types == KIND_ORDER[role]:
                return role
        raise GameValidationError(
            f"player {self.name!r} attributes match no schema kind: {types}")

    def validate(self) -> None:
        types = tuple(t for t, _ in self.attributes)
        if self.kind == "team":
            expected = (KIND_ORDER["team"],)
        else:
            expected = (KIND_ORDER["batter"], KIND_ORDER["pitcher"])
        if types not in expected:
            raise GameValidationError(
                f"entity {self.name!r}: attribute order {types} does not follow schema")
        for t, v in self.attributes:
            if not v:
                raise GameValidationError(f"entity {self.name!r}: empty value for {t}")


@dataclass(frozen=True)
class PlayEvent:
    inning: int
    half: str  # "T" | "B"
    play_id: int
    batter: str
    pitcher: str
    action: str
    scores: tuple[int, int]  # (batting-team runs, pitching-team runs) after the play
    batting_team: str
    pitching_team: str
    scorer: str | None = None
    fielder: str | None = None
    basemen: tuple[str, ...] = ()

    @property
    def half_key(self) -> tuple[int, str]:
        return (self.inning, self.half)

    def participants(self) -> list[str]:
        """Entities involved, in the fixed role order batter, pitcher, fielder,
        scorer, basemen, followed by the two teams."""
        out = [self.batter, self.pitcher]
        if self.fielder:
            out.append(self.fielder)
        if self.scorer:
            out.append(self.scorer)
        out.extend(self.basemen)
        out.extend([self.batting_team, self.pitching_team])
        return out


@dataclass(frozen=True)
class SummaryDoc:
    paragraphs: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        for p in self.paragraphs:
            if not p:
                raise GameValidationError("summary contains an empty paragraph")
            for tok in p:
                if any(c.isspace() for c in tok):
                    raise GameValidationError(f"summary token contains whitespace: {tok!r}")

    @staticmethod
    def from_lists(paragraphs) -> "SummaryDoc":
        return SummaryDoc(tuple(tuple(p) for p in paragraphs))

    def tokens(self) -> list[str]:
        return [t for p in self.paragraphs for t in p]


@dataclass(frozen=True)
class Game:
    id: str
    kind: str  # "event-rich" | "event-free"
    entities: tuple[EntityRecord, ...]
    events: tuple[PlayEvent, ...]
    summary: SummaryDoc

    @property
    def teams(self) -> tuple[EntityRecord, ...]:
        return tuple(e for e in self.entities if e.kind == "team")

    @property
    def players(self) -> tuple[EntityRecord, ...]:
        return tuple(e for e in self.entities if e.kind == "player")

    @property
    def visiting_team(self) -> EntityRecord:
        return next(e for e in self.teams if e.side == "visiting")

    @property
    def home_team(self) -> EntityRecord:
        return next(e for e in self.teams if e.side == "home")

    def entity(self, name: str) -> EntityRecord:
        for e in self.entities:
            if e.name == name:
                return e
        raise KeyError(name)

    def halves(self) -> list[tuple[int, str]]:
        """Half-innings present in play-by-play, in (inning, T-before-B) order."""
        seen = sorted({ev.half_key for ev in self.events},
                      key=lambda k: (k[0], 0 if k[1] == "T" else 1))
        return seen

    def plays_in_half(self, inning: int, half: str) -> list[PlayEvent]:
        plays = [ev for ev in self.events if ev.inning == inning and ev.half == half]
        return sorted(plays, key=lambda ev: ev.play_id)

    def validate(self) -> None:
        gid = self.id
        if self.kind not in ("event-rich", "event-free"):
            raise GameValidationError(f"game {gid}: unknown kind {self.kind!r}")
        if len(self.teams) != 2:
            raise GameValidationError(f"game {gid}: expected exactly two team entities")
        names = [e.name for e in self.entities]
        if len(set(names)) != len(names):
            raise GameValidationError(f"game {gid}: duplicate entity names")
        for e in self.entities:
            e.validate()
        if self.kind == "event-free" and self.events:
            raise GameValidationError(f"game {gid}: event-free game has play-by-play")
        known = set(names)
        for ev in self.events:
            for who in ev.participants():
                if who not in known:
                    raise GameValidationError(
                        f"game {gid}: unknown entity {who!r} in play "
                        f"{ev.inning}-{ev.half},{ev.play_id}")
        # play ids consecutive from 1 within each half
        for inning, half in self.halves():
            ids = [ev.play_id for ev in self.plays_in_half(inning, half)]
            if ids != list(range(1, len(ids) + 1)):
                raise GameValidationError(
                    f"game {gid}: play ids in {inning}-{half} not consecutive: {ids}")
        # scores non-decreasing per team across the game
        team_runs = {t.name: 0 for t in self.teams}
        for ev in sorted(self.events,
                         key=lambda e: (e.inning, 0 if e.half == "T" else 1, e.play_id)):
            bat, pit = ev.scores
            if bat < team_runs[ev.batting_team] or pit < team_runs[ev.pitching_team]:
                raise GameValidationError(
                    f"game {gid}: decreasing score at {ev.inning}-{ev.half},{ev.play_id}")
            team_runs[ev.batting_team] = bat
            team_runs[ev.pitching_team] = pit


# ---------------------------------------------------------------------------
# Tokenization

_TERMINAL_PUNCT = {".", ",", ";", ":", "!", "?", "(", ")", "--"}


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with terminal punctuation split off.

    Within-token hyphens and apostrophes are preserved ("9-2", "O'Hearn"),
    while . , ; : ! ? ( ) and -- become tokens of their own.
    """
    out: list[str] = []
    for chunk in text.split():
        out.extend(_split_chunk(chunk))
    return out


def _split_chunk(chunk: str) -> list[str]:
    if not chunk:
        return []
    if chunk in _TERMINAL_PUNCT:
        return [chunk]
    if "--" in chunk and chunk != "--":
        left, _, right = chunk.partition("--")
        return _split_chunk(left) + ["--"] + _split_chunk(right)
    head: list[str] = []
    tail: list[str] = []
    while chunk and chunk[0] in ".,;:!?()":
        head.append(chunk[0])
        chunk = chunk[1:]
    while chunk and chunk[-1] in ",;:!?()":
        tail.insert(0, chunk[-1])
        chunk = chunk[:-1]
    # a single trailing period is terminal unless part of an abbreviation like "C.Mullins"
    if chunk.endswith(".") and not _is_abbrevlike(chunk):
        tail.insert(0, ".")
        chunk = chunk[:-1]
    return head + ([chunk] if chunk else []) + tail


def _is_abbrevlike(chunk: str) -> bool:
    # "Mo." style abbreviations keep a final period only when a period also
    # appears in the interior ("U.S." stays whole); "runs." does not qualify.
    return "." in chunk[:-1] and len(chunk) <= 4


def split_sentences(tokens: list[str]) -> list[list[str]]:
    """Split a token stream on terminal punctuation (. ! ?) followed by a
    capitalized token (or end of stream)."""
    sentences: list[list[str]] = []
    current: list[str] = []
    for i, tok in enumerate(tokens):
        current.append(tok)
        if tok in (".", "!", "?"):
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is None or (nxt[:1].isupper() or nxt[:1].isdigit()):
                sentences.append(current)
                current = []
    if current:
        sentences.append(current)
    return sentences


# ---------------------------------------------------------------------------
# Serialization (one game per line, JSON objects with fixed field names)


def _entity_to_obj(e: EntityRecord) -> dict:
    return {"name": e.name, "side": e.side,
            "attributes": [[t, v] for t, v in e.attributes]}


def _entity_from_obj(obj: dict, kind: str) -> EntityRecord:
    return EntityRecord(
        name=obj["name"], kind=kind, side=obj["side"],
        attributes=tuple((t, v) for t, v in obj["attributes"]))


def _play_to_obj(ev: PlayEvent) -> dict:
    obj = {
        "inning": ev.inning, "half": ev.half, "play_id": ev.play_id,
        "batter": ev.batter, "pitcher": ev.pitcher, "action": ev.action,
        "scores": list(ev.scores), "batting_team": ev.batting_team,
        "pitching_team": ev.pitching_team,
    }
    if ev.scorer:
        obj["scorer"] = ev.scorer
    if ev.fielder:
        obj["fielder"] = ev.fielder
    if ev.basemen:
        obj["basemen"] = list(ev.basemen)
    return obj


def _play_from_obj(obj: dict) -> PlayEvent:
    return PlayEvent(
        inning=obj["inning"], half=obj["half"], play_id=obj["play_id"],
        batter=obj["batter"], pitcher=obj["pitcher"], action=obj["action"],
        scores=tuple(obj["scores"]), batting_team=obj["batting_team"],
        pitching_team=obj["pitching_team"], scorer=obj.get("scorer"),
        fielder=obj.get("fielder"), basemen=tuple(obj.get("basemen", ())))


def game_to_obj(game: Game) -> dict:
    return {
        "id": game.id,
        "kind": game.kind,
        "teams": [_entity_to_obj(t) for t in game.teams],
        "players": [_entity_to_obj(p) for p in game.players],
        "plays": [_play_to_obj(ev) for ev in game.events],
        "summary_paragraphs": [list(p) for p in game.summary.paragraphs],
    }


def game_from_obj(obj: dict) -> Game:
    game = Game(
        id=obj["id"],
        kind=obj["kind"],
        entities=tuple([_entity_from_obj(t, "team") for t in obj["teams"]]
                       + [_entity_from_obj(p, "player") for p in obj["players"]]),
        events=tuple(_play_from_obj(p) for p in obj["plays"]),
        summary=SummaryDoc.from_lists(obj["summary_paragraphs"]),
    )
    return game


def load_games(path) -> list[Game]:
    games = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed game object: {exc}") from exc
            try:
                game = game_from_obj(obj)
                game.validate()
            except (KeyError, TypeError, GameValidationError) as exc:
                gid = obj.get("id", "?") if isinstance(obj, dict) else "?"
                raise ValueError(
                    f"{path}:{lineno}: invalid game {gid!r}: {exc}") from exc
            games.append(game)
    return games


def save_games(path, games: list[Game]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for game in games:
            fh.write(json.dumps(game_to_obj(game), sort_keys=True) + "\n")
