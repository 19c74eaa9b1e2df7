"""Gold macro-plan construction from (tables, summary) pairs.

Inning-mention disambiguation uses a deterministic cue-lexicon heuristic in
place of a pretrained-LM scorer.  Its cues are fixed, and the entity matcher
knows full names and surnames only, so every run derives plans by the same
rules.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .data import Game, numeric_value, tokenize
from .verbalize import ParagraphPlanSpec

log = logging.getLogger(__name__)

__all__ = [
    "EntityMention",
    "phrase_index",
    "match_entities",
    "classify_inning_mention",
    "resolve_half",
    "derive_macro_plan",
    "ORDINAL_WORDS",
]

ORDINAL_WORDS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
    "eleventh": 11, "twelfth": 12, "thirteenth": 13, "fourteenth": 14,
    "fifteenth": 15, "sixteenth": 16, "seventeenth": 17, "eighteenth": 18,
    "nineteenth": 19, "twentieth": 20,
}


@dataclass(frozen=True)
class EntityMention:
    entity: str
    token_span: tuple[int, int]  # [start, end) indices in the paragraph


#: cue patterns for the inning-mention heuristic: a verb within
#: ``CUE_WINDOW`` tokens of an ordinal marks an inning, a noun right after it
#: rules one out
CUE_VERBS = frozenset({"led", "scored", "homered", "singled", "doubled",
                       "walked"})
NON_INNING_NOUNS = frozenset({"batter", "pitch", "base", "game", "start",
                              "season"})
CUE_WINDOW = 6

_PUNCT = {".", ",", ";", ":", "!", "?", "(", ")", "--"}


# ---------------------------------------------------------------------------
# Entity matching


def _surname(name: str) -> str:
    if "." in name:
        return name.rsplit(".", 1)[-1]
    return name.split()[-1] if " " in name else name


def _player_volume(rec) -> float:
    # disambiguation weight: plate appearances for batters, innings pitched
    # for pitchers
    attrs = rec.attr_map
    for key in ("AB", "IP"):
        if key in attrs:
            val = numeric_value(attrs[key])
            if val is not None:
                return float(val)
    return 0.0


def phrase_index(game: Game) -> dict[tuple[str, ...], str]:
    """phrase (token tuple) -> best entity name, longest-match ready: what
    :func:`match_entities` scans a paragraph of ``game`` against."""
    candidates: dict[tuple[str, ...], list[tuple[float, str]]] = {}

    def add(phrase: tuple[str, ...], priority: float, name: str):
        candidates.setdefault(phrase, []).append((priority, name))

    for e in game.entities:
        add(tuple(tokenize(e.name)), 100.0, e.name)  # full name wins outright
        if e.kind == "player":
            s = _surname(e.name)
            if s != e.name:
                add((s,), _player_volume(e), e.name)

    index = {}
    for phrase, options in candidates.items():
        options.sort(key=lambda pr: (-pr[0], pr[1]))
        index[phrase] = options[0][1]
    return index


def match_entities(paragraph: list[str],
                   index: dict[tuple[str, ...], str]) -> list[EntityMention]:
    """Longest-match scan over token n-grams against a game's
    :func:`phrase_index` of entity names and player surnames; one mention
    per entity, first occurrence."""
    max_len = max((len(p) for p in index), default=0)
    mentions: list[EntityMention] = []
    seen: set[str] = set()
    i = 0
    n = len(paragraph)
    while i < n:
        matched = False
        for length in range(min(max_len, n - i), 0, -1):
            phrase = tuple(paragraph[i:i + length])
            name = index.get(phrase)
            if name is not None:
                if name not in seen:
                    seen.add(name)
                    mentions.append(EntityMention(name, (i, i + length)))
                i += length
                matched = True
                break
        if not matched:
            i += 1
    return mentions


# ---------------------------------------------------------------------------
# Inning mentions


def _next_non_punct(tokens: list[str], idx: int) -> str | None:
    for tok in tokens[idx + 1:]:
        if tok not in _PUNCT:
            return tok
    return None


def classify_inning_mention(paragraph: list[str], ordinal_index: int) -> bool:
    """True iff the ordinal at ``ordinal_index`` denotes an inning."""
    if not (0 <= ordinal_index < len(paragraph)):
        raise IndexError(f"ordinal index {ordinal_index} out of range")
    word = paragraph[ordinal_index].lower()
    if word not in ORDINAL_WORDS:
        raise ValueError(f"token {paragraph[ordinal_index]!r} is not an ordinal")

    nxt = _next_non_punct(paragraph, ordinal_index)
    if nxt is not None and nxt.lower() in ("inning", "innings"):
        return True
    if nxt is not None and nxt.lower() in NON_INNING_NOUNS:
        return False

    lo = max(0, ordinal_index - CUE_WINDOW)
    hi = min(len(paragraph), ordinal_index + CUE_WINDOW + 1)
    window = [t.lower() for t in paragraph[lo:hi]]

    cue = False
    # "in the <ordinal>"
    if (ordinal_index >= 2
            and paragraph[ordinal_index - 1].lower() == "the"
            and paragraph[ordinal_index - 2].lower() == "in"):
        cue = True
    # score-change pattern "tied X-Y"
    if not cue and "tied" in window:
        t = lo + window.index("tied")
        nxt_score = _next_non_punct(paragraph, t)
        if nxt_score is not None and _looks_like_score(nxt_score):
            cue = True
    if not cue and any(v in window for v in CUE_VERBS):
        cue = True
    return cue


def _looks_like_score(tok: str) -> bool:
    parts = tok.split("-")
    return len(parts) == 2 and all(p.isdigit() for p in parts)


def find_inning_mentions(paragraph: list[str], game: Game) -> list[int]:
    """Ordinal token indices classified as inning mentions, in textual order."""
    max_inning = max((ev.inning for ev in game.events), default=0)
    out = []
    for i, tok in enumerate(paragraph):
        inning = ORDINAL_WORDS.get(tok.lower())
        if inning is None or inning > max_inning:
            continue
        if classify_inning_mention(paragraph, i):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# Half resolution


def resolve_half(inning: int, mentions: list[EntityMention], game: Game) -> str:
    """Pick the half of ``inning`` whose play participants overlap the
    paragraph's entities most; ties go to the half whose earliest-matching
    entity appears first, then to T."""
    halves = [h for i, h in game.halves() if i == inning]
    if not halves:
        raise ValueError(f"inning {inning} absent from play-by-play")
    if len(halves) == 1:
        return halves[0]
    participants = {}
    for h in halves:
        participants[h] = {name for ev in game.plays_in_half(inning, h)
                           for name in ev.participants()}
    ents = [m.entity for m in mentions]
    counts = {h: len(set(ents) & participants[h]) for h in halves}
    if counts["T"] != counts["B"]:
        return max(halves, key=lambda h: counts[h])
    for m in mentions:  # earliest entity present in exactly one half decides
        in_t = m.entity in participants["T"]
        in_b = m.entity in participants["B"]
        if in_t != in_b:
            return "T" if in_t else "B"
    return "T"


# ---------------------------------------------------------------------------
# Macro plan derivation


def derive_macro_plan(game: Game):
    """One ParagraphPlanSpec per summary paragraph, in paragraph order.
    Paragraphs matching nothing are dropped with a warning."""
    specs: list[ParagraphPlanSpec] = []
    index = phrase_index(game)
    for p_idx, paragraph in enumerate(game.summary.paragraphs):
        paragraph = list(paragraph)
        mentions = match_entities(paragraph, index)

        event_refs: list[tuple[int, str]] = []
        if game.kind == "event-rich":
            for idx in find_inning_mentions(paragraph, game):
                inning = ORDINAL_WORDS[paragraph[idx].lower()]
                try:
                    half = resolve_half(inning, mentions, game)
                except ValueError:
                    continue
                ref = (inning, half)
                if ref not in event_refs:
                    event_refs.append(ref)

        covered: set[str] = set()
        for inning, half in event_refs:
            for ev in game.plays_in_half(inning, half):
                covered.update(ev.participants())
        entity_refs = tuple(m.entity for m in mentions if m.entity not in covered)

        if not entity_refs and not event_refs:
            log.warning("game %s: paragraph %d matches no entity or event; dropped",
                        game.id, p_idx)
            continue
        specs.append(ParagraphPlanSpec(entity_refs, tuple(event_refs)))
    return specs
