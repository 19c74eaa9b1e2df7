"""Synthetic two-team league generator with internally consistent box scores,
play-by-play, deterministic gold macro plans, and template gold summaries."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baselines import realize_plan_template
from .data import (EntityRecord, Game, GameValidationError, PlayEvent,
                   SummaryDoc)
from .verbalize import ParagraphPlanSpec

__all__ = ["SynthConfig", "synth_league", "gold_plan_specs",
           "check_consistency"]

TEAM_POOL = (
    "Falcons", "Comets", "Pilots", "Miners", "Sailors", "Drifters",
    "Larks", "Badgers", "Herons", "Otters", "Vipers", "Condors",
    "Marmots", "Ospreys", "Bisons", "Lynxes", "Ravens", "Stags",
    "Wolverines", "Petrels", "Gannets", "Ibexes", "Terns", "Wombats",
)

_NAME_PREFIXES = ("Bar", "Cor", "Dal", "Fen", "Gar", "Hol", "Jar", "Kel",
                  "Lan", "Mor", "Nor", "Pel", "Quin", "Ram", "Sal", "Tor",
                  "Vin", "Wal", "Yor", "Zel")
_NAME_SUFFIXES = ("ano", "berg", "dano", "ello", "ford", "gust", "hart",
                  "ins", "kins", "lund", "man", "ner", "osa", "quist",
                  "ridge", "son", "tana", "vich", "wick", "mer")

PLAYER_POOL = tuple(p + s for p in _NAME_PREFIXES for s in _NAME_SUFFIXES)

#: a batter with at least this many RBI gets a paragraph of the gold plan
RBI_HIGHLIGHT_THRESHOLD = 2


@dataclass(frozen=True)
class SynthConfig:
    games: int = 500
    innings: int = 4
    batters_per_team: int = 2
    pitchers_per_team: int = 1
    seed: int = 7
    kind: str = "event-rich"  # or "event-free"
    merge_probability: float = 0.25

    def __post_init__(self):
        if self.kind not in ("event-rich", "event-free"):
            raise ValueError(f"unknown game kind {self.kind!r}")
        if self.innings < 1 or self.innings > 20:
            raise ValueError("innings must be in [1, 20]")
        if self.games < 1:
            raise ValueError("need at least one game")


def synth_league(cfg: SynthConfig) -> list[tuple[Game, list[ParagraphPlanSpec]]]:
    """Generate ``cfg.games`` games with gold paragraph-plan specs; each
    game's summary is the deterministic realization of its gold plan."""
    rng = np.random.default_rng(cfg.seed)
    out = []
    for g in range(cfg.games):
        game = _one_game(cfg, rng, f"synth-{cfg.kind}-{g:04d}")
        specs = gold_plan_specs(game, cfg, rng)
        game = replace(game, summary=realize_plan_template(specs, game))
        game.validate()
        out.append((game, specs))
    return out


def _pick_names(rng, pool, count):
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(idx)]


def _one_game(cfg: SynthConfig, rng: np.random.Generator, gid: str) -> Game:
    v_name, h_name = _pick_names(rng, TEAM_POOL, 2)
    per_team = cfg.batters_per_team + cfg.pitchers_per_team
    names = _pick_names(rng, PLAYER_POOL, 2 * per_team)
    v_batters = names[:cfg.batters_per_team]
    v_pitchers = names[cfg.batters_per_team:per_team]
    h_batters = names[per_team:per_team + cfg.batters_per_team]
    h_pitchers = names[per_team + cfg.batters_per_team:]

    if cfg.kind == "event-free":
        return _event_free_game(cfg, rng, gid, v_name, h_name,
                                v_batters, v_pitchers, h_batters, h_pitchers)

    for _attempt in range(50):
        events, totals, batting = _simulate_plays(
            cfg, rng, v_name, h_name, v_batters, h_batters)
        if totals[v_name] != totals[h_name] and events:
            break
    else:
        raise GameValidationError(f"{gid}: could not draw a decided game")

    entities = _build_entities(cfg, rng, v_name, h_name, v_batters, v_pitchers,
                               h_batters, h_pitchers, totals, batting)
    events = _fill_pitchers(events, v_pitchers[0], h_pitchers[0])
    return Game(id=gid, kind="event-rich", entities=tuple(entities),
                events=tuple(events),
                summary=SummaryDoc.from_lists([["placeholder", "."]]))


def _simulate_plays(cfg, rng, v_name, h_name, v_batters, h_batters):
    """Scoring plays only; returns (events, team run totals, batting stats)."""
    totals = {v_name: 0, h_name: 0}
    batting = {name: {"BH": 0, "BR": 0, "RBI": 0}
               for name in v_batters + h_batters}
    events = []
    for inning in range(1, cfg.innings + 1):
        for half, bat_team, pit_team, batters in (
                ("T", v_name, h_name, v_batters),
                ("B", h_name, v_name, h_batters)):
            n_plays = int(rng.choice([0, 0, 0, 1, 1, 2]))
            for play_id in range(1, n_plays + 1):
                b = batters[int(rng.integers(len(batters)))]
                teammate = next((x for x in batters if x != b), None)
                homer = bool(rng.random() < 0.5)
                if homer and teammate is not None and rng.random() < 0.4:
                    runs, action = 2, "homered"
                    scorer, basemen = None, (teammate,)
                    batting[teammate]["BR"] += 1
                elif homer:
                    runs, action = 1, "homered"
                    scorer, basemen = None, ()
                else:
                    runs = 1
                    action = str(rng.choice(["singled", "doubled", "tripled"]))
                    scorer, basemen = teammate or b, ()
                    batting[scorer]["BR"] += 1
                if action == "homered":
                    batting[b]["BR"] += 1
                batting[b]["BH"] += 1
                batting[b]["RBI"] += runs
                totals[bat_team] += runs
                events.append(PlayEvent(
                    inning=inning, half=half, play_id=play_id, batter=b,
                    pitcher=_PITCHER_SLOT, action=action,
                    scores=(totals[bat_team], totals[pit_team]),
                    batting_team=bat_team, pitching_team=pit_team,
                    scorer=scorer, basemen=basemen))
    return events, totals, batting


_PITCHER_SLOT = "__pitcher__"


def _build_entities(cfg, rng, v_name, h_name, v_batters, v_pitchers,
                    h_batters, h_pitchers, totals, batting):
    th = {v_name: sum(batting[b]["BH"] for b in v_batters),
          h_name: sum(batting[b]["BH"] for b in h_batters)}
    teams = []
    for name, side in ((v_name, "visiting"), (h_name, "home")):
        teams.append(EntityRecord(name, "team", side, (
            ("TR", str(totals[name])), ("TH", str(th[name])),
            ("E", str(int(rng.integers(0, 3)))))))

    players = []
    for side, batters, flag in (("visiting", v_batters, "V"),
                                ("home", h_batters, "H")):
        team = v_name if side == "visiting" else h_name
        for b in batters:
            st = batting[b]
            ab = st["BH"] + int(rng.integers(1, 4))
            players.append(EntityRecord(b, "player", side, (
                ("H/V", flag), ("AB", str(ab)), ("BR", str(st["BR"])),
                ("BH", str(st["BH"])), ("RBI", str(st["RBI"])),
                ("TEAM", team))))
    for side, pitchers, flag in (("visiting", v_pitchers, "V"),
                                 ("home", h_pitchers, "H")):
        team = v_name if side == "visiting" else h_name
        opp = h_name if side == "visiting" else v_name
        won = totals[team] > totals[opp]
        for p in pitchers:
            pr = totals[opp]
            ph = th[opp]
            players.append(EntityRecord(p, "player", side, (
                ("H/V", flag), ("W", "1" if won else "0"),
                ("L", "0" if won else "1"), ("IP", str(cfg.innings)),
                ("PH", str(ph)), ("PR", str(pr)), ("ER", str(pr)),
                ("BB", str(int(rng.integers(0, 4)))),
                ("K", str(int(rng.integers(2, 9)))), ("TEAM", team))))

    return teams + players


def _fill_pitchers(events, v_pitcher, h_pitcher):
    """The simulator records a placeholder pitcher slot; substitute the
    actual opposing pitcher per half."""
    out = []
    for ev in events:
        pitcher = h_pitcher if ev.half == "T" else v_pitcher
        out.append(replace(ev, pitcher=pitcher))
    return out


def _event_free_game(cfg, rng, gid, v_name, h_name, v_batters, v_pitchers,
                     h_batters, h_pitchers):
    totals = {v_name: int(rng.integers(0, 10)), h_name: int(rng.integers(0, 10))}
    while totals[v_name] == totals[h_name]:
        totals[h_name] = int(rng.integers(0, 10))
    batting = {}
    for b in v_batters + h_batters:
        bh = int(rng.integers(0, 4))
        batting[b] = {"BH": bh, "BR": int(rng.integers(0, bh + 1)),
                      "RBI": int(rng.integers(0, 4))}
    entities = _build_entities(cfg, rng, v_name, h_name, v_batters, v_pitchers,
                               h_batters, h_pitchers, totals, batting)
    return Game(id=gid, kind="event-free", entities=tuple(entities),
                events=(),
                summary=SummaryDoc.from_lists([["placeholder", "."]]))


# ---------------------------------------------------------------------------
# Gold plans


def gold_plan_specs(game: Game, cfg: SynthConfig,
                    rng: np.random.Generator | None = None
                    ) -> list[ParagraphPlanSpec]:
    """Deterministic editorial policy: team pair first, then high-RBI batters
    (visiting side before home, highest RBI first), then scoring half-innings
    in order, then the winning team.  With ``cfg.merge_probability`` two
    adjacent half-innings from different innings share one paragraph, which
    puts the gold plan outside the enumerated candidate set."""
    v, h = game.visiting_team, game.home_team
    specs = [ParagraphPlanSpec((v.name, h.name))]

    def rbi(p):
        return int(p.attr_map.get("RBI", "0"))

    for side in ("visiting", "home"):
        side_batters = [p for p in game.players
                        if p.side == side
                        and p.player_role() == "batter"
                        and rbi(p) >= RBI_HIGHLIGHT_THRESHOLD]
        for p in sorted(side_batters, key=lambda p: (-rbi(p), p.name)):
            specs.append(ParagraphPlanSpec((p.name,)))

    halves = game.halves()
    i = 0
    while i < len(halves):
        # merging is only reversible when the two halves come from different
        # innings but the same side bats in both: paragraph-level half
        # resolution then never mixes up which half an ordinal refers to
        merge = (rng is not None and i + 1 < len(halves)
                 and halves[i][0] != halves[i + 1][0]
                 and halves[i][1] == halves[i + 1][1]
                 and rng.random() < cfg.merge_probability)
        if merge:
            specs.append(ParagraphPlanSpec(
                event_refs=(halves[i], halves[i + 1])))
            i += 2
        else:
            specs.append(ParagraphPlanSpec(event_refs=(halves[i],)))
            i += 1

    winner = h if int(h.attr_map["TR"]) > int(v.attr_map["TR"]) else v
    specs.append(ParagraphPlanSpec((winner.name,)))
    return specs


# ---------------------------------------------------------------------------
# Independent consistency checks


def check_consistency(game: Game) -> None:
    """Verify box-score aggregates against play-by-play (event-rich only).
    Raises GameValidationError on any mismatch."""
    if game.kind != "event-rich":
        return
    runs = {t.name: 0 for t in game.teams}
    hits = dict(runs)
    batter_stats = {p.name: {"BH": 0, "BR": 0, "RBI": 0}
                    for p in game.players
                    if p.player_role() == "batter"}
    for ev in game.events:
        gained = ev.scores[0] - _runs_before(game, ev)
        runs[ev.batting_team] += gained
        hits[ev.batting_team] += 1
        st = batter_stats[ev.batter]
        st["BH"] += 1
        st["RBI"] += gained
        scorers = [ev.scorer] if ev.scorer else []
        if ev.action == "homered":
            scorers.append(ev.batter)
            scorers.extend(ev.basemen)
        for s in scorers:
            if s in batter_stats:
                batter_stats[s]["BR"] += 1
    for t in game.teams:
        if int(t.attr_map["TR"]) != runs[t.name]:
            raise GameValidationError(
                f"{game.id}: {t.name} TR {t.attr_map['TR']} != plays {runs[t.name]}")
        if int(t.attr_map["TH"]) != hits[t.name]:
            raise GameValidationError(
                f"{game.id}: {t.name} TH {t.attr_map['TH']} != plays {hits[t.name]}")
    for p in game.players:
        if p.player_role() != "batter":
            continue
        st = batter_stats[p.name]
        a = p.attr_map
        for key in ("BH", "BR", "RBI"):
            if int(a[key]) != st[key]:
                raise GameValidationError(
                    f"{game.id}: {p.name} {key} {a[key]} != plays {st[key]}")
        if int(a["AB"]) < int(a["BH"]):
            raise GameValidationError(f"{game.id}: {p.name} AB < BH")


def _runs_before(game: Game, ev: PlayEvent) -> int:
    if ev.play_id > 1:
        prev = game.plays_in_half(ev.inning, ev.half)[ev.play_id - 2]
        return prev.scores[0]
    before = 0
    order = sorted(game.events,
                   key=lambda e: (e.inning, 0 if e.half == "T" else 1, e.play_id))
    for e in order:
        if (e.inning, 0 if e.half == "T" else 1) < (ev.inning, 0 if ev.half == "T" else 1):
            if e.batting_team == ev.batting_team:
                before = e.scores[0]
    return before
