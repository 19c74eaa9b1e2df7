# first, so that the package pins the BLAS to one thread before numpy loads
import macroplan  # noqa: F401
import numpy as np
import pytest

from macroplan.data import EntityRecord, Game, PlayEvent, SummaryDoc


def _team(name, side, tr, th, e):
    return EntityRecord(name, "team", side, (
        ("TR", str(tr)), ("TH", str(th)), ("E", str(e))))


def _batter(name, side, flag, team, ab, br, bh, rbi):
    return EntityRecord(name, "player", side, (
        ("H/V", flag), ("AB", str(ab)), ("BR", str(br)), ("BH", str(bh)),
        ("RBI", str(rbi)), ("TEAM", team)))


def _pitcher(name, side, flag, team, w, l, ip, ph, pr, er, bb, k):
    return EntityRecord(name, "player", side, (
        ("H/V", flag), ("W", str(w)), ("L", str(l)), ("IP", str(ip)),
        ("PH", str(ph)), ("PR", str(pr)), ("ER", str(er)), ("BB", str(bb)),
        ("K", str(k)), ("TEAM", team)))


@pytest.fixture
def demo_game() -> Game:
    """Small hand-built event-rich game: Royals (visiting) beat Orioles."""
    entities = (
        _team("Royals", "visiting", 9, 14, 0),
        _team("Orioles", "home", 2, 5, 1),
        _batter("W.Merrifield", "visiting", "V", "Royals", 5, 2, 3, 2),
        _batter("R.O'Hearn", "visiting", "V", "Royals", 4, 2, 2, 3),
        _batter("C.Mullins", "home", "H", "Orioles", 4, 1, 2, 1),
        _batter("T.Mancini", "home", "H", "Orioles", 4, 0, 1, 0),
        _pitcher("B.Keller", "visiting", "V", "Royals", 1, 0, 4, 5, 2, 2, 1, 6),
        _pitcher("J.Means", "home", "H", "Orioles", 0, 1, 4, 14, 9, 9, 2, 3),
    )
    events = (
        PlayEvent(1, "T", 1, "W.Merrifield", "J.Means", "homered", (1, 0),
                  "Royals", "Orioles"),
        PlayEvent(1, "B", 1, "C.Mullins", "B.Keller", "homered", (1, 1),
                  "Orioles", "Royals"),
        PlayEvent(2, "T", 1, "R.O'Hearn", "J.Means", "homered", (3, 1),
                  "Royals", "Orioles", basemen=("W.Merrifield",)),
        PlayEvent(2, "T", 2, "W.Merrifield", "J.Means", "singled", (4, 1),
                  "Royals", "Orioles", scorer="R.O'Hearn"),
        PlayEvent(4, "B", 1, "C.Mullins", "B.Keller", "doubled", (2, 4),
                  "Orioles", "Royals", scorer="T.Mancini"),
    )
    summary = SummaryDoc.from_lists([
        ["The", "Royals", "defeated", "the", "Orioles", "9", "-", "2", "."],
        ["W.Merrifield", "had", "5", "at-bats", ",", "2", "runs", ",",
         "3", "hits", "and", "2", "RBI", "."],
        ["In", "the", "first", "inning", ",", "W.Merrifield", "homered",
         "against", "J.Means", "."],
        ["Keller", "pitched", "4", "innings", "and", "recorded", "6",
         "strikeouts", "and", "1", "walks", "."],
    ])
    game = Game(id="demo-1", kind="event-rich", entities=entities,
                events=events, summary=summary)
    game.validate()
    return game


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
