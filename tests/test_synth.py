import dataclasses

import pytest

from macroplan.data import GameValidationError
from macroplan.metrics import plan_identifiers
from macroplan.synth import (SynthConfig, check_consistency, gold_plan_specs,
                             synth_league)


@pytest.fixture(scope="module")
def league():
    return synth_league(SynthConfig(games=20, seed=11))


class TestConfig:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(kind="other")

    def test_bad_innings_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(innings=0)

    def test_zero_games_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(games=0)


class TestLeague:
    def test_count_and_unique_ids(self, league):
        assert len(league) == 20
        ids = [g.id for g, _ in league]
        assert len(set(ids)) == 20

    def test_all_games_validate(self, league):
        for game, _ in league:
            game.validate()

    def test_all_games_consistent(self, league):
        for game, _ in league:
            check_consistency(game)

    def test_decided_games_only(self, league):
        for game, _ in league:
            v = int(game.visiting_team.attr_map["TR"])
            h = int(game.home_team.attr_map["TR"])
            assert v != h

    def test_deterministic(self):
        a = synth_league(SynthConfig(games=5, seed=4))
        b = synth_league(SynthConfig(games=5, seed=4))
        assert [g for g, _ in a] == [g for g, _ in b]
        assert [plan_identifiers(s) for _, s in a] == \
            [plan_identifiers(s) for _, s in b]

    def test_seed_changes_league(self):
        a = synth_league(SynthConfig(games=5, seed=4))
        b = synth_league(SynthConfig(games=5, seed=5))
        assert [g for g, _ in a] != [g for g, _ in b]

    def test_event_free_has_no_events(self):
        pairs = synth_league(SynthConfig(games=4, kind="event-free", seed=2))
        for game, specs in pairs:
            assert game.kind == "event-free"
            assert game.events == ()
            assert all(not s.event_refs for s in specs)


class TestGoldPlans:
    def test_structure(self, league):
        for game, specs in league:
            idents = plan_identifiers(specs)
            # opens with the team pair, closes with the winning team
            assert idents[0].startswith("E:") and idents[1].startswith("E:")
            v = int(game.visiting_team.attr_map["TR"])
            h = int(game.home_team.attr_map["TR"])
            winner = (game.visiting_team.name if v > h
                      else game.home_team.name)
            assert idents[-1] == f"E:{winner}"

    def test_event_paragraphs_chronological(self, league):
        for game, specs in league:
            refs = [r for s in specs for r in s.event_refs]
            assert refs == sorted(refs, key=lambda r: (r[0], r[1] == "B"))

    def test_merged_specs_same_half_letter(self, league):
        for _, specs in league:
            for s in specs:
                if len(s.event_refs) > 1:
                    letters = {h for _, h in s.event_refs}
                    innings = [i for i, _ in s.event_refs]
                    assert len(letters) == 1
                    assert len(set(innings)) == len(innings)

    def test_summary_realizes_gold_plan(self, league):
        # each synthetic summary has one paragraph per gold spec
        for game, specs in league:
            assert len(game.summary.paragraphs) == len(specs)


class TestConsistency:
    def test_detects_tampered_team_total(self, league):
        game, _ = league[0]
        team = game.entities[0]
        bad_team = dataclasses.replace(
            team, attributes=tuple(
                (t, str(int(v) + 1)) if t == "TR" else (t, v)
                for t, v in team.attributes))
        bad = dataclasses.replace(game,
                                  entities=(bad_team,) + game.entities[1:])
        with pytest.raises(GameValidationError):
            check_consistency(bad)

    def test_detects_tampered_batter_hits(self, league):
        game, _ = league[0]
        scorer = game.events[0].batter
        ents = []
        for e in game.entities:
            if e.name == scorer:
                e = dataclasses.replace(e, attributes=tuple(
                    (t, "0") if t == "BH" else (t, v)
                    for t, v in e.attributes))
            ents.append(e)
        bad = dataclasses.replace(game, entities=tuple(ents))
        with pytest.raises(GameValidationError):
            check_consistency(bad)
