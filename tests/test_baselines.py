import pytest

from macroplan.baselines import (TOP_BATTERS, TOP_PITCHERS,
                                 realize_plan_template, templ_summary)
from macroplan.metrics import evaluate_summaries, extract_relations, rg
from macroplan.oracle import derive_macro_plan
from macroplan.synth import SynthConfig, synth_league
from macroplan.verbalize import ParagraphPlanSpec


class TestTemplSummary:
    def test_fixed_layout(self, demo_game):
        doc = templ_summary(demo_game)
        # opening, team stats, player stats, one paragraph per half, closing
        assert len(doc.paragraphs) == 3 + len(demo_game.halves()) + 1
        assert doc.paragraphs[0][1] == "Royals"   # winner named first
        assert doc.paragraphs[-1][-2] == "game"

    def test_rg_precision_always_100(self, demo_game):
        doc = templ_summary(demo_game)
        rels = extract_relations(doc, demo_game)
        assert rels, "template must yield extractable relations"
        count, prec = rg([rels], [demo_game])
        assert prec == 100.0

    def test_rg_precision_100_across_league(self):
        pairs = synth_league(SynthConfig(games=12, seed=3))
        for game, _ in pairs:
            doc = templ_summary(game)
            rels = extract_relations(doc, game)
            _, prec = rg([rels], [game])
            assert prec == 100.0, game.id

    def test_top_k_limits(self):
        # seed 1: in both roles the top players are not the first ones the
        # game lists, so an unsorted or reversed pick names the wrong set
        game, _ = synth_league(SynthConfig(games=1, batters_per_team=3,
                                           pitchers_per_team=2, seed=1))[0]
        named = set(templ_summary(game).paragraphs[2])
        for role, rec_types, top in (("batter", ("RBI", "BH"), TOP_BATTERS),
                                     ("pitcher", ("K",), TOP_PITCHERS)):
            players = [p for p in game.players if p.player_role() == role]
            ranked = sorted(players, key=lambda p: tuple(
                -int(p.attr_map[t]) for t in rec_types) + (p.name,))
            expected = {p.name for p in ranked[:top]}
            assert len(players) > top
            assert expected != {p.name for p in players[:top]}
            assert named & {p.name for p in players} == expected


class TestRealizePlanTemplate:
    def test_round_trip_on_demo(self, demo_game):
        gold = derive_macro_plan(demo_game)
        doc = realize_plan_template(gold, demo_game)
        from dataclasses import replace
        rederived_game = replace(demo_game, summary=doc)
        rederived = derive_macro_plan(rederived_game)
        assert [s.identifiers() for s in rederived] == \
            [s.identifiers() for s in gold]

    def test_paragraph_per_spec(self, demo_game):
        specs = [ParagraphPlanSpec(("Royals",)),
                 ParagraphPlanSpec(event_refs=((1, "T"),))]
        doc = realize_plan_template(specs, demo_game)
        assert len(doc.paragraphs) == 2

    def test_empty_plan_rejected(self, demo_game):
        with pytest.raises(ValueError):
            realize_plan_template([], demo_game)

    def test_mention_sentence_for_pairs(self, demo_game):
        specs = [ParagraphPlanSpec(("Royals", "Orioles"))]
        doc = realize_plan_template(specs, demo_game)
        para = doc.paragraphs[0]
        assert para[0] == "Royals" and "and" in para and "Orioles" in para

    def test_evaluates_perfectly_against_itself(self, demo_game):
        gold = derive_macro_plan(demo_game)
        doc = realize_plan_template(gold, demo_game)
        from dataclasses import replace
        game = replace(demo_game, summary=doc)
        rep = evaluate_summaries([doc], [game])
        assert rep.cs_f == 100.0 and rep.co == 100.0

