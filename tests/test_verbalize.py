import pytest

from macroplan.verbalize import (EOM_TOKEN, PARAGRAPH_SEP, ParagraphPlanSpec,
                                 is_marker_token, render_spec, strip_marker,
                                 verbalize_entity, verbalize_event_group,
                                 verbalize_plan, verbalize_play)


class TestMarkers:
    def test_fused_token_detected(self):
        assert is_marker_token("<TR>9")
        assert is_marker_token("<PLAYER>C.Mullins")
        assert not is_marker_token("9")
        assert not is_marker_token("EOM")

    def test_strip(self):
        assert strip_marker("<TR>9") == "9"
        assert strip_marker("<PLAYER>C.Mullins") == "C.Mullins"
        assert strip_marker("plain") == "plain"

    def test_structural_tokens(self):
        assert PARAGRAPH_SEP == "<P>"
        assert EOM_TOKEN == "EOM"


class TestVerbalizeEntity:
    def test_team(self, demo_game):
        toks = verbalize_entity(demo_game.entity("Royals"))
        assert toks == ["<TEAM>Royals", "<TR>9", "<TH>14", "<E>0"]

    def test_batter_schema_order(self, demo_game):
        toks = verbalize_entity(demo_game.entity("C.Mullins"))
        assert toks[0] == "<PLAYER>C.Mullins"
        types = [t[1:t.index(">")] for t in toks[1:]]
        assert types == ["H/V", "AB", "BR", "BH", "RBI", "TEAM"]


class TestVerbalizePlay:
    def test_fields_in_order(self, demo_game):
        ev = demo_game.events[4]  # Mullins doubles, Mancini scores
        toks = verbalize_play(ev)
        assert toks[0] == "<INN>4"
        assert toks[1] == "<HALF>B"
        assert "<SCORER>T.Mancini" in toks
        assert toks[-1] == "<SCORES>Orioles-2-Royals-4"

    def test_basemen(self, demo_game):
        toks = verbalize_play(demo_game.events[2])
        assert "<BASEMEN>W.Merrifield" in toks


class TestEventGroup:
    def test_participants_first_then_plays(self, demo_game):
        toks = verbalize_event_group([(2, "T")], demo_game)
        # first-appearance order: batter, pitcher, basemen of play 1
        assert toks[0] == "<PLAYER>R.O'Hearn"
        heads = [t for t in toks if t.startswith("<PLAYER>")]
        assert heads == ["<PLAYER>R.O'Hearn", "<PLAYER>J.Means",
                         "<PLAYER>W.Merrifield"]
        assert toks.count("<INN>2") == 2  # both plays of the half present

    def test_unknown_half_rejected(self, demo_game):
        with pytest.raises(ValueError):
            verbalize_event_group([(3, "T")], demo_game)


class TestSpec:
    def test_empty_spec_refused(self):
        with pytest.raises(ValueError, match="references nothing"):
            ParagraphPlanSpec((), ())

    def test_identifiers(self):
        spec = ParagraphPlanSpec(("Royals",), ((1, "T"),))
        assert spec.identifiers() == ["E:Royals", "V:1-T"]


class TestVerbalizePlan:
    def test_duplicate_entity_verbalized_once(self, demo_game):
        spec = ParagraphPlanSpec(("Royals", "Royals"))
        tokens = verbalize_plan(spec, demo_game)
        assert tokens.count("<TEAM>Royals") == 1

    def test_unknown_entity_rejected(self, demo_game):
        with pytest.raises(ValueError):
            verbalize_plan(ParagraphPlanSpec(("Ghost",)), demo_game)

    def test_entities_precede_events(self, demo_game):
        spec = ParagraphPlanSpec(("Orioles",), ((1, "B"),))
        tokens = verbalize_plan(spec, demo_game)
        assert tokens[0] == "<TEAM>Orioles"
        assert "<INN>1" in tokens


def test_render_spec(demo_game):
    spec = ParagraphPlanSpec(("Royals",), ((4, "B"), (1, "T")))
    assert render_spec(spec) == "V(Royals) V(4-B, 1-T)"
