import dataclasses

import pytest

from macroplan.oracle import (ORDINAL_WORDS, classify_inning_mention,
                              derive_macro_plan, find_inning_mentions,
                              match_entities, phrase_index, resolve_half)


class TestMatchEntities:
    def test_full_name(self, demo_game):
        m = match_entities(["C.Mullins", "homered", "."],
                           phrase_index(demo_game))
        assert [x.entity for x in m] == ["C.Mullins"]

    def test_surname(self, demo_game):
        m = match_entities(["Keller", "pitched", "."], phrase_index(demo_game))
        assert [x.entity for x in m] == ["B.Keller"]

    def test_duplicate_mention_collapsed(self, demo_game):
        m = match_entities(["Keller", "then", "Keller"],
                           phrase_index(demo_game))
        assert len(m) == 1
        assert m[0].token_span == (0, 1)

    def test_surname_volume_disambiguation(self, demo_game):
        # two players sharing the surname "Smith": the higher-AB one wins
        b1 = dataclasses.replace(demo_game.entities[2], name="A.Smith")
        b2 = dataclasses.replace(
            demo_game.entities[4], name="Z.Smith",
            attributes=tuple(("AB", "1") if t == "AB" else (t, v)
                             for t, v in demo_game.entities[4].attributes))
        game = dataclasses.replace(
            demo_game, events=(),
            entities=demo_game.entities[:2] + (b1, b2) + demo_game.entities[5:])
        m = match_entities(["Smith", "starred"], phrase_index(game))
        assert [x.entity for x in m] == ["A.Smith"]  # AB 5 beats AB 1

    def test_longest_match_preferred(self, demo_game):
        # "C.Mullins" as one token must not shadow scanning of other names
        m = match_entities(["C.Mullins", "and", "T.Mancini"],
                           phrase_index(demo_game))
        assert [x.entity for x in m] == ["C.Mullins", "T.Mancini"]


class TestInningClassification:
    def test_ordinal_before_inning_word(self):
        p = ["He", "homered", "in", "the", "fourth", "inning", "."]
        assert classify_inning_mention(p, 4)

    def test_non_inning_noun_right_context(self):
        p = ["the", "first", "batter", "struck", "out", "."]
        assert not classify_inning_mention(p, 1)

    def test_in_the_ordinal_without_noun(self):
        p = ["He", "homered", "in", "the", "fourth", "."]
        assert classify_inning_mention(p, 4)

    def test_cue_verb_in_window(self):
        p = ["Mullins", "doubled", "twice", "in", "the", "fourth", "."]
        assert classify_inning_mention(p, 5)

    def test_tied_score_pattern(self):
        p = ["the", "fifth", "left", "it", "tied", "4-4", "."]
        assert classify_inning_mention(p, 1)

    def test_bare_ordinal_without_cues(self):
        p = ["their", "first", "appearance", "together", "."]
        assert not classify_inning_mention(p, 1)

    def test_non_ordinal_rejected(self):
        with pytest.raises(ValueError):
            classify_inning_mention(["hello"], 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            classify_inning_mention(["first"], 3)


class TestFindInningMentions:
    def test_skips_ordinals_beyond_max_inning(self, demo_game):
        p = ["in", "the", "ninth", "inning", "."]  # demo game has 4 innings
        assert find_inning_mentions(p, demo_game) == []

    def test_finds_textual_order(self, demo_game):
        p = ["in", "the", "fourth", "inning", "and", "in", "the", "first",
             "inning", "."]
        assert find_inning_mentions(p, demo_game) == [2, 7]


class TestResolveHalf:
    def test_single_half_inning(self, demo_game):
        # inning 2 only has a top half
        assert resolve_half(2, [], demo_game) == "T"

    def test_participant_count_decides(self, demo_game):
        m = match_entities(["C.Mullins", "homered", "off", "Keller"],
                           phrase_index(demo_game))
        assert resolve_half(1, m, demo_game) == "B"

    def test_absent_inning_rejected(self, demo_game):
        with pytest.raises(ValueError):
            resolve_half(3, [], demo_game)


class TestDeriveMacroPlan:
    def test_demo_game(self, demo_game):
        specs = derive_macro_plan(demo_game)
        idents = [s.identifiers() for s in specs]
        # paragraph 1: both teams, no numbers-only cues
        assert idents[0] == ["E:Royals", "E:Orioles"]
        # paragraph 2: Merrifield stat line
        assert idents[1] == ["E:W.Merrifield"]
        # paragraph 3: first-inning top half event; its participants cover
        # the mentioned entities
        assert idents[2] == ["V:1-T"]
        # paragraph 4: Keller the pitcher
        assert idents[3] == ["E:B.Keller"]

    def test_unmatched_paragraph_dropped(self, demo_game):
        doc_paras = [["Nothing", "matches", "here", "."]] + \
            [list(p) for p in demo_game.summary.paragraphs]
        game = dataclasses.replace(
            demo_game,
            summary=demo_game.summary.from_lists(doc_paras))
        specs = derive_macro_plan(game)
        assert len(specs) == 4  # the junk paragraph contributed nothing


def test_ordinal_words_cover_twenty():
    assert ORDINAL_WORDS["first"] == 1
    assert ORDINAL_WORDS["twentieth"] == 20
    assert len(ORDINAL_WORDS) == 20
