import dataclasses

import pytest

from macroplan.data import (Game, GameValidationError, SummaryDoc,
                            load_games, numeric_value, save_games,
                            split_sentences, tokenize, game_to_obj,
                            game_from_obj)


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("The Royals won the game.") == \
            ["The", "Royals", "won", "the", "game", "."]

    def test_comma_and_score(self):
        assert tokenize("a 9-2 win, finally") == \
            ["a", "9-2", "win", ",", "finally"]

    def test_abbreviated_name_keeps_period(self):
        assert tokenize("C.J. singled") == ["C.J.", "singled"]

    def test_trailing_period_split_from_word(self):
        assert tokenize("runs.") == ["runs", "."]

    def test_double_dash(self):
        assert tokenize("win--again") == ["win", "--", "again"]

    def test_apostrophe_preserved(self):
        assert tokenize("O'Hearn's hit") == ["O'Hearn's", "hit"]

    def test_parens(self):
        assert tokenize("(4-2) record") == ["(", "4-2", ")", "record"]


class TestSplitSentences:
    def test_two_sentences(self):
        toks = tokenize("He won. She lost.")
        assert split_sentences(toks) == [["He", "won", "."],
                                         ["She", "lost", "."]]

    def test_period_before_lowercase_does_not_split(self):
        toks = ["He", "won", ".", "and", "lost", "."]
        assert len(split_sentences(toks)) == 1

    def test_digit_starts_sentence(self):
        toks = ["He", "won", ".", "9", "runs", "."]
        assert len(split_sentences(toks)) == 2

    def test_no_terminal(self):
        assert split_sentences(["no", "end"]) == [["no", "end"]]


class TestValidation:
    def test_demo_game_valid(self, demo_game):
        demo_game.validate()

    def test_event_free_with_plays_rejected(self, demo_game):
        bad = dataclasses.replace(demo_game, kind="event-free")
        with pytest.raises(GameValidationError):
            bad.validate()

    def test_unknown_participant_rejected(self, demo_game):
        ev = dataclasses.replace(demo_game.events[0], batter="Nobody")
        bad = dataclasses.replace(demo_game,
                                  events=(ev,) + demo_game.events[1:])
        with pytest.raises(GameValidationError):
            bad.validate()

    def test_nonconsecutive_play_ids_rejected(self, demo_game):
        ev = dataclasses.replace(demo_game.events[0], play_id=5)
        bad = dataclasses.replace(demo_game,
                                  events=(ev,) + demo_game.events[1:])
        with pytest.raises(GameValidationError):
            bad.validate()

    def test_empty_paragraph_rejected(self):
        with pytest.raises(GameValidationError):
            SummaryDoc.from_lists([[]])

    def test_whitespace_token_rejected(self):
        with pytest.raises(GameValidationError):
            SummaryDoc.from_lists([["two words"]])


class TestSerialization:
    def test_round_trip(self, demo_game, tmp_path):
        path = tmp_path / "games.jsonl"
        save_games(path, [demo_game])
        loaded = load_games(path)
        assert len(loaded) == 1
        assert loaded[0] == demo_game

    def test_obj_round_trip(self, demo_game):
        assert game_from_obj(game_to_obj(demo_game)) == demo_game

    def test_malformed_json_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_games(path)

    def test_incomplete_game_reports_lineno_and_id(self, tmp_path, demo_game):
        import json
        path = tmp_path / "bad.jsonl"
        obj = game_to_obj(demo_game)
        del obj["kind"]
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:1.*demo-1"):
            load_games(path)


class TestHalves:
    def test_order(self, demo_game):
        assert demo_game.halves() == [(1, "T"), (1, "B"), (2, "T"), (4, "B")]

    def test_plays_in_half_sorted(self, demo_game):
        plays = demo_game.plays_in_half(2, "T")
        assert [p.play_id for p in plays] == [1, 2]


def test_numeric_value():
    assert numeric_value("9") == 9
    assert numeric_value("4.1") == 4.1
    assert numeric_value("nine") is None
