import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macroplan.data import SummaryDoc
from macroplan.metrics import (MetricsReport, NUMBER_WORDS, Relation, bleu,
                               co, corpus_bleu, cs, dl_distance,
                               evaluate_summaries, extract_relations,
                               intrinsic_plan_eval, plan_fidelity, rg)
from macroplan.verbalize import ParagraphPlanSpec


def _doc(*sentences):
    return SummaryDoc.from_lists([list(s) for s in sentences])


class TestExtraction:
    def test_team_stat_sentence(self, demo_game):
        doc = _doc(["The", "Royals", "scored", "9", "runs", "on", "14",
                    "hits", "."])
        rels = extract_relations(doc, demo_game)
        assert rels == [Relation("Royals", "TR", "9"),
                        Relation("Royals", "TH", "14")]

    def test_number_word_normalized(self, demo_game):
        doc = _doc(["The", "Royals", "scored", "nine", "runs", "."])
        rels = extract_relations(doc, demo_game)
        assert rels == [Relation("Royals", "TR", "9")]

    def test_number_without_cue_dropped(self, demo_game):
        doc = _doc(["The", "Royals", "posted", "a", "9", "."])
        assert extract_relations(doc, demo_game) == []

    def test_number_without_entity_dropped(self, demo_game):
        doc = _doc(["They", "scored", "9", "runs", "."])
        assert extract_relations(doc, demo_game) == []

    def test_nearest_entity_wins(self, demo_game):
        doc = _doc(["C.Mullins", "struggled", "while", "W.Merrifield",
                    "collected", "3", "hits", "."])
        rels = extract_relations(doc, demo_game)
        assert rels == [Relation("W.Merrifield", "BH", "3")]

    def test_kind_specific_cue_map(self, demo_game):
        # "runs" maps to BR for a batter but TR for a team
        doc = _doc(["W.Merrifield", "scored", "2", "runs", "."],
                   ["The", "Orioles", "managed", "2", "runs", "."])
        rels = extract_relations(doc, demo_game)
        assert rels == [Relation("W.Merrifield", "BR", "2"),
                        Relation("Orioles", "TR", "2")]

    def test_duplicates_kept_in_order(self, demo_game):
        doc = _doc(["The", "Royals", "scored", "9", "runs", ",", "yes", ",",
                    "9", "runs", "."])
        rels = extract_relations(doc, demo_game)
        assert len(rels) == 2

    def test_entity_tokens_not_treated_as_values(self, demo_game):
        # digits inside a matched span must not become relation values
        doc = _doc(["The", "Royals", "won", "9", "-", "2", "."])
        rels = extract_relations(doc, demo_game)
        types = [(r.entity, r.record_type) for r in rels]
        assert all(t == ("Royals", "TR") or t[1] in ("TR", "TH", "E")
                   for t in types) or rels == []


class TestRG:
    def test_all_supported(self, demo_game):
        rels = [Relation("Royals", "TR", "9"), Relation("Orioles", "TH", "5")]
        assert rg([rels], [demo_game]) == (2.0, 100.0)

    def test_unsupported_counted(self, demo_game):
        rels = [Relation("Royals", "TR", "9"), Relation("Royals", "TR", "7")]
        count, prec = rg([rels], [demo_game])
        assert count == 2.0 and prec == 50.0

    def test_unknown_entity_unsupported(self, demo_game):
        _, prec = rg([[Relation("Ghost", "TR", "9")]], [demo_game])
        assert prec == 0.0

    def test_empty_is_vacuous_hundred(self, demo_game):
        assert rg([[]], [demo_game]) == (0.0, 100.0)

    def test_numeric_equivalence(self, demo_game):
        # "09" and "9" support the same record
        _, prec = rg([[Relation("Royals", "TR", "09")]], [demo_game])
        assert prec == 100.0


class TestCS:
    def test_identical(self):
        rels = [Relation("a", "TR", "1")] * 3
        assert cs(rels, rels) == (100.0, 100.0, 100.0)

    def test_duplicate_multiset_semantics(self):
        a = [Relation("a", "TR", "1")] * 2
        b = [Relation("a", "TR", "1")]
        p, r, f = cs(a, b)
        assert p == 50.0 and r == 100.0
        assert f == pytest.approx(200 / 3)

    def test_empty_sides(self):
        assert cs([], [Relation("a", "TR", "1")]) == (0.0, 0.0, 0.0)
        assert cs([Relation("a", "TR", "1")], []) == (0.0, 0.0, 0.0)


class TestDL:
    def test_hand_cases(self):
        assert dl_distance("abc", "abc") == 0
        assert dl_distance("abc", "acb") == 1       # transposition
        assert dl_distance("abc", "axc") == 1       # substitution
        assert dl_distance("abc", "ab") == 1        # deletion
        assert dl_distance("", "abc") == 3
        assert dl_distance("ca", "abc") == 3        # restricted-alignment case

    def _brute_force(self, a, b):
        # exhaustive recursion with memoization over the same edit set
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            best = min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                       d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                best = min(best, d(i - 2, j - 2) + 1)
            return best

        return d(len(a), len(b))

    def test_exhaustive_small_alphabet(self):
        # every pair of strings up to length 4 over {a, b, c}
        strings = [""]
        for n in (1, 2, 3, 4):
            strings += ["".join(s) for s in itertools.product("abc", repeat=n)]
        short = [s for s in strings if len(s) <= 3]
        for a in short:
            for b in short:
                assert dl_distance(a, b) == self._brute_force(a, b), (a, b)

    @given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_metric_properties(self, a, b):
        d = dl_distance(a, b)
        assert d == dl_distance(b, a)
        assert (d == 0) == (a == b)
        assert d <= max(len(a), len(b))


class TestCO:
    def test_identical(self):
        assert co(["a", "b"], ["a", "b"]) == 100.0

    def test_both_empty(self):
        assert co([], []) == 100.0

    def test_disjoint(self):
        assert co(["a", "b"], ["c", "d"]) == 0.0

    def test_transposition(self):
        assert co(["a", "b"], ["b", "a"]) == 50.0

    def test_normalized_by_longer(self):
        assert co(["a"], ["a", "b", "c", "d"]) == 25.0


class TestBLEU:
    def test_identity_is_hundred(self):
        toks = "the quick brown fox jumps over the lazy dog".split()
        assert bleu(toks, toks) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert bleu(["a", "b", "c", "d"], ["w", "x", "y", "z"]) == 0.0

    def test_zero_matched_order_zeroes_score(self):
        # shared unigrams but no shared bigram
        assert bleu(["a", "c", "b"], ["a", "x", "b"]) == 0.0

    def test_brevity_penalty_hand_value(self):
        # candidate of length 3 inside a length-4 reference: precisions are
        # all 1, so BLEU = 100 * exp(1 - 4/3)
        cand, ref = ["a", "b", "c"], ["a", "b", "c", "d"]
        assert bleu(cand, ref) == pytest.approx(100.0 * np.exp(1 - 4 / 3))

    def test_short_candidate_skips_missing_orders(self):
        # length-2 candidate has no trigrams; those orders are skipped,
        # not treated as zero
        assert bleu(["a", "b"], ["a", "b"]) == pytest.approx(100.0)

    def test_corpus_pools_counts(self):
        pairs = [(["a", "b", "c", "d"], ["a", "b", "c", "d"]),
                 (["w", "x", "y", "z"], ["a", "b", "c", "d"])]
        score = corpus_bleu(pairs)
        assert 0.0 <= score < 100.0

    def test_empty_candidate(self):
        assert corpus_bleu([([], ["a"])]) == 0.0


class TestIntrinsicPlanEval:
    def test_perfect(self):
        plans = [["E:a", "V:1-T"], ["E:b"]]
        assert intrinsic_plan_eval(plans, plans) == (100.0, 100.0, 100.0, 100.0)

    def test_micro_aggregation(self):
        pred = [["E:a"], ["E:x", "E:y"]]
        gold = [["E:a"], ["E:b", "E:c"]]
        p, r, f, _ = intrinsic_plan_eval(pred, gold)
        assert p == r == pytest.approx(100.0 / 3)

    def test_order_only_affects_co(self):
        pred = [["E:a", "E:b", "E:c"]]
        gold = [["E:c", "E:a", "E:b"]]
        p, r, f, co_val = intrinsic_plan_eval(pred, gold)
        assert f == 100.0
        assert co_val < 100.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            intrinsic_plan_eval([["E:a"]], [])


class TestPlanFidelity:
    def test_gold_summary_matches_gold_plan(self, demo_game):
        from macroplan.oracle import derive_macro_plan
        specs = derive_macro_plan(demo_game)
        f, co_val = plan_fidelity(demo_game.summary, specs, demo_game)
        assert f == 100.0 and co_val == 100.0

    def test_unrelated_summary_scores_low(self, demo_game):
        from macroplan.oracle import derive_macro_plan
        specs = derive_macro_plan(demo_game)
        doc = _doc(["J.Means", "pitched", "."])
        f, co_val = plan_fidelity(doc, specs, demo_game)
        assert f < 50.0


class TestReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            MetricsReport(rg_count=1, rg_precision=101, cs_precision=0,
                          cs_recall=0, cs_f=0, co=0, bleu=0)

    def test_json_round_trip(self):
        import json
        from dataclasses import asdict
        rep = MetricsReport(rg_count=3, rg_precision=90, cs_precision=80,
                            cs_recall=70, cs_f=74.7, co=60, bleu=25)
        obj = json.loads(json.dumps(asdict(rep)))
        assert obj["cs_f"] == 74.7 and obj["plan_cs_f"] is None

    def test_evaluate_gold_against_itself(self, demo_game):
        rep = evaluate_summaries([demo_game.summary], [demo_game])
        assert rep.rg_precision == 100.0
        assert rep.cs_f == 100.0
        assert rep.co == 100.0
        assert rep.bleu == pytest.approx(100.0)
        assert rep.rg_count > 0


def test_number_words_table():
    assert NUMBER_WORDS["nine"] == 9
    assert NUMBER_WORDS["twenty-one"] == 21
    assert NUMBER_WORDS["ninety-nine"] == 99
