from dataclasses import replace

from hypothesis import given, settings, strategies as st

from macroplan.candidates import augment_with_gold, enumerate_candidates
from macroplan.oracle import derive_macro_plan
from macroplan.synth import SynthConfig, synth_league
from macroplan.verbalize import (ParagraphPlanSpec, is_marker_token,
                                 parse_spec, render_spec, verbalize_plan)


class TestEnumerate:
    def test_count_event_rich(self, demo_game):
        # 2 teams + 6 players + 4 halves + team-pair + 2*6 team+player
        # + 6 player+both-teams = 31
        cands = enumerate_candidates(demo_game)
        assert len(cands) == 31

    def test_all_verbalized(self, demo_game):
        assert all(verbalize_plan(c, demo_game)
                   for c in enumerate_candidates(demo_game))

    def test_singletons_precede_combinations(self, demo_game):
        sizes = [len(c.entity_refs) for c in enumerate_candidates(demo_game)]
        last_single = max(i for i, n in enumerate(sizes) if n <= 1)
        first_combo = min(i for i, n in enumerate(sizes) if n >= 2)
        assert last_single < first_combo

    def test_event_groups_follow_halves_order(self, demo_game):
        groups = [c.event_refs for c in enumerate_candidates(demo_game)
                  if c.event_refs]
        assert groups == [((1, "T"),), ((1, "B"),), ((2, "T"),), ((4, "B"),)]

    def test_player_pairs_only_for_event_free(self, demo_game):
        rich = enumerate_candidates(demo_game)
        free = enumerate_candidates(replace(demo_game, kind="event-free",
                                            events=()))

        def pairs(cands):
            return [c for c in cands if len(c.entity_refs) == 2
                    and not any(r in ("Royals", "Orioles")
                                for r in c.entity_refs)]
        assert not pairs(rich)
        assert len(pairs(free)) == 15  # C(6, 2)

    def test_deterministic(self, demo_game):
        a = enumerate_candidates(demo_game)
        b = enumerate_candidates(demo_game)
        assert a == b


class TestAugment:
    def test_novel_gold_appended(self, demo_game):
        cands = enumerate_candidates(demo_game)
        gold = [ParagraphPlanSpec(
            event_refs=((1, "T"), (1, "B")))]  # merged, not enumerated
        out = augment_with_gold(cands, gold)
        assert len(out) == len(cands) + 1
        assert out[-1] == gold[0]

    def test_present_gold_not_duplicated(self, demo_game):
        cands = enumerate_candidates(demo_game)
        gold = [ParagraphPlanSpec(("C.Mullins",))]
        out = augment_with_gold(cands, gold)
        assert len(out) == len(cands)

    def test_original_list_unmodified(self, demo_game):
        cands = enumerate_candidates(demo_game)
        n = len(cands)
        augment_with_gold(cands, [ParagraphPlanSpec(
            event_refs=((1, "T"), (2, "T")))])
        assert len(cands) == n


class TestMarkerTokens:
    """The planner reads candidate tokens whole, with no byte-pair model:
    that holds because every token it sees is marker-fused."""

    @given(seed=st.integers(0, 2**16), kind=st.sampled_from(
        ["event-rich", "event-free"]))
    @settings(max_examples=10, deadline=None)
    def test_candidate_and_gold_tokens_are_markers(self, seed, kind):
        league = synth_league(SynthConfig(games=2, innings=3, seed=seed,
                                          kind=kind))
        for game, _ in league:
            gold = derive_macro_plan(game)
            for spec in enumerate_candidates(game) + gold:
                tokens = verbalize_plan(spec, game)
                assert tokens
                assert all(is_marker_token(t) for t in tokens), tokens


class TestSpecRoundTrip:
    """A paragraph plan is its references: rendering and parsing it back
    gives the same spec, and gold augmentation compares specs by them."""

    @given(seed=st.integers(0, 2**16), kind=st.sampled_from(
        ["event-rich", "event-free"]))
    @settings(max_examples=10, deadline=None)
    def test_render_parse_and_augment(self, seed, kind):
        league = synth_league(SynthConfig(games=2, innings=3, seed=seed,
                                          kind=kind))
        for game, gold in league:
            cands = enumerate_candidates(game)
            derived = derive_macro_plan(game)
            for spec in gold + cands + derived:
                assert parse_spec(render_spec(spec)) == spec, spec
            novel = [g for i, g in enumerate(gold)
                     if g not in cands and g not in gold[:i]]
            assert augment_with_gold(cands, gold) == cands + novel
