import numpy as np
import pytest

from macroplan import planner
from macroplan.autodiff import NO_GRAD, Tape
from macroplan.nn import bilstm_encode
from macroplan.planner import (PlannerHyper, PlannerModel, _PointerDecoder,
                               _allowed, _forward_reps, _trie, build_vocab,
                               contextualize, encode_candidates, greedy_plan,
                               infer_plan, instance_loss, linearize,
                               pointer_step, train_planner)
from macroplan.verbalize import ParagraphPlanSpec

TINY = PlannerHyper(emb_dim=8, hidden=6, epochs=1, seed=0)


def tiny_model(seqs, hyper=TINY, seed=0):
    vocab = build_vocab(seqs)
    return PlannerModel.init(vocab, hyper, np.random.default_rng(seed))


SEQS = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "i"], ["a", "e"]]


class TestEncodeCandidates:
    def test_shape(self):
        model = tiny_model(SEQS)
        tape = Tape()
        reps = encode_candidates(tape, model, [model.token_ids(s) for s in SEQS])
        assert reps.shape == (4, TINY.rep_dim)

    def test_matches_unbatched_oracle(self):
        # batched-by-length pooling must equal per-candidate computation
        model = tiny_model(SEQS)
        ids = [model.token_ids(s) for s in SEQS]
        tape = Tape()
        batched = encode_candidates(tape, model, ids).data

        store = model.store
        for i, seq in enumerate(ids):
            t2 = Tape()
            emb = t2.param(store, "emb")
            xs = [t2.gather_rows(emb, [tok]) for tok in seq]
            states = bilstm_encode(t2, xs, t2.param(store, "enc_f.W"),
                                   t2.param(store, "enc_f.b"),
                                   t2.param(store, "enc_b.W"),
                                   t2.param(store, "enc_b.b"), TINY.hidden)
            scores = np.array([float(s.data[0] @ store["query_d"].data[0])
                               for s in states])
            alpha = np.exp(scores - scores.max())
            alpha /= alpha.sum()
            expected = sum(a * s.data[0] for a, s in zip(alpha, states))
            assert np.allclose(batched[i], expected, atol=1e-10)

    def test_order_preserved_under_permutation(self):
        model = tiny_model(SEQS)
        ids = [model.token_ids(s) for s in SEQS]
        tape = Tape()
        fwd = encode_candidates(tape, model, ids).data
        t2 = Tape()
        rev = encode_candidates(t2, model, ids[::-1]).data
        assert np.allclose(fwd, rev[::-1])

    def test_trie_shares_prefixes(self):
        seqs = [[1, 2, 3], [1, 2], [1, 4], [5], [1, 2, 3]]
        valid = np.arange(3) < np.array([3, 2, 2, 1, 3])[:, None]
        ids = np.zeros(valid.shape, dtype=np.int64)
        ids[valid] = [t for s in seqs for t in s]
        parents, tokens, rows = _trie(ids, valid)
        assert [p.tolist() for p in parents] == [[0, 0], [0, 0], [0]]
        assert [t.tolist() for t in tokens] == [[1, 5], [2, 4], [3]]
        # rows index the depths' concatenation; 0 past a candidate's end
        assert rows.tolist() == [[0, 2, 4], [0, 2, 0], [0, 3, 0], [1, 0, 0],
                                 [0, 2, 4]]

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_encode_to_identical_rows(self, seed):
        # the pointer decoder's tie rule: duplicate candidates share their
        # trie nodes, so their rows are equal to the bit wherever they sit,
        # here at the benchmark's width, lengths and candidate count
        rng = np.random.default_rng(seed)
        seqs = [[f"t{i}" for i in rng.integers(0, 30,
                                                size=rng.integers(1, 22))]
                for _ in range(140)]
        seqs += [seqs[i] for i in rng.integers(0, 140, size=10)]
        seqs += [["t1"], ["t1"]]
        seqs = [seqs[i] for i in rng.permutation(len(seqs))]
        model = tiny_model(seqs, PlannerHyper(hidden=64))
        ids = [model.token_ids(s) for s in seqs]
        groups = {}
        for k, seq in enumerate(seqs):
            groups.setdefault(tuple(seq), []).append(k)
        dups = [g for g in groups.values() if len(g) > 1]
        assert len(dups) >= 8
        tape = Tape()
        for reps in (encode_candidates(tape, model, ids).data,
                     encode_candidates(NO_GRAD, model, ids)):
            for group in dups:
                for k in group[1:]:
                    assert np.array_equal(reps[k], reps[group[0]])

    def test_empty_candidate_rejected(self):
        model = tiny_model(SEQS)
        tape = Tape()
        with pytest.raises(ValueError):
            encode_candidates(tape, model, [[1], []])


class TestContextualize:
    def _reps(self, model, k=4):
        tape = Tape()
        reps = tape.tensor(np.random.default_rng(1).normal(
            size=(k, model.hyper.rep_dim)))
        return tape, reps

    def test_gate_bounds_output(self):
        model = tiny_model(SEQS)
        tape, reps = self._reps(model)
        out = contextualize(tape, model, reps).data
        assert np.all(np.abs(out) <= np.abs(reps.data) + 1e-12)
        assert np.all(out * reps.data >= -1e-12)  # sign preserved

    def test_single_candidate_uses_zero_context(self):
        model = tiny_model(SEQS)
        tape, reps = self._reps(model, k=1)
        out = contextualize(tape, model, reps).data
        store = model.store
        att = np.concatenate([reps.data,
                              np.zeros_like(reps.data)], axis=1) @ store["W_g"].data
        expected = (1 / (1 + np.exp(-att))) * reps.data
        assert np.allclose(out, expected)

    def test_self_attention_excluded(self):
        # with two candidates, each one's context is exactly the other's rep
        model = tiny_model(SEQS)
        tape, reps = self._reps(model, k=2)
        store = model.store
        out = contextualize(tape, model, reps).data
        ctx = reps.data[::-1]  # softmax over a single allowed position
        att = np.concatenate([reps.data, ctx], axis=1) @ store["W_g"].data
        expected = (1 / (1 + np.exp(-att))) * reps.data
        assert np.allclose(out, expected)


class TestPointerStep:
    def test_matches_softmax_of_bilinear_oracle(self):
        model = tiny_model(SEQS)
        n = TINY.rep_dim
        rng = np.random.default_rng(2)
        reps = rng.normal(size=(5, n))
        h = rng.normal(size=(1, n))
        tape = Tape()
        dist = pointer_step(tape, model, tape.tensor(h),
                            tape.tensor(reps)).data
        logits = (h @ model.store["W_b"].data) @ reps.T
        ex = np.exp(logits - logits.max())
        assert dist.shape == (1, 5)
        assert np.allclose(dist, ex / ex.sum())

    def test_takes_a_stack_of_states(self):
        # a (B, n) stack gives one distribution per row; a row of a stacked
        # product may round differently from a product of its own
        model = tiny_model(SEQS)
        rng = np.random.default_rng(5)
        h = rng.normal(size=(3, TINY.rep_dim))
        reps = rng.normal(size=(6, TINY.rep_dim))
        stacked = pointer_step(NO_GRAD, model, h, reps)
        assert stacked.shape == (3, 6)
        for i in range(3):
            one = pointer_step(NO_GRAD, model, h[i:i + 1], reps)
            assert np.allclose(stacked[i:i + 1], one, rtol=1e-12, atol=0)

    def test_zero_bilinear_gives_uniform(self):
        model = tiny_model(SEQS)
        model.store["W_b"].data[:] = 0.0
        tape = Tape()
        rng = np.random.default_rng(3)
        dist = pointer_step(tape, model,
                            tape.tensor(rng.normal(size=(1, TINY.rep_dim))),
                            tape.tensor(rng.normal(size=(6, TINY.rep_dim)))).data
        assert np.allclose(dist, 1 / 6)

    def test_distribution_normalized(self):
        model = tiny_model(SEQS)
        tape = Tape()
        rng = np.random.default_rng(4)
        dist = pointer_step(tape, model,
                            tape.tensor(rng.normal(size=(1, TINY.rep_dim))),
                            tape.tensor(rng.normal(size=(7, TINY.rep_dim)))).data
        assert np.isclose(dist.sum(), 1.0) and dist.min() >= 0


class TestTraining:
    def test_initial_loss_near_uniform(self):
        # an untrained pointer is near-uniform over K+1 choices, so the
        # teacher-forced NLL is about (len+1) * log(K+1)
        model = tiny_model(SEQS)
        model.store["W_b"].data[:] = 0.0
        tape = Tape()
        ids = [model.token_ids(s) for s in SEQS]
        loss = instance_loss(tape, model, ids, [0, 2])
        assert float(loss.data) == pytest.approx(3 * np.log(5), rel=1e-6)

    def test_loss_decreases(self):
        dataset = [(SEQS, [0, 2, 1])]
        _, trace = train_planner(dataset, PlannerHyper(
            emb_dim=8, hidden=6, epochs=15, lr=0.05, seed=0))
        assert trace[-1] < trace[0]

    def test_pointer_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="pointer"):
            train_planner([(SEQS, [0, 9])], TINY)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_planner([], TINY)

    def test_stop_tol_shortens_trace(self):
        dataset = [(SEQS, [0])]
        _, full = train_planner(dataset, PlannerHyper(
            emb_dim=8, hidden=6, epochs=30, lr=0.1, seed=0))
        _, stopped = train_planner(dataset, PlannerHyper(
            emb_dim=8, hidden=6, epochs=30, lr=0.1, seed=0, stop_tol=full[-1] * 4))
        assert len(stopped) < len(full)

    def test_deterministic(self):
        dataset = [(SEQS, [0, 2])]
        hyper = PlannerHyper(emb_dim=8, hidden=6, epochs=3, seed=5)
        m1, t1 = train_planner(dataset, hyper)
        m2, t2 = train_planner(dataset, hyper)
        assert t1 == t2
        for name, p in m1.store.items():
            assert np.array_equal(p.data, m2.store[name].data)


    def test_one_pointer_step_per_decision(self, monkeypatch):
        """One epoch calls ``pointer_step`` once per gold decision plus the
        EOM, as ``bench/checks.expected_calls`` counts it in every traced
        benchmark round.  ROADMAP item 5 batches these steps; until its
        benchmark change lands, this pins the count."""
        calls = []

        def counted(tape, model, h, reps):
            calls.append(h.shape[0])
            return pointer_step(tape, model, h, reps)
        monkeypatch.setattr(planner, "pointer_step", counted)
        dataset = [(SEQS, [0, 2, 1]), (SEQS[:3], [2])]
        train_planner(dataset, TINY)
        assert calls == [1] * ((3 + 1) + (1 + 1))

def _is_blocked(prefix, nxt, k=5, unigram_cap=False):
    return not _allowed(np.array([prefix], dtype=np.int64), k,
                        unigram_cap)[0, nxt]


class TestBigramBlocking:
    def test_no_prefix(self):
        assert not _is_blocked((), 3)

    def test_repeat_bigram_blocked(self):
        assert _is_blocked((1, 2, 1), 2)

    def test_fresh_bigram_allowed(self):
        assert not _is_blocked((1, 2, 1), 3)
        assert not _is_blocked((1, 2), 1)

    def test_unigram_cap_blocks_a_third_use(self):
        assert _is_blocked((1, 2, 1, 3), 1, unigram_cap=True)
        assert not _is_blocked((1, 2, 1, 3), 2, unigram_cap=True)
        assert not _is_blocked((1, 2, 1, 3), 1)

    @pytest.mark.parametrize("cap", [False, True])
    def test_rows_are_independent(self, cap):
        histories = np.array([[1, 2, 1, 3], [0, 0, 4, 0], [3, 1, 3, 1]])
        one_at_a_time = np.concatenate(
            [_allowed(row[None, :], 5, cap) for row in histories])
        assert np.array_equal(_allowed(histories, 5, cap), one_at_a_time)


class TestInference:
    def _trained(self):
        dataset = [(SEQS, [0, 2, 1])]
        model, _ = train_planner(dataset, PlannerHyper(
            emb_dim=8, hidden=6, epochs=40, lr=0.1, seed=0))
        return model

    def test_greedy_matches_beam_one(self):
        model = self._trained()
        for cap in (False, True):
            g = greedy_plan(SEQS, model, unigram_cap=cap)
            b = infer_plan(SEQS, model, beam_size=1, unigram_cap=cap)
            assert g.pointer_sequence == b.pointer_sequence

    def test_decoder_starts_from_trainings_first_state(self):
        # the root beam's h is training's first decoder state to the bit;
        # 1/K is inexact for K = 7
        seqs = SEQS + [["b"], ["c", "d"], ["i", "h", "g"]]
        model = tiny_model(seqs, hyper=PlannerHyper(emb_dim=8, hidden=64))
        tape = Tape()
        reps_c = _forward_reps(tape, model, [model.token_ids(s)
                                             for s in seqs])
        assert np.array_equal(_PointerDecoder(model, seqs).h0,
                              tape.mean(reps_c, axis=0).data)

    def test_overfit_recovers_plan(self):
        model = self._trained()
        assert greedy_plan(SEQS, model).pointer_sequence == (0, 2, 1)

    def test_beam_respects_unigram_cap(self, monkeypatch):
        monkeypatch.setattr("macroplan.planner.MAX_PLAN_LEN", 12)
        model = tiny_model(SEQS)
        plan = infer_plan(SEQS, model, beam_size=3, unigram_cap=True)
        counts = {i: plan.pointer_sequence.count(i) for i in set(plan.pointer_sequence)}
        assert all(c <= 2 for c in counts.values())

    def test_beam_never_repeats_bigram(self, monkeypatch):
        monkeypatch.setattr("macroplan.planner.MAX_PLAN_LEN", 15)
        model = tiny_model(SEQS, seed=7)
        plan = infer_plan(SEQS, model, beam_size=4)
        seq = plan.pointer_sequence
        bigrams = list(zip(seq, seq[1:]))
        assert len(bigrams) == len(set(bigrams))

    def test_bad_beam_size_rejected(self):
        model = tiny_model(SEQS)
        with pytest.raises(ValueError):
            infer_plan(SEQS, model, beam_size=0)

    def test_length_cap_marks_unterminated(self, monkeypatch):
        monkeypatch.setattr("macroplan.planner.MAX_PLAN_LEN", 2)
        model = tiny_model(SEQS)
        plan = greedy_plan(SEQS, model)
        if not plan.terminated:
            assert len(plan.pointer_sequence) <= 3


def test_linearize(demo_game):
    specs = [ParagraphPlanSpec(("Royals",)), ParagraphPlanSpec(("Orioles",))]
    assert linearize(specs[::-1], demo_game) == [
        "<TEAM>Orioles", "<TR>2", "<TH>5", "<E>1", "<P>",
        "<TEAM>Royals", "<TR>9", "<TH>14", "<E>0"]
    assert linearize([], demo_game) == []
