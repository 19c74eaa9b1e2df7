from dataclasses import replace

import numpy as np
import pytest

from macroplan import generator
from macroplan.autodiff import NO_GRAD, Tape
from macroplan.generator import (BOS, EOS, UNK, GeneratorHyper, GeneratorModel,
                                 _ExtendedVocab, _copy_masks, _output_dists,
                                 _surfaces, build_gen_vocab, decode_step,
                                 encode_plan, generate, instance_loss,
                                 train_generator)
from macroplan.nn import lstm_step

TINY = GeneratorHyper(emb_dim=8, hidden=6, epochs=1, seed=0)

PLAN = ["<TEAM>Royals", "<TR>9", "<P>", "<PLAYER>C.Mullins", "<RBI>1"]
TARGET = ["the", "Royals", "scored", "9", "runs", "."]


def tiny_model(pairs=None, hyper=TINY, seed=0):
    pairs = pairs or [(PLAN, TARGET)]
    vocab = build_gen_vocab(pairs)
    return GeneratorModel.init(vocab, hyper, np.random.default_rng(seed))


class TestVocab:
    def test_reserved_ids(self):
        vocab = build_gen_vocab([(PLAN, TARGET)])
        assert vocab[UNK] == 0 and vocab[BOS] == 1 and vocab[EOS] == 2

    def test_covers_plan_and_target(self):
        vocab = build_gen_vocab([(PLAN, TARGET)])
        assert "<TR>9" in vocab and "scored" in vocab


class TestEncodePlan:
    def test_shapes(self):
        model = tiny_model()
        tape = Tape()
        ids = [model.token_id(t) for t in PLAN]
        S, h0, c0 = encode_plan(tape, model, ids)
        assert S.shape == (len(PLAN), TINY.rep_dim)
        assert h0.shape == (1, TINY.rep_dim)
        assert np.allclose(c0.data, 0.0)
        assert np.all(np.abs(h0.data) <= 1.0)  # tanh init

    def test_empty_plan_rejected(self):
        model = tiny_model()
        tape = Tape()
        with pytest.raises(ValueError):
            encode_plan(tape, model, [])


class TestOutputMixture:
    def _forward(self, model, prev=BOS, h=None, c=None):
        """One decoder step on a tape from the plan's initial state, or
        from the (n,) ``h``/``c``: the one row of (p_gen, p_copy, alpha, h,
        c)."""
        tape = Tape()
        ids = [model.token_id(t) for t in PLAN]
        S, h0, c0 = encode_plan(tape, model, ids)
        h = h0 if h is None else tape.tensor([h])
        c = c0 if c is None else tape.tensor([c])
        store = model.store
        h, c = lstm_step(tape, tape.gather_rows(tape.param(store, "emb"),
                                                [model.token_id(prev)]),
                         h, c, tape.param(store, "dec.W"),
                         tape.param(store, "dec.b"))
        comb, alpha = decode_step(tape, model, S, h)
        p_gen, p_copy = _output_dists(tape, model, comb)
        return (p_gen.data[0], float(p_copy.data[0, 0]), alpha.data[0],
                h.data[0], c.data[0])

    def test_gen_dist_normalized(self):
        p_gen, p_copy, alpha, *_ = self._forward(tiny_model())
        assert np.isclose(p_gen.sum(), 1.0)
        assert 0.0 < p_copy < 1.0
        assert np.isclose(alpha.sum(), 1.0)

    def _surface_dist(self, model):
        p_gen, p_copy, alpha, *_ = self._forward(model)
        ext = _ExtendedVocab(model, PLAN)
        dist = ext.mix(p_gen[None], np.array([[p_copy]]), alpha[None])[0]
        return dict(zip(ext.surfaces, dist)), p_gen, p_copy, alpha

    def test_surface_mixture_sums_to_one_minus_dropped(self):
        model = tiny_model()
        dist, p_gen, p_copy, alpha = self._surface_dist(model)
        # total mass = 1 minus the pruned UNK/BOS generation mass and the
        # copy mass of the <P> separator, whose surface is empty
        dropped = (1 - p_copy) * (p_gen[model.vocab[UNK]] +
                                  p_gen[model.vocab[BOS]]) \
            + p_copy * alpha[PLAN.index("<P>")]
        assert sum(dist.values()) == pytest.approx(1.0 - dropped)
        assert UNK not in dist and BOS not in dist and "" not in dist

    def test_copy_surfaces_stripped_tokens(self):
        model = tiny_model()
        dist, p_gen, p_copy, alpha = self._surface_dist(model)
        # copy contribution lands on the stripped surfaces, added to the
        # generation mass of the same surface
        assert dist["9"] == pytest.approx(
            (1 - p_copy) * p_gen[model.vocab["9"]] + p_copy * alpha[1])
        assert dist["C.Mullins"] == pytest.approx(p_copy * alpha[3])
        assert "<TR>9" in dist  # the vocabulary token itself stays

    def test_tape_free_step_matches_tape(self):
        # the same functions under NO_GRAD, on a stack of hypotheses: a
        # one-row stack reproduces the tape exactly; in a two-row stack (the
        # plan's initial state, and the state one step on) a row may round
        # differently, by a few ulps
        model = tiny_model()
        S, h0, c0 = encode_plan(NO_GRAD, model,
                                [model.token_id(t) for t in PLAN])
        first = self._forward(model)
        second = self._forward(model, "Royals", *first[3:])

        def no_grad_step(prevs, hs, cs):
            store = model.store
            h, c = lstm_step(
                NO_GRAD, store["emb"].data[
                    np.array([model.token_id(t) for t in prevs])],
                np.stack(hs), np.stack(cs), store["dec.W"].data,
                store["dec.b"].data)
            comb, alpha = decode_step(NO_GRAD, model, S, h)
            p_gen, p_copy = _output_dists(NO_GRAD, model, comb)
            return list(zip(p_gen, p_copy[:, 0], alpha, h, c))

        [row] = no_grad_step([BOS], [h0[0]], [c0[0]])
        assert all(np.array_equal(x, y) for x, y in zip(row, first))
        rows = no_grad_step([BOS, "Royals"], [h0[0], first[3]],
                            [c0[0], first[4]])
        for row, want in zip(rows, (first, second)):
            assert all(np.allclose(x, y, rtol=1e-12, atol=1e-15)
                       for x, y in zip(row, want))


class TestCopyMask:
    def test_marker_stripped_match(self):
        mask = _copy_masks(_surfaces(PLAN), ["9"])
        assert mask.tolist() == [[0, 1, 0, 0, 0]]

    def test_multiple_positions(self):
        mask = _copy_masks(_surfaces(["<TR>9", "<RBI>9", "x"]), ["x", "9"])
        assert mask.tolist() == [[0, 0, 1], [1, 1, 0]]

    def test_no_match(self):
        assert _copy_masks(_surfaces(PLAN), ["zebra"]).sum() == 0

    def test_paragraph_marker_matches_no_empty_surface(self):
        # <P> strips to the empty surface; the target "<P>" is not it
        assert _surfaces(PLAN)[2] == ""
        assert _copy_masks(_surfaces(PLAN), ["<P>"]).sum() == 0

    def test_unknown_names_stay_apart(self):
        # two names outside the vocabulary share the <unk> id, yet each
        # copies from its own position only
        model = tiny_model()
        names = ["Zed", "Yul"]
        assert {model.token_id(n) for n in names} == {model.vocab[UNK]}
        mask = _copy_masks(_surfaces(["<PLAYER>Zed", "<P>", "<PLAYER>Yul"]),
                           names)
        assert mask.tolist() == [[1, 0, 0], [0, 0, 1]]


class TestInstanceLoss:
    def test_initial_loss_near_uniform(self):
        # with zero output weights and the copy gate forced off, every
        # step is uniform over the vocabulary
        model = tiny_model()
        model.store["W_out"].data[:] = 0.0
        model.store["b_out"].data[:] = 0.0
        model.store["w_copy"].data[:] = 0.0
        model.store["b_copy"].data = np.asarray(-50.0)
        tape = Tape()
        loss = instance_loss(tape, model, PLAN, TARGET)
        v = len(model.vocab)
        assert float(loss.data) == pytest.approx(
            (len(TARGET) + 1) * np.log(v), rel=1e-6)

    def test_copy_only_token_reachable(self):
        # a target token absent from the vocabulary can still get probability
        # via copying, so the loss stays finite and below the UNK-floor value
        model = tiny_model()
        tape = Tape()
        loss = instance_loss(tape, model, PLAN, ["C.Mullins"])
        assert np.isfinite(float(loss.data))
        assert "C.Mullins" not in model.vocab  # really out-of-vocabulary

    @staticmethod
    def _models_by_trunc():
        """Models at ``trunc`` 100 and 2 that share one parameter store."""
        model = tiny_model()
        return [GeneratorModel(model.store, model.vocab,
                               replace(model.hyper, trunc=trunc))
                for trunc in (100, 2)]

    def test_truncation_detaches_but_preserves_value(self):
        losses = []
        for model in self._models_by_trunc():
            tape = Tape()
            losses.append(float(instance_loss(tape, model, PLAN, TARGET).data))
        assert losses[0] == pytest.approx(losses[1])  # forward equal

    def test_truncation_changes_gradient(self):
        grads = []
        for model in self._models_by_trunc():
            tape = Tape()
            loss = instance_loss(tape, model, PLAN, TARGET)
            tape.backward(loss)
            grads.append(tape.leaves["dec.W"].grad)
        assert not np.allclose(grads[0], grads[1])


class TestTraining:
    def test_loss_decreases(self):
        _, trace = train_generator([(PLAN, TARGET)], GeneratorHyper(
            emb_dim=8, hidden=6, epochs=10, lr=0.05, seed=0))
        assert trace[-1] < trace[0]

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError):
            train_generator([(PLAN, [])], TINY)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_generator([], TINY)

    def test_one_decode_step_per_target(self, monkeypatch):
        """One epoch calls ``decode_step`` once per target token plus the
        EOS, as ``bench/checks.expected_calls`` counts it in every traced
        benchmark round.  ROADMAP item 5 batches these steps; until its
        benchmark change lands, this pins the count."""
        calls = []

        def counted(tape, model, S, h):
            calls.append(h.shape[0])
            return decode_step(tape, model, S, h)
        monkeypatch.setattr(generator, "decode_step", counted)
        pairs = [(PLAN, TARGET), (PLAN[:2], ["the", "Royals", "."])]
        train_generator(pairs, replace(TINY, trunc=4))
        assert calls == [1] * ((len(TARGET) + 1) + (3 + 1))

    def test_deterministic(self):
        hyper = GeneratorHyper(emb_dim=8, hidden=6, epochs=2, seed=3)
        m1, t1 = train_generator([(PLAN, TARGET)], hyper)
        m2, t2 = train_generator([(PLAN, TARGET)], hyper)
        assert t1 == t2
        for name, p in m1.store.items():
            assert np.array_equal(p.data, m2.store[name].data)

    def test_stop_tol(self):
        hyper = GeneratorHyper(emb_dim=8, hidden=6, epochs=50, lr=0.1, seed=0,
                               stop_tol=2.0)
        _, trace = train_generator([(PLAN, TARGET)], hyper)
        assert len(trace) < 50
        assert trace[-1] < 2.0


class TestGenerate:
    def _trained(self, epochs=150, max_len=30):
        model, _ = train_generator([(PLAN, TARGET)], GeneratorHyper(
            emb_dim=8, hidden=8, epochs=epochs, lr=0.1, seed=0,
            stop_tol=0.005, max_len=max_len))
        return model

    def test_overfit_reproduces_target(self):
        model = self._trained()
        assert generate(PLAN, model, beam_size=2) == TARGET

    def test_no_eos_or_bos_in_output(self):
        model = self._trained(epochs=3, max_len=15)
        out = generate(PLAN, model, beam_size=2)
        assert EOS not in out and BOS not in out and UNK not in out

    def test_length_cap_respected(self):
        model = tiny_model(hyper=replace(TINY, max_len=5))
        out = generate(PLAN, model, beam_size=2)
        assert len(out) <= 5

    @pytest.mark.parametrize("beam", [1, 2, 3])
    def test_separator_copy_never_emits_empty_token(self, beam):
        # the <P> separator is the plan's only position, and the copy gate
        # is all but fully open: every step puts nearly all its mass on
        # the separator's empty surface, which must never come out
        model = tiny_model(hyper=replace(TINY, max_len=8))
        model.store["b_copy"].data = np.asarray(50.0)
        out = generate(["<P>"], model, beam_size=beam)
        assert out and "" not in out

    def test_bad_beam_size(self):
        with pytest.raises(ValueError):
            generate(PLAN, tiny_model(), beam_size=0)
