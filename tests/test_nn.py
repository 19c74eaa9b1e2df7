import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macroplan import nn
from macroplan.autodiff import ShapeError, Tape
from macroplan.nn import (ADAGRAD_EPS, GRAD_CLIP, ParamStore, adagrad_step,
                          beam_search, best_hypothesis, bilstm_encode,
                          grad_check, load_params, lstm_step,
                          rank_expansions, save_params)
from macroplan.planner import PlannerHyper, train_planner


def _store_with(rng, **shapes):
    store = ParamStore()
    for name, shape in shapes.items():
        store.create(name, shape, rng)
    return store


class TestParamStore:
    def test_duplicate_name_rejected(self, rng):
        store = _store_with(rng, w=(2, 2))
        with pytest.raises(ValueError):
            store.create("w", (2, 2), rng)

    def test_lstm_forget_bias(self, rng):
        store = ParamStore()
        store.create_lstm("cell", 3, 4, rng)
        b = store["cell.b"].data
        assert np.allclose(b[4:8], 1.0)   # forget gate slice
        assert np.allclose(b[:4], 0.0)

    def test_bound_grads_only_nonzero(self, rng):
        # b is read but gets no gradient: Adagrad leaves it alone
        store = _store_with(rng, a=(3,), b=(3,))
        before = store["b"].data.copy()
        tape = Tape()
        tape.param(store, "b")
        tape.backward(tape.sum(tape.param(store, "a")))
        assert set(tape.leaves) == {"a", "b"}
        assert tape.leaves["b"].grad is None
        adagrad_step(store, tape.leaves, lr=0.1)
        assert np.array_equal(store["b"].data, before)
        assert not store["b"].accumulator.any()
        assert store["a"].accumulator.all()


class TestTapeLeaves:
    def test_fresh_tape_reads_parameters(self, rng):
        store = _store_with(rng, w=(2, 3))
        tape = Tape()
        w = tape.param(store, "w")
        assert tape.param(store, "w") is w     # one leaf per parameter
        assert np.array_equal(w.data, store["w"].data)
        tape.backward(tape.sum(w))
        assert tape.leaves == {"w": w}
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_two_tapes_keep_their_own_leaves(self, rng):
        store = _store_with(rng, w=(3,))
        x = store["w"].data.copy()
        first, second = Tape(), Tape()
        w1 = first.param(store, "w")
        loss1 = first.sum(first.mul(w1, w1))
        w2 = second.param(store, "w")
        loss2 = second.sum(second.tanh(w2))
        assert w1 is not w2
        second.backward(loss2)
        assert w1.grad is None
        first.backward(loss1)
        assert np.array_equal(first.leaves["w"].grad, 2 * x)
        assert np.array_equal(second.leaves["w"].grad,
                              1.0 - np.tanh(x) * np.tanh(x))

    def test_no_tape_outlives_fit(self, monkeypatch):
        # once fit returns, nothing of the model holds a tape, and no
        # reference cycle keeps one for the collector
        made = []

        class RecordedTape(Tape):
            # a subclass without __slots__ takes weak references
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(nn, "Tape", RecordedTape)
        seqs = [["a", "b"], ["c"], ["a", "c", "d"]]
        gc.disable()
        try:
            model, _ = train_planner([(seqs, [2, 0])], PlannerHyper(
                emb_dim=4, hidden=3, epochs=2, seed=0))
            assert len(made) == 2 and model.store
            assert all(ref() is None for ref in made)
        finally:
            gc.enable()


class TestLSTM:
    def test_shapes_batchless(self, rng):
        # one hypothesis is a one-row stack
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        h, c = lstm_step(tape, tape.zeros((1, 3)), tape.zeros((1, 5)),
                         tape.zeros((1, 5)), tape.param(store, "c.W"),
                         tape.param(store, "c.b"))
        assert h.shape == (1, 5) and c.shape == (1, 5)

    def test_shapes_batched(self, rng):
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        h, c = lstm_step(tape, tape.zeros((7, 3)), tape.zeros((7, 5)),
                         tape.zeros((7, 5)), tape.param(store, "c.W"),
                         tape.param(store, "c.b"))
        assert h.shape == (7, 5)

    def test_weight_shape_checked(self, rng):
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        with pytest.raises(ShapeError):
            lstm_step(tape, tape.zeros((1, 4)), tape.zeros((1, 5)),
                      tape.zeros((1, 5)), tape.param(store, "c.W"),
                      tape.param(store, "c.b"))

    def test_bilstm_positions_and_width(self, rng):
        store = ParamStore()
        store.create_lstm("f", 3, 4, rng)
        store.create_lstm("b", 3, 4, rng)
        tape = Tape()
        seq = [tape.tensor(rng.normal(size=(1, 3))) for _ in range(6)]
        states = bilstm_encode(tape, seq, tape.param(store, "f.W"),
                               tape.param(store, "f.b"),
                               tape.param(store, "b.W"),
                               tape.param(store, "b.b"), 4)
        assert len(states) == 6
        assert all(s.shape == (1, 8) for s in states)

    def test_bilstm_empty_rejected(self, rng):
        store = ParamStore()
        store.create_lstm("f", 3, 4, rng)
        store.create_lstm("b", 3, 4, rng)
        tape = Tape()
        with pytest.raises(ValueError):
            bilstm_encode(tape, [], tape.param(store, "f.W"),
                          tape.param(store, "f.b"), tape.param(store, "b.W"),
                          tape.param(store, "b.b"), 4)

    def test_lstm_grad_check(self, rng):
        store = ParamStore()
        store.create_lstm("c", 2, 3, rng)
        x = rng.normal(size=(1, 2))

        def loss_fn(tape):
            h, c = lstm_step(tape, tape.tensor(x), tape.zeros((1, 3)),
                             tape.zeros((1, 3)), tape.param(store, "c.W"),
                             tape.param(store, "c.b"))
            h, c = lstm_step(tape, tape.tensor(x), h, c,
                             tape.param(store, "c.W"),
                             tape.param(store, "c.b"))
            return tape.sum(h)

        assert grad_check(loss_fn, store) < 1e-6


class TestAdagrad:
    def test_update_formula(self, rng):
        store = ParamStore()
        p = store.create("w", (3,), rng)
        before = p.data.copy()
        tape = Tape()
        w = tape.param(store, "w")
        tape.backward(tape.sum(tape.mul(w, w)))
        g = 2 * before
        adagrad_step(store, tape.leaves, lr=0.1)
        expected = before - 0.1 * g / (np.sqrt(g * g) + ADAGRAD_EPS)
        assert np.allclose(p.data, expected)
        assert np.allclose(p.accumulator, g * g)

    def test_first_step_moves_by_lr(self, rng):
        # with a fresh accumulator every touched coordinate moves by ~lr
        store = ParamStore()
        p = store.create("w", (4,), rng)
        before = p.data.copy()
        tape = Tape()
        w = tape.param(store, "w")
        tape.backward(tape.sum(tape.mul(w, w)))
        adagrad_step(store, tape.leaves, lr=0.05)
        assert np.allclose(np.abs(p.data - before), 0.05, atol=1e-6)

    def test_clip_rescales_global_norm(self, rng):
        store = ParamStore()
        p = store.create("w", (2,), rng)
        p.data[:] = [30.0, 40.0]
        before = p.data.copy()
        tape = Tape()
        # loss = 0.5 * sum(w^2) has gradient w, norm 50
        tape.backward(tape.scale(tape.sum(
            tape.mul(tape.param(store, "w"), tape.param(store, "w"))),
            0.5))
        adagrad_step(store, tape.leaves, lr=1.0)
        g = before * (GRAD_CLIP / 50.0)
        expected = before - g / (np.sqrt(g * g) + ADAGRAD_EPS)
        assert np.allclose(p.data, expected)

    def test_bad_lr_rejected(self, rng):
        store = _store_with(rng, w=(2,))
        with pytest.raises(ValueError):
            adagrad_step(store, {}, lr=0.0)


class TestGradCheck:
    def test_detects_correct_gradient(self, rng):
        store = _store_with(rng, w=(4,))

        def loss_fn(tape):
            return tape.sum(tape.tanh(tape.param(store, "w")))

        assert grad_check(loss_fn, store) < 1e-7

    def test_detects_broken_gradient(self, rng):
        store = _store_with(rng, w=(3,))

        def loss_fn(tape):
            w = tape.param(store, "w")
            out = tape.tanh(w)
            tape.nodes[-1] = lambda: w.accum(out.grad * 2.0)  # wrong
            return tape.sum(out)

        assert grad_check(loss_fn, store) > 1e-2


#: log probs drawn from three values, so that exact ties are common
TIED_LOGP = st.sampled_from([-0.5, -1.0, -2.0])


@st.composite
def beams_and_expansions(draw):
    """Distinct histories of one length, and distinct (parent, token)
    expansions of them with their log probs."""
    length = draw(st.integers(0, 3))
    histories = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * length),
        min_size=1, max_size=1 if length == 0 else 5, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, len(histories) - 1), st.integers(0, 3)),
        min_size=1, max_size=12, unique=True))
    logp = [draw(TIED_LOGP) for _ in pairs]
    return histories, pairs, logp


class TestBeamRanking:
    @given(beams_and_expansions(), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_rank_expansions_sorts_as_tuples(self, drawn, width):
        histories, pairs, logp = drawn
        rank = np.array([sorted(histories).index(h) for h in histories])
        keep, new_rank = rank_expansions(
            np.array(logp), np.array([p for p, _ in pairs]),
            np.array([j for _, j in pairs]), rank, width)
        expanded = [histories[p] + (j,) for p, j in pairs]
        want = sorted(range(len(pairs)),
                      key=lambda e: (-logp[e], expanded[e]))[:width]
        assert keep.tolist() == want
        kept = [expanded[e] for e in want]
        assert new_rank.tolist() == [sorted(kept).index(h) for h in kept]

    @given(st.lists(st.tuples(TIED_LOGP, st.lists(st.integers(0, 2),
                                                   max_size=4).map(tuple)),
                    min_size=1, max_size=8, unique_by=lambda p: p[1]))
    @settings(max_examples=200, deadline=None)
    def test_best_hypothesis_sorts_as_tuples(self, pairs):
        ranked = sorted(pairs, key=lambda p: (-(p[0] / max(len(p[1]), 1)),
                                              p[1]))
        assert best_hypothesis(pairs) == ranked[0][1]

    def test_best_hypothesis_normalizes_length(self):
        # -2.7 over three steps (-0.9 a step) beats -2.0 over two
        assert best_hypothesis([(-2.0, (0, 1)), (-2.7, (0, 1, 2))]) == \
            (0, 1, 2)


class ToyDecoder:
    """A step function over ``actions`` actions whose log probs depend on
    the history alone: drawn from ``seed`` and the history, or all equal
    under ``tied``.  An action other than ``end`` is blocked where it and
    the history sum to a multiple of 3, but at the root.  The one state a
    step returns is each row's history sum, and the next step checks that
    the search handed each history its parent's row."""

    def __init__(self, actions, end, seed, tied):
        self.actions, self.end, self.seed, self.tied = (actions, end, seed,
                                                        tied)

    def logp(self, history):
        if self.tied:
            logp = np.full(self.actions, -1.0)
        else:
            logp = np.log(np.random.default_rng(
                [self.seed, len(history), *history]).dirichlet(
                    np.ones(self.actions)))
        for j in range(self.actions):
            if history and j != self.end and (sum(history) + j) % 3 == 0:
                logp[j] = -np.inf
        return logp

    def step(self, history, states):
        (total,) = states
        assert total[:, 0].tolist() == history[:, :-1].sum(axis=1).tolist()
        return ((history.sum(axis=1, keepdims=True),),
                np.array([self.logp(tuple(h)) for h in history.tolist()]))

    def search(self, beam_size, max_len):
        return beam_search(self.step, (np.zeros((1, 1), np.int64),),
                           self.end, beam_size, max_len)

    def brute_force(self, max_len):
        """best_hypothesis over every allowed history of 1 to ``max_len``
        actions, each finished by ``end``."""
        pairs, live = [], [((), 0.0)]
        for _ in range(max_len):
            grown = []
            for history, logprob in live:
                logp = self.logp(history)
                grown += [(history + (j,), logprob + logp[j])
                          for j in range(self.actions)
                          if j != self.end and np.isfinite(logp[j])]
            live = grown
            pairs += [(logprob + self.logp(h)[self.end], h)
                      for h, logprob in live]
        return best_hypothesis(pairs)


class TestBeamSearch:
    @given(st.integers(3, 4), st.data(), st.integers(0, 2**16),
           st.integers(1, 3), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_wide_beam_is_exhaustive(self, actions, data, seed, max_len,
                                     tied):
        toy = ToyDecoder(actions, data.draw(st.integers(0, actions - 1)),
                         seed, tied)
        # no length has more allowed histories than (actions - 1) ** max_len
        assert toy.search((actions - 1) ** max_len, max_len) == \
            toy.brute_force(max_len)

    def test_tied_search_keeps_the_smallest_history(self):
        # every history of max_len actions scores best, the smallest first
        toy = ToyDecoder(4, 0, 0, tied=True)
        for beam_size in (1, 2, 27):
            assert toy.search(beam_size, 3) == toy.brute_force(3) == (1, 1, 2)

    @pytest.mark.parametrize("beam_size, max_len, key", [
        (0, 3, "beam_size"), (2, 0, "max_len")])
    def test_out_of_range_is_refused(self, beam_size, max_len, key):
        with pytest.raises(ValueError, match=key):
            ToyDecoder(3, 0, 0, False).search(beam_size, max_len)


class TestCheckpoints:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        store = ParamStore()
        store.create("emb", (7, 3), rng)
        store.create_lstm("enc", 3, 4, rng)
        store.create("bias", (4,), rng)
        path = tmp_path / "model.mpln"
        save_params(path, store)
        loaded = load_params(path)
        assert [n for n, _ in loaded.items()] == [n for n, _ in store.items()]
        for name, p in store.items():
            assert p.data.shape == loaded[name].data.shape
            assert p.data.tobytes() == loaded[name].data.tobytes()

    def test_save_deterministic(self, rng, tmp_path):
        store = _store_with(rng, a=(3, 2), b=(5,))
        p1, p2 = tmp_path / "a.mpln", tmp_path / "b.mpln"
        save_params(p1, store)
        save_params(p2, store)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mpln"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_params(path)

    @pytest.mark.parametrize("cut", [6, 10, 14, 19, 25, 50],
                             ids=["version", "name-length", "name", "rank",
                                  "dims", "data"])
    def test_truncation_rejected(self, tmp_path, rng, cut):
        # magic 0-4, version 4-8, then one record: name length 8-12, the
        # name "enc.W" 12-17, rank 17-21, two dims 21-37, six values 37-85
        path = tmp_path / "t.mpln"
        save_params(path, _store_with(rng, **{"enc.W": (2, 3)}))
        raw = path.read_bytes()
        assert len(raw) == 85
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as exc:
            load_params(path)
        assert str(exc.value) == f"{path}: truncated checkpoint"

    def test_bad_version_rejected(self, tmp_path, rng):
        store = _store_with(rng, a=(2,))
        path = tmp_path / "v.mpln"
        save_params(path, store)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_params(path)
