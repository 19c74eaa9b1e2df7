import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macroplan.autodiff import ShapeError, Tape
from macroplan.nn import (ADAGRAD_EPS, GRAD_CLIP, ParamStore, adagrad_step,
                          best_hypothesis, bilstm_encode, grad_check,
                          load_params, lstm_step, rank_expansions,
                          save_params)


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
        store = _store_with(rng, a=(3,), b=(3,))
        tape = Tape()
        store.bind(tape)
        tape.backward(tape.sum(store.t("a")))
        assert set(store.grads()) == {"a"}


class TestLSTM:
    def test_shapes_batchless(self, rng):
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        store.bind(tape)
        h, c = lstm_step(tape, tape.zeros(3), tape.zeros(5), tape.zeros(5),
                         store.t("c.W"), store.t("c.b"))
        assert h.shape == (5,) and c.shape == (5,)

    def test_shapes_batched(self, rng):
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        store.bind(tape)
        h, c = lstm_step(tape, tape.zeros((7, 3)), tape.zeros((7, 5)),
                         tape.zeros((7, 5)), store.t("c.W"), store.t("c.b"))
        assert h.shape == (7, 5)

    def test_weight_shape_checked(self, rng):
        store = ParamStore()
        store.create_lstm("c", 3, 5, rng)
        tape = Tape()
        store.bind(tape)
        with pytest.raises(ShapeError):
            lstm_step(tape, tape.zeros(4), tape.zeros(5), tape.zeros(5),
                      store.t("c.W"), store.t("c.b"))

    def test_bilstm_positions_and_width(self, rng):
        store = ParamStore()
        store.create_lstm("f", 3, 4, rng)
        store.create_lstm("b", 3, 4, rng)
        tape = Tape()
        store.bind(tape)
        seq = [tape.tensor(rng.normal(size=3)) for _ in range(6)]
        states = bilstm_encode(tape, seq, store.t("f.W"), store.t("f.b"),
                               store.t("b.W"), store.t("b.b"), 4)
        assert len(states) == 6
        assert all(s.shape == (8,) for s in states)

    def test_bilstm_empty_rejected(self, rng):
        store = ParamStore()
        store.create_lstm("f", 3, 4, rng)
        store.create_lstm("b", 3, 4, rng)
        tape = Tape()
        store.bind(tape)
        with pytest.raises(ValueError):
            bilstm_encode(tape, [], store.t("f.W"), store.t("f.b"),
                          store.t("b.W"), store.t("b.b"), 4)

    def test_lstm_grad_check(self, rng):
        store = ParamStore()
        store.create_lstm("c", 2, 3, rng)
        x = rng.normal(size=2)

        def loss_fn():
            tape = Tape()
            store.bind(tape)
            h, c = lstm_step(tape, tape.tensor(x), tape.zeros(3),
                             tape.zeros(3), store.t("c.W"), store.t("c.b"))
            h, c = lstm_step(tape, tape.tensor(x), h, c,
                             store.t("c.W"), store.t("c.b"))
            return tape.sum(h)

        assert grad_check(loss_fn, store) < 1e-6


class TestAdagrad:
    def test_update_formula(self, rng):
        store = ParamStore()
        p = store.create("w", (3,), rng)
        before = p.data.copy()
        tape = Tape()
        store.bind(tape)
        tape.backward(tape.sum(tape.mul(store.t("w"), store.t("w"))))
        g = 2 * before
        adagrad_step(store, lr=0.1)
        expected = before - 0.1 * g / (np.sqrt(g * g) + ADAGRAD_EPS)
        assert np.allclose(p.data, expected)
        assert np.allclose(p.accumulator, g * g)

    def test_first_step_moves_by_lr(self, rng):
        # with a fresh accumulator every touched coordinate moves by ~lr
        store = ParamStore()
        p = store.create("w", (4,), rng)
        before = p.data.copy()
        tape = Tape()
        store.bind(tape)
        tape.backward(tape.sum(tape.mul(store.t("w"), store.t("w"))))
        adagrad_step(store, lr=0.05)
        assert np.allclose(np.abs(p.data - before), 0.05, atol=1e-6)

    def test_clip_rescales_global_norm(self, rng):
        store = ParamStore()
        p = store.create("w", (2,), rng)
        p.data[:] = [30.0, 40.0]
        before = p.data.copy()
        tape = Tape()
        store.bind(tape)
        # loss = 0.5 * sum(w^2) has gradient w, norm 50
        tape.backward(tape.scale(tape.sum(
            tape.mul(store.t("w"), store.t("w"))), 0.5))
        adagrad_step(store, lr=1.0)
        g = before * (GRAD_CLIP / 50.0)
        expected = before - g / (np.sqrt(g * g) + ADAGRAD_EPS)
        assert np.allclose(p.data, expected)

    def test_bad_lr_rejected(self, rng):
        store = _store_with(rng, w=(2,))
        with pytest.raises(ValueError):
            adagrad_step(store, lr=0.0)


class TestGradCheck:
    def test_detects_correct_gradient(self, rng):
        store = _store_with(rng, w=(4,))

        def loss_fn():
            tape = Tape()
            store.bind(tape)
            return tape.sum(tape.tanh(store.t("w")))

        assert grad_check(loss_fn, store) < 1e-7

    def test_detects_broken_gradient(self, rng):
        store = _store_with(rng, w=(3,))

        class BrokenTape(Tape):
            def tanh(self, a):
                out = super().tanh(a)
                self.nodes[-1] = lambda: a.accum(out.grad * 2.0)  # wrong
                return out

        def loss_fn():
            tape = BrokenTape()
            store.bind(tape)
            return tape.sum(tape.tanh(store.t("w")))

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
