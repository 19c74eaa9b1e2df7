import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from macroplan.autodiff import NLL_FLOOR, ShapeError, Tape, Tensor
from macroplan.generator import (GeneratorHyper, GeneratorModel,
                                 build_gen_vocab)
from macroplan.generator import instance_loss as generator_loss
from macroplan.nn import ParamStore
from macroplan.planner import PlannerHyper, PlannerModel, build_vocab
from macroplan.planner import instance_loss as planner_loss

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=64)


def vec(n):
    return arrays(np.float64, (n,), elements=finite)


def mat(r, c):
    return arrays(np.float64, (r, c), elements=finite)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_unary(op_name, data, scalar_args=(), tol=1e-5, reduce="sum"):
    """Analytic gradient of sum(op(x)) must match finite differences."""
    tape = Tape()
    x = tape.tensor(data.copy())
    y = getattr(tape, op_name)(x, *scalar_args)
    loss = tape.sum(y) if reduce == "sum" else y
    tape.backward(loss)

    def f(arr):
        t2 = Tape()
        out = getattr(t2, op_name)(t2.tensor(arr), *scalar_args)
        return float(np.sum(out.data))

    numeric = numeric_grad(f, data.copy())
    assert np.allclose(x.grad, numeric, atol=tol), (x.grad, numeric)


class TestUnaryGradients:
    @given(vec(5))
    @settings(max_examples=25, deadline=None)
    def test_sigmoid(self, data):
        check_unary("sigmoid", data)

    @given(vec(5))
    @settings(max_examples=25, deadline=None)
    def test_tanh(self, data):
        check_unary("tanh", data)

    @given(vec(6))
    @settings(max_examples=25, deadline=None)
    def test_softmax(self, data):
        # weighted sum makes the softmax gradient nontrivial
        w = np.arange(6, dtype=np.float64)
        tape = Tape()
        x = tape.tensor(data.copy())
        loss = tape.sum(tape.mul(tape.softmax(x), tape.tensor(w)))
        tape.backward(loss)

        def f(arr):
            t2 = Tape()
            return float(np.sum(t2.softmax(t2.tensor(arr)).data * w))

        assert np.allclose(x.grad, numeric_grad(f, data.copy()), atol=1e-5)

    @given(vec(4))
    @settings(max_examples=25, deadline=None)
    def test_log(self, data):
        check_unary("log", np.abs(data) + 0.5)

    @given(vec(5))
    @settings(max_examples=25, deadline=None)
    def test_scale(self, data):
        check_unary("scale", data, (2.5,))

    @given(mat(3, 4))
    @settings(max_examples=25, deadline=None)
    def test_transpose(self, data):
        tape = Tape()
        x = tape.tensor(data.copy())
        w = np.arange(12, dtype=np.float64).reshape(4, 3)
        loss = tape.sum(tape.mul(tape.transpose(x), tape.tensor(w)))
        tape.backward(loss)
        assert np.allclose(x.grad, w.T)


class TestBinaryGradients:
    @given(mat(3, 4), mat(4, 2))
    @settings(max_examples=25, deadline=None)
    def test_matmul(self, a, b):
        tape = Tape()
        ta, tb = tape.tensor(a.copy()), tape.tensor(b.copy())
        tape.backward(tape.sum(tape.matmul(ta, tb)))
        ones = np.ones((3, 2))
        assert np.allclose(ta.grad, ones @ b.T)
        assert np.allclose(tb.grad, a.T @ ones)

    @given(vec(5), vec(5))
    @settings(max_examples=25, deadline=None)
    def test_mul(self, a, b):
        tape = Tape()
        ta, tb = tape.tensor(a.copy()), tape.tensor(b.copy())
        tape.backward(tape.sum(tape.mul(ta, tb)))
        assert np.allclose(ta.grad, b)
        assert np.allclose(tb.grad, a)

    @given(mat(3, 4), vec(4))
    @settings(max_examples=25, deadline=None)
    def test_add_broadcast_unbroadcasts_grad(self, a, b):
        tape = Tape()
        ta, tb = tape.tensor(a.copy()), tape.tensor(b.copy())
        tape.backward(tape.sum(tape.add(ta, tb)))
        assert ta.grad.shape == a.shape
        assert tb.grad.shape == b.shape
        assert np.allclose(tb.grad, 3.0)  # summed over the broadcast rows


class TestSoftmaxProperties:
    @given(vec(7))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, data):
        tape = Tape()
        y = tape.softmax(tape.tensor(data)).data
        assert y.min() >= 0
        assert np.isclose(y.sum(), 1.0)

    @given(vec(7), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, data, shift):
        tape = Tape()
        a = tape.softmax(tape.tensor(data)).data
        b = tape.softmax(tape.tensor(data + shift)).data
        assert np.allclose(a, b)

    def test_mask_zeroes_probability(self):
        tape = Tape()
        mask = np.array([True, False, True, False])
        y = tape.softmax(tape.tensor(np.ones(4)), mask=mask).data
        assert np.allclose(y, [0.5, 0.0, 0.5, 0.0])

    def test_mask_blocks_gradient(self):
        tape = Tape()
        x = tape.tensor(np.zeros((1, 3)))
        y = tape.softmax(x, mask=np.array([[True, True, False]]))
        tape.backward(tape.sum(tape.slice_last(y, 0, 1)))
        assert x.grad[0, 2] == pytest.approx(0.0, abs=1e-12)


class TestStructuralOps:
    def test_concat_routes_gradient(self):
        tape = Tape()
        a, b = tape.tensor(np.zeros((1, 2))), tape.tensor(np.zeros((1, 3)))
        out = tape.concat([a, b])
        tape.backward(tape.sum(tape.slice_last(out, 3, 4)))
        assert np.allclose(a.grad, 0)
        assert np.allclose(b.grad, [[0, 1, 0]])

    def test_concat_rows_and_row(self):
        tape = Tape()
        rows = [tape.tensor(np.arange(3, dtype=float)[None]) for _ in range(4)]
        m = tape.concat(rows, axis=0)
        picked = tape.row(m, 2)
        assert picked.shape == (1, 3)
        tape.backward(tape.sum(picked))
        assert rows[2].grad is not None and np.allclose(rows[2].grad, 1.0)
        assert np.allclose(rows[0].grad, 0.0)  # untouched rows get zero

    def test_gather_rows_accumulates_repeats(self):
        tape = Tape()
        table = tape.tensor(np.zeros((4, 2)))
        out = tape.gather_rows(table, [1, 1, 3])
        tape.backward(tape.sum(out))
        assert np.allclose(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_gather_rows_takes_an_index_array_of_any_shape(self):
        tape = Tape()
        table = tape.tensor(np.arange(8.0).reshape(4, 2))
        out = tape.gather_rows(table, [[3, 1, 3], [0, 3, 1]])
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out.data[1, 1], [6.0, 7.0])
        tape.backward(tape.sum(out))
        assert np.array_equal(table.grad, [[1, 1], [2, 2], [0, 0], [3, 3]])

    def test_slice_last(self):
        tape = Tape()
        x = tape.tensor(np.zeros(6))
        tape.backward(tape.sum(tape.slice_last(x, 2, 4)))
        assert np.allclose(x.grad, [0, 0, 1, 1, 0, 0])

    def test_pick_and_nll_pick_agree(self):
        probs = np.array([0.1, 0.6, 0.3])
        tape = Tape()
        p = tape.tensor(probs)
        nll = tape.nll_pick(p, 1)
        assert float(nll.data) == pytest.approx(-np.log(0.6))
        tape.backward(nll)
        assert p.grad[1] == pytest.approx(-1 / 0.6)
        assert p.grad[0] == 0.0

    def test_nll_pick_floor(self):
        tape = Tape()
        nll = tape.nll_pick(tape.tensor(np.array([0.0, 1.0])), 0)
        assert np.isfinite(float(nll.data))

    def test_mean(self):
        tape = Tape()
        x = tape.tensor(np.arange(4, dtype=float))
        m = tape.mean(x)
        assert float(m.data) == pytest.approx(1.5)
        tape.backward(m)
        assert np.allclose(x.grad, 0.25)

    def test_mean_of_rows_is_a_row(self):
        tape = Tape()
        x = tape.tensor(np.arange(6, dtype=float).reshape(3, 2))
        m = tape.mean(x, axis=0)
        assert np.array_equal(m.data, [[2.0, 3.0]])
        tape.backward(tape.sum(tape.mul(m, tape.tensor([[1.0, 3.0]]))))
        assert np.allclose(x.grad, [[1 / 3, 1.0]] * 3)


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.backward(tape.tensor(np.zeros(3)))

    def test_matmul_shape_error(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            tape.matmul(tape.tensor(np.zeros((2, 3))),
                        tape.tensor(np.zeros((4, 2))))

    @pytest.mark.parametrize("a, b", [((3,), (3, 2)), ((2, 3), (3,)),
                                      ((3,), (3,))],
                             ids=["vector-left", "vector-right", "both"])
    def test_matmul_refuses_vectors(self, a, b):
        # a vector operand fails in the forward pass, naming both shapes,
        # not later in backward
        tape = Tape()
        with pytest.raises(ShapeError) as err:
            tape.matmul(tape.tensor(np.ones(a)), tape.tensor(np.ones(b)))
        assert f"{a} x {b}" in str(err.value)
        assert not tape.nodes

    def test_unused_branches_skipped(self):
        # ops whose outputs never feed the loss must not crash backward
        tape = Tape()
        x = tape.tensor(np.ones(3))
        tape.sigmoid(x)  # dangling
        loss = tape.sum(tape.tanh(x))
        tape.backward(loss)
        assert x.grad is not None

    def test_gradient_accumulates_across_uses(self):
        tape = Tape()
        x = tape.tensor(np.ones(2))
        loss = tape.sum(tape.add(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, 2.0)

    def test_backward_frees_tape_without_cycle_collector(self):
        # after backward nothing but the caller holds the tape, so it and
        # its tensors go as soon as the last reference does
        gc.disable()
        try:
            tape = Tape()
            x = tape.tensor(np.ones(3))
            loss = tape.sum(tape.tanh(tape.mul(x, x)))
            inner = weakref.ref(loss)
            tape.backward(loss)
            assert np.allclose(x.grad, 2 * (1 - np.tanh(1.0) ** 2))
            del tape, loss
            assert inner() is None
        finally:
            gc.enable()

    def test_backward_frees_lstm_sequence_without_cycle_collector(self):
        # the sequence node's closure holds its per-step outputs and saved
        # arrays; popping it must leave nothing for the cycle collector
        gc.disable()
        try:
            tape = Tape()
            rng = np.random.default_rng(0)
            xs = [tape.tensor(rng.normal(size=(2, 3))) for _ in range(4)]
            h, c = tape.zeros((2, 5)), tape.zeros((2, 5))
            W = tape.tensor(rng.normal(size=(8, 20)))
            hs, c_last = tape.lstm_sequence(xs, h, c, W,
                                            tape.tensor(np.zeros(20)))
            loss = tape.add(tape.sum(tape.concat(hs, axis=0)),
                            tape.sum(c_last))
            outputs = [weakref.ref(t) for t in hs + [c_last, loss]]
            del hs, c_last
            tape.backward(loss)
            assert W.grad is not None and xs[0].grad is not None
            del tape, loss
            assert all(ref() is None for ref in outputs)
        finally:
            gc.enable()

    def test_backward_frees_intermediates_during_replay(self):
        # once the nodes that read an intermediate have replayed, it and its
        # gradient are gone, before the nodes recorded ahead of it replay
        gc.disable()
        try:
            tape = Tape()
            x = tape.tensor(np.ones(3))
            seen = []
            # a probe recorded before the intermediate, so it replays after
            tape._record(x, lambda: seen.append(mid() is None))
            y = tape.mul(x, x)
            mid = weakref.ref(y)
            loss = tape.sum(tape.tanh(y))
            del y
            tape.backward(loss)
            assert seen == [True]
            assert np.allclose(x.grad, 2 * (1 - np.tanh(1.0) ** 2))
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Oracle: the index ops' backward as it was before ``Tensor.accum_at``


def _parent_accum(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


class ParentTape(Tape):
    """Each index op's backward writes its slice into a zero array the size
    of the parent and adds that whole array into the parent's gradient;
    run it with ``_parent_accum`` as ``Tensor.accum``."""

    def _scatter(self, a, out, write):
        def backward():
            g = np.zeros_like(a.data)
            write(g, out.grad)
            a.accum(g)
        self._record(out, backward)
        return out

    def _index(self, a, key):
        out = Tensor(a.data[key])
        return self._scatter(a, out, lambda g, og: g.__setitem__(key, og))

    def gather_rows(self, table, indices):
        idx = np.asarray(indices, dtype=np.int64)
        out = Tensor(table.data[idx])
        return self._scatter(table, out,
                             lambda g, og: np.add.at(g, idx, og))

    def nll_pick(self, probs, index):
        p = max(float(probs.data[index]), NLL_FLOOR)
        out = Tensor(np.asarray(-np.log(p)))
        return self._scatter(probs, out,
                             lambda g, og: g.__setitem__(index, -og / p))


def _micro_planner():
    """AC1's micro planner; the two length-2 candidates share their second
    token, so one ``gather_rows`` reads a row twice."""
    seqs = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "a"], ["b", "e"],
            ["c"]]
    hyper = PlannerHyper(emb_dim=5, hidden=4, seed=1)
    model = PlannerModel.init(build_vocab(seqs), hyper,
                              np.random.default_rng(1))
    ids = [model.token_ids(s) for s in seqs]
    return model.store, lambda tape: planner_loss(tape, model, ids, [0, 3, 1])


def _micro_generator():
    """AC1's micro generator."""
    plan = ["<TEAM>Ra", "<TR>9", "<P>", "<PLAYER>Bo", "<RBI>1", "<INN>2"]
    target = ["the", "Ra", "scored", "9", "."]
    hyper = GeneratorHyper(emb_dim=5, hidden=4, seed=2)
    model = GeneratorModel.init(build_gen_vocab([(plan, target)]), hyper,
                                np.random.default_rng(2))
    return model.store, lambda tape: generator_loss(tape, model, plan, target)


def _index_ops():
    """Every index op, each parent read more than once, and a table whose
    gradient is already set when a gather with repeated ids adds to it."""
    store = ParamStore()
    store.create("x", (4, 6), np.random.default_rng(5))

    def loss(tape):
        x = tape.param(store, "x")
        w = tape.tensor(np.random.default_rng(6).normal(size=(3, 6)))
        parts = [tape.sum(tape.mul(tape.gather_rows(x, [2, 0, 2]), w)),
                 tape.sum(tape.mul(tape.gather_rows(x, [1, 2, 2]), w)),
                 tape.sum(tape.slice_last(x, 1, 4)),
                 tape.sum(tape.mul(tape.row(x, 2), tape.row(x, 3))),
                 tape.sum(tape.row(tape.transpose(x), 0)),
                 tape.sum(tape.slice_last(tape.row(x, 1), 2, 3)),
                 tape.nll_pick(tape.softmax(tape.row(x, 1)), (0, 4))]
        total = parts[0]
        for part in parts[1:]:
            total = tape.add(total, part)
        return total
    return store, loss


class TestAccumulation:
    def test_first_gradient_is_copied(self):
        # add hands one array to both parents: a's first gradient must not
        # be the array that y (and through it b) later reads
        tape = Tape()
        a, b = tape.tensor(np.ones(3)), tape.tensor(np.ones(3))
        y = tape.add(a, b)
        z = tape.add(y, a)
        tape.backward(tape.sum(z))
        assert np.array_equal(a.grad, np.full(3, 2.0))
        assert np.array_equal(b.grad, np.ones(3))

    @pytest.mark.parametrize("build", [_micro_planner, _micro_generator,
                                       _index_ops],
                             ids=["planner", "generator", "index-ops"])
    def test_gradients_equal_parent_backward(self, build, monkeypatch):
        store, loss_fn = build()

        def grads(tape):
            tape.backward(loss_fn(tape))
            return {name: leaf.grad for name, leaf in tape.leaves.items()
                    if leaf.grad is not None}

        new = grads(Tape())
        with monkeypatch.context() as m:
            m.setattr(Tensor, "accum", _parent_accum)
            old = grads(ParentTape())
        assert new.keys() == old.keys()
        for name in new:
            assert np.array_equal(new[name], old[name]), name
