"""The fused LSTM op against the unfused cell it replaced, and the trie
candidate encoder against the bucketed one it replaced.

``oracle_lstm_step`` is the earlier ``nn.lstm_step``: fifteen tape ops per
step.  ``lstm_sequence``, on the tape and under ``NO_GRAD``, and
``nn.lstm_step``, a one-step sequence, must reproduce its forward exactly.
The sequence's gradients, over one step and over six, and the gradients of
both models' losses must lie within 1e-9 relative of the per-step oracle's.
``oracle_generator_loss`` scores each target with an output layer and an
(L, 1) copy mask of its own, where ``generator.instance_loss`` scores a
segment's targets together.
``reference_encode_candidates`` is the earlier ``planner.encode_candidates``:
one BiLSTM batch per candidate length, pooled position by position.  The
trie encoder's rows must lie within 1e-12 of it and its gradients within
1e-9 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macroplan import generator, nn, planner
from macroplan.autodiff import NO_GRAD, Tape
from macroplan.generator import (BOS, EOS, GeneratorHyper, GeneratorModel,
                                 _output_dists, _surfaces, build_gen_vocab,
                                 decode_step, encode_plan)
from macroplan.planner import (PlannerHyper, PlannerModel, _reps_with_eom,
                               build_vocab, contextualize, encode_candidates,
                               pointer_step)


def oracle_lstm_step(tape, x, h, c, W, b):
    hidden = h.shape[-1]
    z = tape.add(tape.matmul(tape.concat([x, h], axis=-1), W), b)
    ifo = tape.sigmoid(tape.slice_last(z, 0, 3 * hidden))
    i = tape.slice_last(ifo, 0, hidden)
    f = tape.slice_last(ifo, hidden, 2 * hidden)
    o = tape.slice_last(ifo, 2 * hidden, 3 * hidden)
    g = tape.tanh(tape.slice_last(z, 3 * hidden, 4 * hidden))
    c_new = tape.add(tape.mul(f, c), tape.mul(i, g))
    h_new = tape.mul(o, tape.tanh(c_new))
    return h_new, c_new


def _arrays(batch, n_in=3, hidden=4, seed=0):
    """x, h, c, W, b with a spread wide enough to reach the gates' tails."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(batch, n_in)),
            rng.normal(size=(batch, hidden)),
            rng.normal(size=(batch, hidden)),
            rng.normal(size=(n_in + hidden, 4 * hidden)) * 0.8,
            rng.normal(size=4 * hidden))


#: the "1-D" cases run one hypothesis, which is a one-row stack
@pytest.mark.parametrize("batch", [1, 5], ids=["1-D", "batched"])
def test_no_grad_cell_equals_oracle(batch):
    x, h, c, W, b = _arrays(batch)
    for new, old in zip(nn.lstm_step(NO_GRAD, x, h, c, W, b),
                        oracle_lstm_step(NO_GRAD, x, h, c, W, b)):
        assert np.array_equal(new, old)


@pytest.mark.parametrize("sequence", [False, True],
                         ids=["lstm_cell", "lstm_sequence"])
def test_unread_outputs_record_no_gradient(sequence):
    tape = Tape()
    x, h, c, W, b = (tape.tensor(a) for a in _arrays(1))
    if sequence:
        tape.lstm_sequence([x, x], h, c, W, b)
    else:
        nn.lstm_step(tape, x, h, c, W, b)
    tape.backward(tape.sum(x))
    assert all(t.grad is None for t in (h, c, W, b))


# ---------------------------------------------------------------------------
# The sequence op, and the two models' losses, against per-step oracles


#: (batch, steps) of the sequence tests: one hypothesis ("1-D", a one-row
#: stack) or batched, six steps or one
SEQUENCES = pytest.mark.parametrize(
    "batch, steps", [(1, 6), (5, 6), (1, 1), (5, 1)],
    ids=["1-D", "batched", "1-D-1-step", "batched-1-step"])


def _inputs(batch, steps):
    """``steps`` inputs as one array, then h, c, W, b as in ``_arrays``."""
    return (np.random.default_rng(3).normal(size=(steps, batch, 3)),
            *_arrays(batch)[1:])


def _sequence_run(batch, steps, fused, read_last=True):
    """The steps of ``_inputs`` as one sequence node or as oracle cells.
    The loss reads every h but, unless ``read_last``, the last one, and the
    last c.  Returns the h values, the last c and the gradient of every
    input."""
    tape = Tape()
    xs_all, h, c, W, b = (tape.tensor(a) for a in _inputs(batch, steps))
    xs = [tape.gather_rows(xs_all, t) for t in range(xs_all.shape[0])]
    if fused:
        hs, c_last = tape.lstm_sequence(xs, h, c, W, b)
    else:
        hs, state = [], (h, c)
        for x in xs:
            state = oracle_lstm_step(tape, x, *state, W, b)
            hs.append(state[0])
        c_last = state[1]
    loss = tape.sum(tape.mul(c_last, tape.tensor(np.full(c.shape, 0.7))))
    for t, h_t in enumerate(hs[:-1] if not read_last else hs):
        w = np.linspace(-1.0, 1.0 + t, h_t.data.size).reshape(h_t.shape)
        loss = tape.add(loss, tape.sum(tape.mul(h_t, tape.tensor(w))))
    tape.backward(loss)
    return ([h_t.data for h_t in hs], c_last.data,
            [t.grad for t in (xs_all, h, c, W, b)])


@SEQUENCES
def test_sequence_forward_equals_cell(batch, steps):
    new_hs, new_c, _ = _sequence_run(batch, steps, fused=True)
    old_hs, old_c, _ = _sequence_run(batch, steps, fused=False)
    for new, old in zip(new_hs + [new_c], old_hs + [old_c]):
        assert np.array_equal(new, old)
    x_all, h0, c0, W, b = _inputs(batch, steps)
    hs, c_last = NO_GRAD.lstm_sequence(list(x_all), h0, c0, W, b)
    for new, old in zip(hs + [c_last], old_hs + [old_c]):
        assert np.array_equal(new, old)


@SEQUENCES
@pytest.mark.parametrize("read_last", [True, False],
                         ids=["last-h-read", "last-h-unread"])
def test_sequence_gradients_match_oracle(batch, steps, read_last):
    *_, new = _sequence_run(batch, steps, fused=True, read_last=read_last)
    *_, old = _sequence_run(batch, steps, fused=False, read_last=read_last)
    for got, want in zip(new, old):
        assert _rel_err(got, want) <= 1e-9


def oracle_bilstm_encode(tape, seq, W_f, b_f, W_b, b_b, hidden):
    state_shape = (seq[0].shape[0], hidden)

    def run(inputs, W, b):
        h, c = tape.zeros(state_shape), tape.zeros(state_shape)
        states = []
        for x in inputs:
            h, c = oracle_lstm_step(tape, x, h, c, W, b)
            states.append(h)
        return states

    fwd = run(seq, W_f, b_f)
    bwd = run(list(reversed(seq)), W_b, b_b)[::-1]
    return [tape.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]


def reference_encode_candidates(tape, model, id_seqs,
                                bilstm=nn.bilstm_encode):
    """The bucketed candidate encoder the trie encoder replaced, with the
    BiLSTM ``bilstm``; its rows come back in candidate order."""
    store = model.store
    emb = tape.param(store, "emb")
    d = tape.param(store, "query_d")
    by_len = {}
    for idx, seq in enumerate(id_seqs):
        by_len.setdefault(len(seq), []).append(idx)
    pooled, order = [], []
    for length, members in sorted(by_len.items()):
        ids = np.array([id_seqs[i] for i in members], dtype=np.int64)
        inputs = [tape.gather_rows(emb, ids[:, t]) for t in range(length)]
        states = bilstm(
            tape, inputs, tape.param(store, "enc_f.W"),
            tape.param(store, "enc_f.b"), tape.param(store, "enc_b.W"),
            tape.param(store, "enc_b.b"), model.hyper.hidden)
        scores = tape.concat([tape.matmul(s, tape.transpose(d))
                              for s in states], axis=-1)          # (B, T)
        alpha = tape.softmax(scores, axis=1)
        acc = tape.mul(tape.slice_last(alpha, 0, 1), states[0])
        for t in range(1, length):
            acc = tape.add(acc, tape.mul(tape.slice_last(alpha, t, t + 1),
                                         states[t]))
        pooled.append(acc)
        order.extend(members)
    return tape.gather_rows(tape.concat(pooled, axis=0), np.argsort(order))


def oracle_planner_loss(tape, model, id_seqs, pointer_seq):
    store = model.store
    reps_c = contextualize(tape, model, reference_encode_candidates(
        tape, model, id_seqs, oracle_bilstm_encode))
    all_reps = _reps_with_eom(tape, model, reps_c)
    k = len(id_seqs)
    h = tape.mean(reps_c, axis=0)
    c = tape.zeros(h.data.shape)
    x = tape.param(store, "start")
    loss = None
    for target in list(pointer_seq) + [k]:
        h, c = oracle_lstm_step(tape, x, h, c, tape.param(store, "dec.W"),
                                tape.param(store, "dec.b"))
        dist = pointer_step(tape, model, h, all_reps)
        step_loss = tape.nll_pick(dist, (0, target))
        loss = step_loss if loss is None else tape.add(loss, step_loss)
        if target < k:
            x = tape.row(reps_c, target)
    return loss


def _copy_mask(surfaces, target):
    """(L, 1) column, 1.0 at plan positions whose surface equals
    ``target``."""
    return np.array([[1.0 if s == target else 0.0] for s in surfaces])


def oracle_generator_loss(tape, model, plan_tokens, target_tokens):
    store = model.store
    S, h, c = encode_plan(tape, model,
                          [model.token_id(t) for t in plan_tokens])
    surfaces = _surfaces(plan_tokens)
    prev = BOS
    loss = None
    for step, target in enumerate(list(target_tokens) + [EOS]):
        if step > 0 and step % model.hyper.trunc == 0:
            h, c = tape.tensor(h.data), tape.tensor(c.data)
        x = tape.gather_rows(tape.param(store, "emb"), [model.token_id(prev)])
        h, c = oracle_lstm_step(tape, x, h, c, tape.param(store, "dec.W"),
                                tape.param(store, "dec.b"))
        comb, alpha = decode_step(tape, model, S, h)
        p_gen, p_copy = _output_dists(tape, model, comb)
        token = model.token_id(target)
        gen_p = tape.slice_last(p_gen, token, token + 1)
        copy_p = tape.matmul(alpha, tape.tensor(_copy_mask(surfaces, target)))
        keep = tape.add_const(tape.neg(p_copy), 1.0)
        p = tape.add(tape.mul(keep, gen_p), tape.mul(p_copy, copy_p))
        step_loss = tape.neg(tape.log(tape.add_const(p, 1e-12)))
        loss = step_loss if loss is None else tape.add(loss, step_loss)
        prev = target
    return tape.sum(loss)


def _grads(tape):
    """Parameter name -> gradient, for each leaf of ``tape`` that has one."""
    return {name: leaf.grad for name, leaf in tape.leaves.items()
            if leaf.grad is not None}


def _rel_err(new, old):
    return float(np.max(np.abs(new - old))) / max(float(np.max(np.abs(old))),
                                                  1e-300)


def _planner_case():
    """Five candidates; the plan points at candidate 3 twice."""
    seqs = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "a"], ["b", "e"],
            ["c"]]
    hyper = PlannerHyper(emb_dim=5, hidden=4, seed=1)
    model = PlannerModel.init(build_vocab(seqs), hyper,
                              np.random.default_rng(1))
    ids = [model.token_ids(s) for s in seqs]
    return model, (), lambda tape: planner.instance_loss(
        tape, model, ids, [0, 3, 1, 3]), lambda tape: oracle_planner_loss(
        tape, model, ids, [0, 3, 1, 3])


def _generator_case():
    """A target of 11 tokens plus EOS at ``trunc`` 5: two segment
    boundaries."""
    plan = ["<TEAM>Ra", "<TR>9", "<P>", "<PLAYER>Bo", "<RBI>1", "<INN>2"]
    target = ["the", "Ra", "scored", "9", ".", "Bo", "had", "1", "RBI", "in",
              "."]
    hyper = GeneratorHyper(emb_dim=5, hidden=4, seed=2, trunc=5)
    model = GeneratorModel.init(build_gen_vocab([(plan, target)]), hyper,
                                np.random.default_rng(2))
    return model, (generator,), lambda tape: generator.instance_loss(
        tape, model, plan, target), lambda tape: oracle_generator_loss(
        tape, model, plan, target)


def _generator_copy_case():
    """10 targets plus EOS at ``trunc`` 5, so the last segment scores EOS
    alone as a (1, n) stack.  "9" copies from two plan positions, and "Zed",
    outside the vocabulary, only from the plan."""
    plan = ["<TEAM>Ra", "<TR>9", "<P>", "<PLAYER>Zed", "<RBI>9", "<INN>2"]
    target = ["the", "Ra", "scored", "9", ".", "Zed", "had", "9", "RBI", "."]
    hyper = GeneratorHyper(emb_dim=5, hidden=4, seed=4, trunc=5)
    vocab = build_gen_vocab([(plan, ["he" if t == "Zed" else t
                                     for t in target])])
    assert "Zed" not in vocab and (len(target) + 1) % hyper.trunc == 1
    model = GeneratorModel.init(vocab, hyper, np.random.default_rng(4))
    return model, (generator,), lambda tape: generator.instance_loss(
        tape, model, plan, target), lambda tape: oracle_generator_loss(
        tape, model, plan, target)


@pytest.mark.parametrize(
    "case", [_planner_case, _generator_case, _generator_copy_case],
    ids=["planner", "generator", "generator-copy"])
def test_instance_loss_matches_per_step_oracle(case, monkeypatch):
    model, patched, loss_fn, oracle_fn = case()

    def run(fn):
        tape = Tape()
        loss = fn(tape)
        tape.backward(loss)
        return float(loss.data), _grads(tape)

    new_loss, new = run(loss_fn)
    with monkeypatch.context() as m:
        for module in patched:
            m.setattr(module, "bilstm_encode", oracle_bilstm_encode)
        old_loss, old = run(oracle_fn)
    assert abs(new_loss - old_loss) <= 1e-9 * abs(old_loss)
    assert new.keys() == old.keys() == model.store.keys()
    for name in old:
        assert _rel_err(new[name], old[name]) <= 1e-9, name


def test_parents_continue_rows_of_the_step_before():
    x, h, c, W, b = _arrays(2)
    # both rows of step 1 continue row 1 of step 0 on the same input
    hs, _ = nn.lstm_sequence(NO_GRAD, [x, x[[0, 0]]], h[:1], c[:1], W, b,
                             [np.array([0, 0]), np.array([1, 1])])
    assert np.array_equal(hs[1][0], hs[1][1])
    assert not np.array_equal(hs[0][0], hs[0][1])


# ---------------------------------------------------------------------------
# The trie encoder against the bucketed reference


#: a model over tokens 1-5 (0 is ``<unk>``), small enough for many examples
TRIE_MODEL = PlannerModel.init(
    build_vocab([[f"t{i}" for i in range(1, 6)]]),
    PlannerHyper(emb_dim=5, hidden=4, seed=3), np.random.default_rng(3))


@st.composite
def candidate_sets(draw):
    """Id sequences over a five-token alphabet with length-1 candidates,
    prefixes and suffixes of other candidates, extensions of them and exact
    duplicates."""
    token = st.integers(0, 5)
    seqs = draw(st.lists(st.lists(token, min_size=1, max_size=6),
                         min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 8))):
        seq = draw(st.sampled_from(seqs))
        cut = draw(st.integers(1, len(seq)))
        seqs.append(draw(st.sampled_from([
            list(seq), seq[:cut], seq[cut - 1:], seq + [draw(token)],
            [draw(token)] + seq, [seq[0]]])))
    return draw(st.permutations(seqs))


def _encode(encode, id_seqs):
    """(rows, parameter gradients) of ``encode`` under a loss that weighs
    every row."""
    tape = Tape()
    reps = encode(tape, TRIE_MODEL, id_seqs)
    w = np.random.default_rng(len(id_seqs)).normal(size=reps.shape)
    tape.backward(tape.sum(tape.mul(reps, tape.tensor(w))))
    return reps.data, _grads(tape)


@settings(max_examples=60, deadline=None)
@given(candidate_sets())
def test_trie_encoder_matches_bucketed_reference(id_seqs):
    new_reps, new = _encode(encode_candidates, id_seqs)
    old_reps, old = _encode(reference_encode_candidates, id_seqs)
    assert float(np.max(np.abs(new_reps - old_reps))) <= 1e-12
    assert np.array_equal(new_reps,
                          encode_candidates(NO_GRAD, TRIE_MODEL, id_seqs))
    assert new.keys() == old.keys()
    for name in old:
        assert _rel_err(new[name], old[name]) <= 1e-9, name
