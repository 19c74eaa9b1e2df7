"""Attention + copy text generator conditioned on a linearized macro plan.

The encoder is a BiLSTM over the plan tokens; the decoder is an LSTM with
bilinear attention, a tanh combination layer, and a scalar copy gate that
mixes vocabulary generation with copying from plan positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NO_GRAD, NoGrad, Tape, Tensor
from .nn import (ParamStore, beam_search, bilstm_encode, fit, lstm_sequence,
                 lstm_step)
from .verbalize import strip_marker

__all__ = [
    "GeneratorHyper",
    "GeneratorModel",
    "train_generator",
    "generate",
]

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
#: surfaces the decoder never emits; "" is the marker-stripped ``<P>``
NEVER_EMITTED = frozenset({UNK, BOS, ""})


@dataclass(frozen=True)
class GeneratorHyper:
    emb_dim: int = 64
    hidden: int = 128          # per direction; encoder state width is 2x
    lr: float = 0.02
    epochs: int = 6
    seed: int = 29
    stop_tol: float | None = None  # stop early once epoch NLL drops below
    trunc: int = 100           # BPTT truncation window (decoder steps)
    max_len: int = 400

    @property
    def rep_dim(self) -> int:
        return 2 * self.hidden


class GeneratorModel:
    def __init__(self, store: ParamStore, vocab: dict[str, int],
                 hyper: GeneratorHyper):
        self.store = store
        self.vocab = vocab
        self.hyper = hyper

    @staticmethod
    def init(vocab: dict[str, int], hyper: GeneratorHyper,
             rng: np.random.Generator) -> "GeneratorModel":
        store = ParamStore()
        n = hyper.rep_dim
        v = len(vocab)
        store.create("emb", (v, hyper.emb_dim), rng)
        store.create_lstm("enc_f", hyper.emb_dim, hyper.hidden, rng)
        store.create_lstm("enc_b", hyper.emb_dim, hyper.hidden, rng)
        store.create("W_init", (n, n), rng)
        store.create_lstm("dec", hyper.emb_dim, n, rng)
        store.create("W_att", (n, n), rng)
        store.create("W_comb", (2 * n, n), rng)
        store.create("b_comb", (n,), rng, init="zeros")
        store.create("W_out", (n, v), rng)
        store.create("b_out", (v,), rng, init="zeros")
        store.create("w_copy", (n, 1), rng)
        store.create("b_copy", (), rng, init="zeros")
        return GeneratorModel(store, vocab, hyper)

    def token_id(self, token: str) -> int:
        return self.vocab.get(token, self.vocab[UNK])


def build_gen_vocab(pairs) -> dict[str, int]:
    vocab = {UNK: 0, BOS: 1, EOS: 2}
    for plan_tokens, target_tokens in pairs:
        for tok in list(plan_tokens) + list(target_tokens):
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


# ---------------------------------------------------------------------------
# Forward pieces: each runs under a Tape for training and under NO_GRAD for
# inference


def encode_plan(tape: Tape | NoGrad, model: GeneratorModel,
                plan_ids: list[int]):
    """Returns (encoder states (L, n), initial decoder h and c, (1, n))."""
    if not plan_ids:
        raise ValueError("cannot encode an empty plan")
    store = model.store
    emb = tape.param(store, "emb")
    inputs = [tape.row(emb, i) for i in plan_ids]
    states = bilstm_encode(
        tape, inputs, tape.param(store, "enc_f.W"),
        tape.param(store, "enc_f.b"), tape.param(store, "enc_b.W"),
        tape.param(store, "enc_b.b"), model.hyper.hidden)
    S = tape.concat(states, axis=0)
    hidden = model.hyper.hidden
    fwd_last = tape.slice_last(states[-1], 0, hidden)
    bwd_first = tape.slice_last(states[0], hidden, 2 * hidden)
    h0 = tape.tanh(tape.matmul(tape.concat([fwd_last, bwd_first], axis=-1),
                               tape.param(store, "W_init")))
    c0 = tape.zeros(h0.shape)
    return S, h0, c0


def decode_step(tape: Tape | NoGrad, model: GeneratorModel, S, h):
    """Attention over the plan states ``S`` and the combination layer, given
    the (B, n) decoder states ``h``, B = 1 for one hypothesis or one
    training step.  Returns (combined states (B, n), attention weights
    (B, L))."""
    store = model.store
    logits = tape.matmul(tape.matmul(h, tape.param(store, "W_att")),
                         tape.transpose(S))
    alpha = tape.softmax(logits, axis=-1)
    ctx = tape.matmul(alpha, S)
    comb = tape.tanh(tape.add(tape.matmul(tape.concat([h, ctx], axis=-1),
                                          tape.param(store, "W_comb")),
                              tape.param(store, "b_comb")))
    return comb, alpha


def _output_dists(tape: Tape | NoGrad, model: GeneratorModel, comb):
    """Vocabulary distribution (B, V) and copy-gate probability (B, 1)."""
    store = model.store
    p_gen = tape.softmax(tape.add(tape.matmul(comb, tape.param(store, "W_out")),
                                  tape.param(store, "b_out")), axis=-1)
    p_copy = tape.sigmoid(tape.add(tape.matmul(comb,
                                               tape.param(store, "w_copy")),
                                   tape.param(store, "b_copy")))
    return p_gen, p_copy


def _surfaces(plan_tokens: list[str]) -> list[str]:
    """The marker-stripped plan tokens: what copying a position emits."""
    return [strip_marker(t) for t in plan_tokens]


def _copy_masks(surfaces: list[str], targets: list[str]) -> np.ndarray:
    """(T, L) array, 1.0 where plan position l's surface is target t.  The
    strings compare by one integer code per distinct surface, never by
    vocabulary id: held-out names differ although all read as ``<unk>``."""
    codes: dict[str, int] = {}
    plan = np.array([codes.setdefault(s, len(codes)) for s in surfaces])
    wanted = np.array([codes.get(t, -1) for t in targets])
    return (wanted[:, None] == plan).astype(np.float64)


def instance_loss(tape: Tape, model: GeneratorModel, plan_tokens: list[str],
                  target_tokens: list[str]) -> Tensor:
    """Teacher-forced NLL of the target under the generate/copy mixture.

    The decoder recurrent state is detached every ``hyper.trunc`` steps so
    gradients do not flow across segment boundaries (truncated BPTT); the
    encoder still receives gradient from every step through attention.
    Each segment's steps run one ``decode_step`` per target, and its targets
    are scored together: one output layer over the (T, n) combined states
    and one sum of the T mixture NLLs.
    """
    trunc = model.hyper.trunc
    store = model.store
    plan_ids = [model.token_id(t) for t in plan_tokens]
    S, h, c = encode_plan(tape, model, plan_ids)
    targets = list(target_tokens) + [EOS]
    target_ids = np.array([model.token_id(t) for t in targets])
    copy_mask = _copy_masks(_surfaces(plan_tokens), targets)
    vocab_ids = np.arange(len(model.vocab))
    # teacher forcing: each decoder input is the previous target
    input_ids = [model.token_id(t) for t in [BOS] + targets[:-1]]
    emb = tape.param(store, "emb")
    W, b = tape.param(store, "dec.W"), tape.param(store, "dec.b")
    loss = None
    for start in range(0, len(targets), trunc):
        if start:
            h, c = tape.tensor(h.data), tape.tensor(c.data)
        hs, c = lstm_sequence(
            tape, [tape.row(emb, i) for i in input_ids[start:start + trunc]],
            h, c, W, b)
        h = hs[-1]
        combs, alphas = zip(*(decode_step(tape, model, S, h_t) for h_t in hs))
        alpha = tape.concat(alphas, axis=0)
        p_gen, p_copy = _output_dists(tape, model, tape.concat(combs, axis=0))
        rows = slice(start, start + len(hs))
        gen_mask = target_ids[rows, None] == vocab_ids
        # each target's mass, mixed as _ExtendedVocab.mix mixes: (1 - p_copy)
        # * p_gen at its vocabulary id, plus p_copy * alpha at every plan
        # position whose surface it is
        keep = tape.add_const(tape.neg(p_copy), 1.0)
        gen_p = tape.sum(tape.mul(tape.mul(keep, p_gen),
                                  tape.tensor(gen_mask)), axis=-1)
        copy_p = tape.sum(tape.mul(tape.mul(p_copy, alpha),
                                   tape.tensor(copy_mask[rows])), axis=-1)
        p = tape.add(gen_p, copy_p)
        nll = tape.sum(tape.neg(tape.log(tape.add_const(p, 1e-12))))
        loss = nll if loss is None else tape.add(loss, nll)
    return loss                                 # 0-D, as fit reads it


def train_generator(pairs, hyper: GeneratorHyper
                    ) -> tuple[GeneratorModel, list[float]]:
    """``pairs`` is a list of (plan tokens, target tokens).  Returns the
    trained model and the per-epoch mean NLL per prediction: each target
    token and the EOS after them."""
    if not pairs:
        raise ValueError("empty generator training set")
    for idx, (plan_tokens, target_tokens) in enumerate(pairs):
        if not plan_tokens or not target_tokens:
            raise ValueError(f"instance {idx}: empty plan or target")
    vocab = build_gen_vocab(pairs)
    rng = np.random.default_rng(hyper.seed)
    model = GeneratorModel.init(vocab, hyper, rng)
    return model, fit(model, instance_loss, pairs, rng)


# ---------------------------------------------------------------------------
# Inference


class _ExtendedVocab:
    """The surfaces one plan's decoder can emit: every vocabulary token and
    every marker-stripped plan token, less :data:`NEVER_EMITTED`.  Surfaces
    are sorted, so an index is also the surface's lexicographic rank."""

    def __init__(self, model: GeneratorModel, plan_tokens: list[str]):
        plan_surfaces = _surfaces(plan_tokens)
        self.surfaces = sorted(
            {t for t in model.vocab if t not in NEVER_EMITTED}
            | {s for s in plan_surfaces if s not in NEVER_EMITTED})
        index = {s: i for i, s in enumerate(self.surfaces)}
        gen = [(i, index[t]) for t, i in model.vocab.items()
               if t not in NEVER_EMITTED]
        self.gen_src = np.array([i for i, _ in gen], dtype=np.int64)
        self.gen_dst = np.array([j for _, j in gen], dtype=np.int64)
        copy = [(pos, index[s]) for pos, s in enumerate(plan_surfaces)
                if s not in NEVER_EMITTED]
        self.copy_pos = np.array([p for p, _ in copy], dtype=np.int64)
        self.copy_dst = np.array([j for _, j in copy], dtype=np.int64)
        #: decoder input id of each surface once emitted
        self.input_id = np.array([model.token_id(s) for s in self.surfaces],
                                 dtype=np.int64)
        self.eos = index[EOS]

    def mix(self, p_gen: np.ndarray, p_copy: np.ndarray,
            alpha: np.ndarray) -> np.ndarray:
        """(B, surfaces) generate/copy mixture of the (B, V) ``p_gen``, the
        (B, 1) ``p_copy`` and the (B, L) ``alpha``: ``(1-pc) * p_gen``
        scattered into place, then the copy mass added in plan position
        order."""
        dist = np.zeros((p_gen.shape[0], len(self.surfaces)))
        gen = (1.0 - p_copy) * p_gen
        dist[:, self.gen_dst] = gen[:, self.gen_src]
        rows = np.arange(p_gen.shape[0])[:, None]
        np.add.at(dist, (rows, self.copy_dst[None, :]),
                  p_copy * alpha[:, self.copy_pos])
        return dist


def generate(plan_tokens: list[str], model: GeneratorModel,
             beam_size: int) -> list[str]:
    """Beam-search decode (:func:`nn.beam_search`) a token sequence of at most
    ``hyper.max_len`` tokens before EOS, EOS excluded, for the plan, ranked
    by length-normalized log probability.  Copy emissions surface as the
    marker-stripped plan token."""
    S, h0, c0 = encode_plan(NO_GRAD, model,
                            [model.token_id(t) for t in plan_tokens])
    ext = _ExtendedVocab(model, plan_tokens)
    emb, W_dec, b_dec = (NO_GRAD.param(model.store, name)
                         for name in ("emb", "dec.W", "dec.b"))
    bos = np.array([model.token_id(BOS)])

    def step(tokens, states):
        # each row's decoder input: its last surface, or BOS at the root
        prev = ext.input_id[tokens[:, -1]] if tokens.shape[1] else bos
        h, c = lstm_step(NO_GRAD, NO_GRAD.gather_rows(emb, prev), *states,
                         W_dec, b_dec)
        comb, alpha = decode_step(NO_GRAD, model, S, h)
        p_gen, p_copy = _output_dists(NO_GRAD, model, comb)
        return (h, c), np.log(np.maximum(ext.mix(p_gen, p_copy, alpha),
                                         1e-300))

    best = beam_search(step, (h0, c0), ext.eos, beam_size,
                       model.hyper.max_len)
    return [ext.surfaces[j] for j in best]
