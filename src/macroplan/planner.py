"""Pointer-network macro planner: candidate representation, contextualization
with a content-selection gate, pointer decoding, training and beam inference."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import NO_GRAD, NoGrad, Tape, Tensor
from .data import Game
from .nn import ParamStore, bilstm_encode, fit, lstm_sequence, lstm_step
from .verbalize import PARAGRAPH_SEP, ParagraphPlanSpec, verbalize_plan

log = logging.getLogger(__name__)

__all__ = [
    "MacroPlan",
    "PlannerHyper",
    "PlannerModel",
    "encode_candidates",
    "contextualize",
    "pointer_step",
    "train_planner",
    "infer_plan",
    "greedy_plan",
    "linearize",
]

UNK = "<unk>"
#: pointer decisions a decode may take before it must stop, EOM aside
MAX_PLAN_LEN = 20


@dataclass(frozen=True)
class MacroPlan:
    pointer_sequence: tuple[int, ...]
    terminated: bool = True


@dataclass(frozen=True)
class PlannerHyper:
    emb_dim: int = 64
    hidden: int = 128          # per direction; candidate representation is 2x
    lr: float = 0.02
    epochs: int = 6
    seed: int = 13
    stop_tol: float | None = None  # stop early once epoch NLL drops below

    @property
    def rep_dim(self) -> int:
        return 2 * self.hidden


class PlannerModel:
    """Parameter container for the planning network plus the subword
    vocabulary the candidate encoder reads."""

    def __init__(self, store: ParamStore, vocab: dict[str, int],
                 hyper: PlannerHyper):
        self.store = store
        self.vocab = vocab
        self.hyper = hyper

    @staticmethod
    def init(vocab: dict[str, int], hyper: PlannerHyper,
             rng: np.random.Generator) -> "PlannerModel":
        store = ParamStore()
        n = hyper.rep_dim
        store.create("emb", (len(vocab), hyper.emb_dim), rng)
        store.create_lstm("enc_f", hyper.emb_dim, hyper.hidden, rng)
        store.create_lstm("enc_b", hyper.emb_dim, hyper.hidden, rng)
        store.create("query_d", (n,), rng)
        store.create("W_a", (n, n), rng)
        store.create("W_g", (2 * n, n), rng)
        store.create("W_b", (n, n), rng)
        store.create_lstm("dec", n, n, rng)
        store.create("eom", (n,), rng)
        store.create("start", (n,), rng)
        return PlannerModel(store, vocab, hyper)

    def token_ids(self, tokens) -> list[int]:
        unk = self.vocab[UNK]
        return [self.vocab.get(t, unk) for t in tokens]


def build_vocab(token_seqs) -> dict[str, int]:
    vocab = {UNK: 0}
    for seq in token_seqs:
        for tok in seq:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    return vocab


# ---------------------------------------------------------------------------
# Forward pieces: each runs under a Tape for training and under NO_GRAD for
# inference


def encode_candidates(tape: Tape | NoGrad, model: PlannerModel,
                      id_seqs: list[list[int]]):
    """Attention-pooled BiLSTM representations, one row per candidate (K, n).

    Sequences of equal length are encoded as a batch.
    """
    if any(len(s) == 0 for s in id_seqs):
        raise ValueError("cannot encode an empty candidate")
    store = model.store
    hidden = model.hyper.hidden
    emb = tape.param(store, "emb")
    d = tape.param(store, "query_d")

    by_len: dict[int, list[int]] = {}
    for idx, seq in enumerate(id_seqs):
        by_len.setdefault(len(seq), []).append(idx)

    pooled, order = [], []
    for length, members in sorted(by_len.items()):
        ids = np.array([id_seqs[i] for i in members], dtype=np.int64)  # (B, T)
        inputs = [tape.gather_rows(emb, ids[:, t]) for t in range(length)]
        states = bilstm_encode(
            tape, inputs, tape.param(store, "enc_f.W"),
            tape.param(store, "enc_f.b"), tape.param(store, "enc_b.W"),
            tape.param(store, "enc_b.b"), hidden)
        scores = tape.stack_cols([tape.matmul(s, d) for s in states])  # (B, T)
        alpha = tape.softmax(scores, axis=1)
        acc = tape.mul(tape.column(alpha, 0), states[0])
        for t in range(1, length):
            acc = tape.add(acc, tape.mul(tape.column(alpha, t), states[t]))
        pooled.append(acc)
        order.extend(members)
    # rows are in bucket order; put them back in candidate order
    return tape.gather_rows(tape.concat(pooled, axis=0), np.argsort(order))


def contextualize(tape: Tape | NoGrad, model: PlannerModel, reps):
    """Content-selection gating: attention over the other candidates feeds a
    sigmoid gate applied elementwise to each representation."""
    store = model.store
    k = reps.shape[0]
    if k == 1:
        # the cross-candidate sum is empty; zero context is the only
        # consistent completion
        ctx = tape.zeros((1, reps.shape[1]))
    else:
        scores = tape.matmul(tape.matmul(reps, tape.param(store, "W_a")),
                             tape.transpose(reps))
        mask = ~np.eye(k, dtype=bool)
        beta = tape.softmax(scores, axis=1, mask=mask)
        ctx = tape.matmul(beta, reps)
    att = tape.matmul(tape.concat([reps, ctx], axis=1),
                      tape.param(store, "W_g"))
    gate = tape.sigmoid(att)
    return tape.mul(gate, reps)


def pointer_step(tape: Tape | NoGrad, model: PlannerModel, h,
                 reps_c_with_eom):
    """Distribution over candidates plus EOM given decoder state ``h``."""
    logits = tape.matmul(reps_c_with_eom,
                         tape.matmul(h, tape.param(model.store, "W_b")))
    return tape.softmax(logits, axis=0)


def _reps_with_eom(tape: Tape | NoGrad, model: PlannerModel, reps_c):
    eom_row = tape.stack_rows([tape.param(model.store, "eom")])
    return tape.concat([reps_c, eom_row], axis=0)


def _forward_reps(tape: Tape | NoGrad, model: PlannerModel, id_seqs):
    reps = encode_candidates(tape, model, id_seqs)
    reps_c = contextualize(tape, model, reps)
    return reps_c


# ---------------------------------------------------------------------------
# Training


def instance_loss(tape: Tape, model: PlannerModel, id_seqs,
                  pointer_seq: list[int]) -> Tensor:
    """Teacher-forced negative log likelihood of the plan (EOM included)."""
    store = model.store
    reps_c = _forward_reps(tape, model, id_seqs)
    all_reps = _reps_with_eom(tape, model, reps_c)
    k = len(id_seqs)
    h = tape.mean(reps_c, axis=0)
    # teacher forcing: every decoder input is known before the recurrence
    xs = [tape.param(store, "start")] + [tape.row(reps_c, target)
                                         for target in pointer_seq]
    hs, _ = lstm_sequence(tape, xs, h, tape.zeros(h.data.shape),
                          tape.param(store, "dec.W"),
                          tape.param(store, "dec.b"))
    loss = None
    for h, target in zip(hs, list(pointer_seq) + [k]):
        dist = pointer_step(tape, model, h, all_reps)
        step_loss = tape.nll_pick(dist, target)
        loss = step_loss if loss is None else tape.add(loss, step_loss)
    return loss


def train_planner(dataset, hyper: PlannerHyper
                  ) -> tuple[PlannerModel, list[float]]:
    """``dataset`` is a list of (candidate token sequences, gold pointer
    sequence).  Returns the trained model and the per-epoch mean NLL."""
    if not dataset:
        raise ValueError("empty planner training set")
    for idx, (seqs, pointers) in enumerate(dataset):
        for z in pointers:
            if not 0 <= z < len(seqs):
                raise ValueError(f"instance {idx}: pointer {z} outside "
                                 f"candidate set of size {len(seqs)}")
    vocab = build_vocab(seq for seqs, _ in dataset for seq in seqs)
    rng = np.random.default_rng(hyper.seed)
    model = PlannerModel.init(vocab, hyper, rng)
    id_data = [([model.token_ids(s) for s in seqs], list(pointers))
               for seqs, pointers in dataset]
    return model, fit(model, instance_loss, id_data, rng)


# ---------------------------------------------------------------------------
# Inference


@dataclass
class BeamHypothesis:
    pointers: tuple[int, ...]
    logprob: float
    h: np.ndarray
    c: np.ndarray
    finished: bool = False
    bigrams: frozenset = frozenset()   # pointer bigrams used so far

    def score(self) -> float:
        return self.logprob / max(len(self.pointers), 1)

    def extend(self, i: int, logprob: float, h: np.ndarray,
               c: np.ndarray) -> "BeamHypothesis":
        bigrams = self.bigrams | {(self.pointers[-1], i)} if self.pointers \
            else self.bigrams
        return BeamHypothesis(self.pointers + (i,), logprob, h, c,
                              bigrams=bigrams)


def _allowed(hyps: list[BeamHypothesis], k: int,
             unigram_cap: bool) -> np.ndarray:
    """(len(hyps), k) mask of the candidates each hypothesis may point at
    next: no repeated bigram and, under ``unigram_cap``, no third use."""
    allowed = np.ones((len(hyps), k), dtype=bool)
    for row, hyp in zip(allowed, hyps):
        if not hyp.pointers:
            continue
        last = hyp.pointers[-1]
        row[[b for a, b in hyp.bigrams if a == last]] = False
        if unigram_cap:
            row[np.bincount(hyp.pointers, minlength=k) >= 2] = False
    return allowed


class _PointerDecoder:
    """Pointer decoding for one game, under ``NO_GRAD``.

    Each hypothesis takes its own matrix-vector products rather than one
    row of a stacked product, whose rounding depends on the row's place in
    the stack: candidates that encode alike (names outside the vocabulary
    all read as ``<unk>``) must tie exactly, so that the pointer order, not
    the rounding, breaks the tie."""

    def __init__(self, model: PlannerModel, candidate_token_seqs):
        self.model = model
        self.reps_c = _forward_reps(
            NO_GRAD, model, [model.token_ids(s) for s in candidate_token_seqs])
        self.all_reps = _reps_with_eom(NO_GRAD, model, self.reps_c)
        self.k = self.reps_c.shape[0]
        store = model.store
        self.start = NO_GRAD.param(store, "start")
        self.W = NO_GRAD.param(store, "dec.W")
        self.b = NO_GRAD.param(store, "dec.b")

    def root(self) -> BeamHypothesis:
        h0 = self.reps_c.mean(axis=0)
        return BeamHypothesis((), 0.0, h0, np.zeros_like(h0))

    def step(self, hyps: list[BeamHypothesis]):
        """New (h, c) and the distribution over candidates plus EOM, one row
        per hypothesis."""
        hs, cs, dists = [], [], []
        for hyp in hyps:
            x = self.reps_c[hyp.pointers[-1]] if hyp.pointers else self.start
            h, c = lstm_step(NO_GRAD, x, hyp.h, hyp.c, self.W, self.b)
            hs.append(h)
            cs.append(c)
            dists.append(pointer_step(NO_GRAD, self.model, h, self.all_reps))
        return hs, cs, np.stack(dists)


def infer_plan(candidate_token_seqs, model: PlannerModel, beam_size: int = 5,
               unigram_cap: bool = False) -> MacroPlan:
    """Beam search over pointer sequences with bigram blocking, an optional
    two-occurrence unigram cap, and length-normalized final ranking."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    dec = _PointerDecoder(model, candidate_token_seqs)
    k = dec.k

    beams = [dec.root()]
    finished: list[BeamHypothesis] = []
    for _step in range(MAX_PLAN_LEN + 1):
        h, c, dist = dec.step(beams)
        logp = np.array([hyp.logprob for hyp in beams])[:, None] \
            + np.log(np.maximum(dist, 1e-300))
        for b, hyp in enumerate(beams):
            if hyp.pointers:
                finished.append(BeamHypothesis(
                    hyp.pointers, float(logp[b, k]), h[b], c[b], True))
        allowed = _allowed(beams, k, unigram_cap)
        if not allowed.any():
            break
        flat = np.where(allowed, logp[:, :k], -np.inf).ravel()
        # every expansion scoring at least the beam_size-th best, ranked by
        # (-logprob, pointers) so that ties break as a full sort would
        m = min(beam_size, int(allowed.sum()))
        kth = np.partition(flat, flat.size - m)[flat.size - m]
        top = sorted(np.flatnonzero(flat >= kth).tolist(),
                     key=lambda j: (-flat[j],
                                    beams[j // k].pointers + (j % k,)))[:m]
        beams = [beams[j // k].extend(j % k, float(flat[j]), h[j // k],
                                      c[j // k]) for j in top]

    if finished:
        finished.sort(key=lambda b: (-b.score(), b.pointers))
        return MacroPlan(finished[0].pointers, terminated=True)
    if beams:
        log.warning("beam search exhausted without EOM; returning best "
                    "unfinished hypothesis")
        beams.sort(key=lambda b: (-b.score(), b.pointers))
        return MacroPlan(beams[0].pointers, terminated=False)
    log.warning("all hypotheses pruned before any finished")
    return MacroPlan((), terminated=False)


def greedy_plan(candidate_token_seqs, model: PlannerModel,
                unigram_cap: bool = False) -> MacroPlan:
    """Stepwise argmax decode under the same blocking constraints."""
    dec = _PointerDecoder(model, candidate_token_seqs)
    k = dec.k

    hyp = dec.root()
    for _step in range(MAX_PLAN_LEN + 1):
        h, c, dist = dec.step([hyp])
        dist = dist[0]
        dist[:k][~_allowed([hyp], k, unigram_cap)[0]] = -1.0
        best = int(np.argmax(dist))
        if best == k:
            if hyp.pointers:
                return MacroPlan(hyp.pointers, terminated=True)
            dist[k] = -1.0
            best = int(np.argmax(dist))
            if dist[best] < 0:
                return MacroPlan((), terminated=False)
        hyp = hyp.extend(best, 0.0, h[0], c[0])
    log.warning("greedy decode hit the plan length cap")
    return MacroPlan(hyp.pointers, terminated=False)


def linearize(specs: list[ParagraphPlanSpec], game: Game) -> list[str]:
    """Concatenate the paragraph plans, verbalized against ``game``, in
    order with ``<P>`` between consecutive plans."""
    tokens: list[str] = []
    for pos, spec in enumerate(specs):
        if pos > 0:
            tokens.append(PARAGRAPH_SEP)
        tokens.extend(verbalize_plan(spec, game))
    return tokens
