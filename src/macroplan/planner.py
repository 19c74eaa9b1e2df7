"""Pointer-network macro planner: candidate representation, contextualization
with a content-selection gate, pointer decoding, training and beam inference."""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import NO_GRAD, NoGrad, Tape, Tensor
from .data import Game
from .nn import (ParamStore, best_hypothesis, fit, lstm_sequence, lstm_step,
                 rank_expansions)
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
    """Parameter container for the planning network plus the token
    vocabulary the candidate encoder reads: marker-fused record tokens,
    each taken whole."""

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


def _trie(ids, valid):
    """The prefix trie of the (K, T) rows of ``ids``, each cut where its row
    of ``valid`` ends.  Returns (per depth, each node's parent: a node of the
    depth before, or 0 for the root at depth 0; per depth, each node's
    token; the (K, T) row of each position's node in the depths'
    concatenation, 0 past a row's end).  A depth's nodes are its distinct
    prefixes in sorted order, which is (parent, token) order.

    Sorted, rows that share a prefix are neighbours: a row starts a node at
    depth t where it differs from the row before at depth t or earlier."""
    padded = np.where(valid, ids, -1)
    order = np.lexsort(padded.T[::-1])
    padded, live = padded[order], valid[order]
    new = np.ones(padded.shape, dtype=bool)
    new[1:] = padded[1:] != padded[:-1]
    new = np.logical_or.accumulate(new, axis=1) & live
    node = np.cumsum(new, axis=0) - 1       # each position's node in its depth
    parent = np.zeros_like(node)
    parent[:, 1:] = node[:, :-1]
    sizes = new.sum(axis=0)
    cuts = np.cumsum(sizes)[:-1]
    rows = np.empty_like(node)
    rows[order] = node + (np.cumsum(sizes) - sizes)
    return (np.split(parent.T[new.T], cuts), np.split(padded.T[new.T], cuts),
            np.where(valid, rows, 0))


def encode_candidates(tape: Tape | NoGrad, model: PlannerModel,
                      id_seqs: list[list[int]]):
    """Attention-pooled BiLSTM representations, one row per candidate (K, n).

    The forward LSTM runs over the prefix trie of the candidates and the
    backward LSTM over that of the reversed candidates, each as one
    sequence with one batched step per depth: every distinct prefix and
    suffix is encoded once.  Duplicate candidates share all their trie
    nodes, so their rows are equal to the bit, as the pointer decoder's tie
    rule needs.  Each direction's node states are then gathered into a
    padded (K, T, H) stack per candidate position, and both are pooled by
    one masked softmax over the positions of the summed per-node scores.
    """
    lengths = np.array([len(s) for s in id_seqs])
    if not lengths.all():
        raise ValueError("cannot encode an empty candidate")
    valid = np.arange(lengths.max()) < lengths[:, None]          # (K, T)
    ids = np.zeros(valid.shape, dtype=np.int64)
    ids[valid] = np.fromiter(itertools.chain.from_iterable(id_seqs),
                             dtype=np.int64, count=int(lengths.sum()))
    # position t of a reversed candidate is position len - 1 - t of it
    flip = np.maximum(lengths[:, None] - 1 - np.arange(valid.shape[1]), 0)
    fwd = _trie(ids, valid)
    bwd_parents, bwd_tokens, bwd_rows = _trie(
        np.take_along_axis(ids, flip, axis=1), valid)
    bwd = (bwd_parents, bwd_tokens, np.take_along_axis(bwd_rows, flip, 1))

    store = model.store
    hidden = model.hyper.hidden
    emb = tape.param(store, "emb")
    d = tape.param(store, "query_d")
    root = tape.zeros((1, hidden))
    states, scores = [], []
    for (parents, tokens, rows), name, lo in ((fwd, "enc_f", 0),
                                              (bwd, "enc_b", hidden)):
        hs, _ = lstm_sequence(
            tape, [tape.gather_rows(emb, tok) for tok in tokens], root, root,
            tape.param(store, f"{name}.W"), tape.param(store, f"{name}.b"),
            parents=parents)
        nodes = tape.concat(hs, axis=0)                          # (N, H)
        d_half = tape.transpose(tape.stack_rows(
            [tape.slice_last(d, lo, lo + hidden)]))              # (H, 1)
        # each node's share of the score, once per node
        scores.append(tape.gather_rows(tape.matmul(nodes, d_half), rows))
        states.append(tape.gather_rows(nodes, rows))             # (K, T, H)
    alpha = tape.transpose(tape.softmax(
        tape.add(*scores), axis=1, mask=valid[:, :, None]))     # (K, 1, T)
    # one (K, 1, T) @ (K, T, H) product per direction: a (K, T, n) stack of
    # both would raise the stage's peak memory
    return tape.concat([tape.sum(tape.matmul(alpha, s), axis=1)
                        for s in states], axis=-1)


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


def _allowed(pointers: np.ndarray, k: int, unigram_cap: bool) -> np.ndarray:
    """(B, k) mask of the candidates each row of the (B, t) ``pointers`` may
    point at next: no repeated bigram and, under ``unigram_cap``, no third
    use."""
    b, t = pointers.shape
    allowed = np.ones((b, k), dtype=bool)
    if not t:
        return allowed
    # (last, j) was used where j follows an earlier use of the last pointer
    rows, cols = np.nonzero(pointers[:, :-1] == pointers[:, -1:])
    allowed[rows, pointers[rows, cols + 1]] = False
    if unigram_cap:
        counts = np.bincount((np.arange(b)[:, None] * k + pointers).ravel(),
                             minlength=b * k).reshape(b, k)
        allowed &= counts < 2
    return allowed


class _PointerDecoder:
    """Pointer decoding for one game, under ``NO_GRAD``.

    Each hypothesis takes its own matrix-vector products rather than one
    row of a stacked product, whose rounding depends on the row's place in
    the stack: candidates that encode alike (names outside the vocabulary
    all read as ``<unk>``) must tie exactly, so that the pointer order, not
    the rounding, breaks the tie.  Duplicate candidates share their trie
    nodes in :func:`encode_candidates`, so their encoded rows are equal to
    the bit.  :func:`contextualize` can still part them in the last bits:
    each row leaves out itself, at its own place in the sums."""

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
        #: the root beam: no pointers, h the mean candidate, c zero
        self.h0 = self.reps_c.mean(axis=0)[None, :]

    def step(self, pointers: np.ndarray, h: np.ndarray, c: np.ndarray):
        """New (h, c) and the distribution over candidates plus EOM, one row
        per row of the (B, t) ``pointers`` and their (B, n) states."""
        xs = self.reps_c[pointers[:, -1]] if pointers.shape[1] \
            else [self.start] * len(h)
        hs, cs, dists = [], [], []
        for x, h_b, c_b in zip(xs, h, c):
            h_b, c_b = lstm_step(NO_GRAD, x, h_b, c_b, self.W, self.b)
            hs.append(h_b)
            cs.append(c_b)
            dists.append(pointer_step(NO_GRAD, self.model, h_b, self.all_reps))
        return np.stack(hs), np.stack(cs), np.stack(dists)


def infer_plan(candidate_token_seqs, model: PlannerModel, beam_size: int = 5,
               unigram_cap: bool = False) -> MacroPlan:
    """Beam search over pointer sequences with bigram blocking, an optional
    two-occurrence unigram cap, and length-normalized final ranking.

    The beam is held as arrays: (B, t) pointers, (B,) log probs, (B, n)
    states and the (B,) lexicographic rank of the pointer histories."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    dec = _PointerDecoder(model, candidate_token_seqs)
    k = dec.k

    pointers = np.zeros((1, 0), dtype=np.int64)
    logprob, rank = np.zeros(1), np.zeros(1, dtype=np.int64)
    h, c = dec.h0, np.zeros_like(dec.h0)
    finished = []                      # (log prob, pointers) of each EOM
    for _step in range(MAX_PLAN_LEN + 1):
        h, c, dist = dec.step(pointers, h, c)
        logp = logprob[:, None] + np.log(np.maximum(dist, 1e-300))
        if pointers.shape[1]:
            finished += zip(logp[:, k].tolist(), map(tuple, pointers.tolist()))
        allowed = _allowed(pointers, k, unigram_cap)
        if not allowed.any():
            break
        flat = np.where(allowed, logp[:, :k], -np.inf).ravel()
        # rank only the expansions scoring at least the beam_size-th best
        m = min(beam_size, int(allowed.sum()))
        cand = np.flatnonzero(flat >= np.partition(flat, flat.size - m)
                              [flat.size - m])
        keep, rank = rank_expansions(flat[cand], cand // k, cand % k, rank,
                                     beam_size)
        cand = cand[keep]
        parent = cand // k
        pointers = np.column_stack([pointers[parent], cand % k])
        logprob, h, c = flat[cand], h[parent], c[parent]

    terminated = bool(finished)
    if not terminated:
        log.warning("beam search exhausted without EOM; returning best "
                    "unfinished hypothesis")
        finished = zip(logprob.tolist(), map(tuple, pointers.tolist()))
    return MacroPlan(best_hypothesis(finished), terminated=terminated)


def greedy_plan(candidate_token_seqs, model: PlannerModel,
                unigram_cap: bool = False) -> MacroPlan:
    """Stepwise argmax decode under the same blocking constraints."""
    dec = _PointerDecoder(model, candidate_token_seqs)
    k = dec.k

    pointers = np.zeros((1, 0), dtype=np.int64)
    h, c = dec.h0, np.zeros_like(dec.h0)
    for _step in range(MAX_PLAN_LEN + 1):
        h, c, dist = dec.step(pointers, h, c)
        dist = dist[0]
        dist[:k][~_allowed(pointers, k, unigram_cap)[0]] = -1.0
        best = int(np.argmax(dist))
        if best == k:
            if pointers.size:
                return MacroPlan(tuple(pointers[0].tolist()), terminated=True)
            # a plan points at something before it ends, and nothing is
            # blocked yet
            dist[k] = -1.0
            best = int(np.argmax(dist))
        pointers = np.append(pointers, [[best]], axis=1)
    log.warning("greedy decode hit the plan length cap")
    return MacroPlan(tuple(pointers[0].tolist()), terminated=False)


def linearize(specs: list[ParagraphPlanSpec], game: Game) -> list[str]:
    """Concatenate the paragraph plans, verbalized against ``game``, in
    order with ``<P>`` between consecutive plans."""
    tokens: list[str] = []
    for pos, spec in enumerate(specs):
        if pos > 0:
            tokens.append(PARAGRAPH_SEP)
        tokens.extend(verbalize_plan(spec, game))
    return tokens
