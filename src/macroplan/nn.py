"""Parameters, LSTM cells, Adagrad, gradient checking, the beam search both
decoders run and checkpoint I/O.

A :class:`ParamStore` holds each parameter's value and Adagrad accumulator
and nothing of a training step: the step's leaves and gradients live on its
tape (``Tape.param``), whose ``leaves`` :func:`fit` hands to
:func:`adagrad_step`."""

from __future__ import annotations

import struct

import numpy as np

from .autodiff import NoGrad, ShapeError, Tape, Tensor

__all__ = [
    "Parameter",
    "ParamStore",
    "lstm_step",
    "lstm_sequence",
    "bilstm_encode",
    "adagrad_step",
    "fit",
    "rank_expansions",
    "best_hypothesis",
    "beam_search",
    "grad_check",
    "save_params",
    "load_params",
]

ADAGRAD_EPS = 1e-10
#: global L2 norm :func:`adagrad_step` rescales the gradients to at most
GRAD_CLIP = 5.0
INIT_RANGE = 0.1
GRAD_CHECK_STEP = 1e-5
#: lower bound on the denominator of :func:`grad_check`'s relative error, so
#: that coordinates whose true gradient sits at the cancellation noise level
#: of the finite difference (about machine-eps times the loss magnitude over
#: the step) do not register as spurious mismatches
GRAD_CHECK_FLOOR = 1e-5


class Parameter:
    __slots__ = ("data", "accumulator")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.accumulator = np.zeros_like(self.data)


class ParamStore(dict):
    """Parameters by name, in the order they were made: the order of a
    checkpoint's records and of :func:`adagrad_step`'s sums."""

    def create(self, name: str, shape, rng: np.random.Generator,
               init: str = "uniform") -> Parameter:
        if name in self:
            raise ValueError(f"duplicate parameter {name!r}")
        if init == "uniform":
            data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        p = self[name] = Parameter(data)
        return p

    def create_lstm(self, prefix: str, input_dim: int, hidden: int,
                    rng: np.random.Generator) -> None:
        """Fused-gate LSTM weights; forget-gate bias initialized to 1."""
        self.create(f"{prefix}.W", (input_dim + hidden, 4 * hidden), rng)
        b = self.create(f"{prefix}.b", (4 * hidden,), rng, init="zeros")
        b.data[hidden:2 * hidden] = 1.0


def lstm_step(tape: Tape | NoGrad, x, h, c, W, b):
    """One step of a fused-gate LSTM: a one-step :func:`lstm_sequence`.
    Returns (h, c)."""
    hs, c = lstm_sequence(tape, [x], h, c, W, b)
    return hs[0], c


def lstm_sequence(tape: Tape | NoGrad, xs: list, h, c, W, b, parents=None):
    """A fused-gate LSTM over the inputs ``xs`` from state (h, c), as one
    tape node; gate order i, f, o, g along the last axis.

    Each input is a stack of rows (B, in), B = 1 for one hypothesis, and
    ``h``/``c`` are (B, H).  Under a tape the arguments are its tensors,
    under ``NO_GRAD`` plain arrays.  Returns (h of each step, last c).

    ``parents``, one int array per step, runs the steps over a tree of
    2-D rows: row r of step t continues from row ``parents[t][r]`` of step
    t-1, or of ``h``/``c`` at t = 0.  The backward sums the gradients that
    the children carry into each parent row.
    """
    hidden = h.shape[-1]
    if W.shape != (xs[0].shape[-1] + hidden, 4 * hidden):
        raise ShapeError(
            f"lstm_sequence: weight shape {W.shape} does not match "
            f"input {xs[0].shape} / hidden {hidden}")
    return tape.lstm_sequence(xs, h, c, W, b, parents)


def bilstm_encode(tape: Tape | NoGrad, seq: list, W_f, b_f, W_b, b_b,
                  hidden: int) -> list:
    """Per-position concat of forward and backward hidden states, each
    (B, 2H) for (B, in) inputs."""
    if not seq:
        raise ValueError("bilstm_encode: empty sequence")
    state_shape = (seq[0].shape[0], hidden)

    def run(inputs, W, b):
        return lstm_sequence(tape, inputs, tape.zeros(state_shape),
                             tape.zeros(state_shape), W, b)[0]

    fwd = run(seq, W_f, b_f)
    bwd = run(seq[::-1], W_b, b_b)[::-1]
    return [tape.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]


def adagrad_step(store: ParamStore, leaves: dict[str, Tensor],
                 lr: float) -> None:
    """accumulator += grad^2; param -= lr * grad / (sqrt(accumulator) + eps),
    for each parameter of ``store`` whose leaf in ``leaves`` (a tape's) has
    a gradient, in the store's order.

    Gradients are first rescaled so that their global L2 norm does not
    exceed :data:`GRAD_CLIP`.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    grads = {name: leaves[name].grad for name in store
             if name in leaves and leaves[name].grad is not None}
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > GRAD_CLIP:
        grads = {n: g * (GRAD_CLIP / norm) for n, g in grads.items()}
    for name, grad in grads.items():
        p = store[name]
        p.accumulator += grad * grad
        p.data -= lr * grad / (np.sqrt(p.accumulator) + ADAGRAD_EPS)


def fit(model, loss_fn, data: list, rng: np.random.Generator) -> list[float]:
    """Train ``model`` by Adagrad under the settings in ``model.hyper``.

    ``data`` is a list of (source, targets); ``loss_fn(tape, model, source,
    targets)`` returns the teacher-forced NLL of the targets plus one end
    marker.  Each epoch visits the instances in an order shuffled by ``rng``,
    one tape each.  Returns the per-epoch mean NLL per prediction.
    """
    hyper = model.hyper
    trace = []
    order = np.arange(len(data))
    for _epoch in range(hyper.epochs):
        rng.shuffle(order)
        total = 0.0
        predictions = 0
        for i in order:
            source, targets = data[i]
            tape = Tape()
            loss = loss_fn(tape, model, source, targets)
            tape.backward(loss)
            adagrad_step(model.store, tape.leaves, hyper.lr)
            total += float(loss.data)
            predictions += len(targets) + 1
        trace.append(total / predictions)
        if hyper.stop_tol is not None and trace[-1] < hyper.stop_tol:
            break
    return trace


def rank_expansions(logp, parent, token, rank, width: int):
    """The ``width`` best expansions of a beam whose hypotheses have ``rank``
    as the lexicographic rank of their histories, one length for all.

    Expansion e appends ``token[e]`` to hypothesis ``parent[e]`` at log
    probability ``logp[e]``, and no two expansions share both.  They are
    ordered by (-log prob, history): over histories of one length, history
    order is (``rank[parent]``, ``token``) order.  Returns (``keep``, the
    indices of the kept expansions, best first; each kept history's
    lexicographic rank among them)."""
    keep = np.lexsort((token, rank[parent], -logp))[:width]
    new_rank = np.empty(len(keep), dtype=np.int64)
    new_rank[np.lexsort((token[keep], rank[parent[keep]]))] = \
        np.arange(len(keep))
    return keep, new_rank


def best_hypothesis(pairs) -> tuple:
    """The history of the best (log prob, history tuple) pair, by log prob
    per step, the smaller history on a tie."""
    return min(pairs, key=lambda p: (-(p[0] / max(len(p[1]), 1)), p[1]))[1]


def beam_search(step, states: tuple, end: int, beam_size: int,
                max_len: int) -> tuple:
    """The best history, by :func:`best_hypothesis`, of 1 to ``max_len``
    actions that a beam search finishes with ``end``.

    ``step(history, states)`` maps the (B, t) histories and a tuple of
    (B, n) states, the root's one row at first, to new states and the
    (B, A) log probs of each row's next action, -inf where blocked.  Every
    live history of one or more actions finishes at its log prob of
    ``end``; while t < ``max_len``, the ``beam_size`` best other expansions
    by :func:`rank_expansions` stay live, with the rank of their
    histories."""
    if beam_size < 1:
        raise ValueError(f"beam_size must be at least 1, not {beam_size}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, not {max_len}")
    history = np.zeros((1, 0), dtype=np.int64)
    logprob, rank = np.zeros(1), np.zeros(1, dtype=np.int64)
    finished = []                      # (log prob, history) of each end
    while True:
        states, logp = step(history, states)
        logp = logprob[:, None] + logp
        if history.shape[1]:
            finished += zip(logp[:, end].tolist(), map(tuple, history.tolist()))
        if history.shape[1] == max_len:
            break
        logp[:, end] = -np.inf
        flat = logp.ravel()
        m = min(beam_size, int(np.isfinite(flat).sum()))
        if not m:
            break
        # rank only the expansions scoring at least the m-th best
        cand = np.flatnonzero(flat >= np.partition(flat, -m)[-m])
        parent, token = np.divmod(cand, logp.shape[1])
        keep, rank = rank_expansions(flat[cand], parent, token, rank,
                                     beam_size)
        parent = parent[keep]
        history = np.column_stack([history[parent], token[keep]])
        logprob = flat[cand[keep]]
        states = tuple(s[parent] for s in states)
    return best_hypothesis(finished)


def grad_check(loss_fn, store: ParamStore, max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare the analytic gradients of ``loss_fn`` (a callable taking a
    tape and returning a scalar Tensor of it) with respect to the parameters
    of ``store`` against central finite differences.  Returns the worst
    relative error."""
    tape = Tape()
    loss = loss_fn(tape)
    if not np.isfinite(loss.data).all():
        raise ValueError("loss is not finite")
    tape.backward(loss)

    worst = 0.0
    for name, p in store.items():
        leaf = tape.leaves.get(name)
        analytic = (leaf.grad if leaf is not None and leaf.grad is not None
                    else np.zeros_like(p.data))
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        a_flat = analytic.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRAD_CHECK_STEP
            f_plus = float(loss_fn(Tape()).data)
            flat[idx] = orig - GRAD_CHECK_STEP
            f_minus = float(loss_fn(Tape()).data)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            a = a_flat[idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric),
                                         GRAD_CHECK_FLOOR)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints: magic "MPLN", version u32, then per-parameter records of
# (name length u32, UTF-8 name, rank u32, dims u64..., little-endian f64 data).

MAGIC = b"MPLN"
FORMAT_VERSION = 1


def save_params(path, store: ParamStore) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for name, p in store.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
            fh.write(p.data.astype("<f8").tobytes())


def load_params(path) -> ParamStore:
    store = ParamStore()
    with open(path, "rb") as fh:
        def read(n: int) -> bytes:
            data = fh.read(n)
            if len(data) != n:
                raise ValueError(f"{path}: truncated checkpoint")
            return data

        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", read(4))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        while fh.peek(1):
            (name_len,) = struct.unpack("<I", read(4))
            name = read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", read(4))
            dims = struct.unpack(f"<{rank}Q", read(8 * rank))
            count = int(np.prod(dims))
            data = np.frombuffer(read(8 * count), dtype="<f8").reshape(dims)
            store[name] = Parameter(data.copy())
    return store
