"""Parameters, LSTM cells, Adagrad, gradient checking, the beam-search
ranking rules and checkpoint I/O."""

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
    __slots__ = ("name", "data", "accumulator")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.accumulator = np.zeros_like(self.data)


class ParamStore:
    """Named parameter collection.  ``bind(tape)`` produces leaf tensors for
    one forward/backward episode; gradients land on those tensors and are
    consumed by :func:`adagrad_step`."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._bound: dict[str, Tensor] = {}

    def create(self, name: str, shape, rng: np.random.Generator,
               init: str = "uniform") -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        if init == "uniform":
            data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        p = Parameter(name, data)
        self._params[name] = p
        return p

    def create_lstm(self, prefix: str, input_dim: int, hidden: int,
                    rng: np.random.Generator) -> None:
        """Fused-gate LSTM weights; forget-gate bias initialized to 1."""
        self.create(f"{prefix}.W", (input_dim + hidden, 4 * hidden), rng)
        b = self.create(f"{prefix}.b", (4 * hidden,), rng, init="zeros")
        b.data[hidden:2 * hidden] = 1.0

    def __getitem__(self, name) -> Parameter:
        return self._params[name]

    def items(self):
        return self._params.items()

    def bind(self, tape: Tape) -> None:
        self._bound = {name: Tensor(p.data, tape)
                       for name, p in self._params.items()}

    def t(self, name: str) -> Tensor:
        return self._bound[name]

    def grads(self) -> dict[str, np.ndarray]:
        return {name: t.grad for name, t in self._bound.items()
                if t.grad is not None}


def lstm_step(tape: Tape | NoGrad, x, h, c, W, b):
    """One step of a fused-gate LSTM: a one-step :func:`lstm_sequence`.
    Returns (h, c)."""
    hs, c = lstm_sequence(tape, [x], h, c, W, b)
    return hs[0], c


def lstm_sequence(tape: Tape | NoGrad, xs: list, h, c, W, b, parents=None):
    """A fused-gate LSTM over the inputs ``xs`` from state (h, c), as one
    tape node; gate order i, f, o, g along the last axis.

    Each input is (B, in) or (in,); ``h``/``c`` match with hidden width H.
    Under a tape the arguments are its tensors, under ``NO_GRAD`` plain
    arrays.  Returns (h of each step, last c).

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
    """Per-position concat of forward and backward hidden states (width 2H)."""
    if not seq:
        raise ValueError("bilstm_encode: empty sequence")
    state_shape = seq[0].shape[:-1] + (hidden,)

    def run(inputs, W, b):
        return lstm_sequence(tape, inputs, tape.zeros(state_shape),
                             tape.zeros(state_shape), W, b)[0]

    fwd = run(seq, W_f, b_f)
    bwd = run(seq[::-1], W_b, b_b)[::-1]
    return [tape.concat([f, b], axis=-1) for f, b in zip(fwd, bwd)]


def adagrad_step(store: ParamStore, lr: float) -> None:
    """accumulator += grad^2; param -= lr * grad / (sqrt(accumulator) + eps).

    Gradients are first rescaled so that their global L2 norm does not
    exceed :data:`GRAD_CLIP`.
    """
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    grads = store.grads()
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
            model.store.bind(tape)
            loss = loss_fn(tape, model, source, targets)
            tape.backward(loss)
            adagrad_step(model.store, hyper.lr)
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


def grad_check(loss_fn, store: ParamStore, max_coords: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of ``loss_fn`` (a zero-argument callable
    returning a scalar Tensor whose tape has the store bound) against central
    finite differences.  Returns the worst relative error."""
    loss = loss_fn()
    if not np.isfinite(loss.data).all():
        raise ValueError("loss is not finite")
    loss.tape.backward(loss)
    analytic = {}
    for name, _ in store.items():
        t = store._bound.get(name)
        analytic[name] = (t.grad.copy() if t is not None and t.grad is not None
                          else np.zeros_like(store[name].data))

    worst = 0.0
    for name, p in store.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords is not None and n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        a_flat = analytic[name].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + GRAD_CHECK_STEP
            f_plus = float(loss_fn().data)
            flat[idx] = orig - GRAD_CHECK_STEP
            f_minus = float(loss_fn().data)
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
            store._params[name] = Parameter(name, data.copy())
    return store
