"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

A Tape records backward closures as ops execute; ``Tape.backward`` replays
them in reverse.  ``Tape.param`` makes a parameter's leaf the first time
the tape reads it and keeps it in ``Tape.leaves``, where its gradient
lands: a training step's leaves and gradients live on its tape alone.

Every activation is a stack of rows, (B, width), with B = 1 for one
hypothesis or one step: ``row`` keeps its axis, ``concat(axis=0)`` stacks
rows, and ``matmul`` refuses an operand of fewer than two axes.  Biases are
1-D or 0-D and broadcast, and a loss is 0-D.  The ops the candidate encoder
pools with (``gather_rows``, ``add``, ``softmax``, ``transpose``, ``matmul``
of two stacks and ``sum``) also take a 3-D (batch, position, dim) stack.

``NO_GRAD`` evaluates the same ops, the subset the models use, on plain
arrays and records nothing.  The models' forward functions take a tape or
``NO_GRAD`` as their ``tape`` argument, so training and inference run one
definition of each model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "Tensor", "ShapeError", "NoGrad", "NO_GRAD"]


NLL_FLOOR = 1e-12


class ShapeError(ValueError):
    pass


class Tape:
    __slots__ = ("nodes", "leaves")

    def __init__(self):
        self.nodes: list = []
        self.leaves: dict[str, Tensor] = {}

    def _record(self, out: "Tensor", fn) -> None:
        def guarded():
            if out.grad is not None:
                fn()
        self.nodes.append(guarded)

    def backward(self, loss: "Tensor") -> None:
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        # popping each closure as it runs frees its output tensor and that
        # tensor's gradient once no earlier node reads them
        while self.nodes:
            self.nodes.pop()()

    # --- construction -----------------------------------------------------

    def tensor(self, data) -> "Tensor":
        return Tensor(data)

    def zeros(self, shape) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float64))

    def param(self, store, name: str) -> "Tensor":
        """The leaf of parameter ``store[name]``, made the first time this
        tape reads it."""
        leaf = self.leaves.get(name)
        if leaf is None:
            leaf = self.leaves[name] = Tensor(store[name].data)
        return leaf

    # --- primitive ops ----------------------------------------------------

    def matmul(self, a: "Tensor", b: "Tensor") -> "Tensor":
        """(B,n) @ (n,m) -> (B,m), or (K,p,n) @ (K,n,m) -> (K,p,m)."""
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeError(f"matmul: {a.data.shape} x {b.data.shape}: "
                             "each operand needs two axes or more")
        try:
            out = Tensor(a.data @ b.data)
        except ValueError:
            raise ShapeError(f"matmul: incompatible shapes {a.data.shape} "
                             f"x {b.data.shape}") from None

        def backward():
            a.accum(out.grad @ NoGrad.transpose(b.data))
            b.accum(NoGrad.transpose(a.data) @ out.grad)
        self._record(out, backward)
        return out

    def add(self, a: "Tensor", b: "Tensor") -> "Tensor":
        out = Tensor(a.data + b.data)

        def backward():
            a.accum(_unbroadcast(out.grad, a.data.shape))
            b.accum(_unbroadcast(out.grad, b.data.shape))
        self._record(out, backward)
        return out

    def mul(self, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise product with numpy broadcasting."""
        out = Tensor(a.data * b.data)

        def backward():
            a.accum(_unbroadcast(out.grad * b.data, a.data.shape))
            b.accum(_unbroadcast(out.grad * a.data, b.data.shape))
        self._record(out, backward)
        return out

    def scale(self, a: "Tensor", k: float) -> "Tensor":
        out = Tensor(a.data * k)

        def backward():
            a.accum(out.grad * k)
        self._record(out, backward)
        return out

    def add_const(self, a: "Tensor", const) -> "Tensor":
        out = Tensor(a.data + np.asarray(const, dtype=np.float64))

        def backward():
            a.accum(_unbroadcast(out.grad, a.data.shape))
        self._record(out, backward)
        return out

    def sigmoid(self, a: "Tensor") -> "Tensor":
        y = NoGrad.sigmoid(a.data)
        out = Tensor(y)

        def backward():
            a.accum(out.grad * y * (1.0 - y))
        self._record(out, backward)
        return out

    def tanh(self, a: "Tensor") -> "Tensor":
        y = np.tanh(a.data)
        out = Tensor(y)

        def backward():
            a.accum(out.grad * (1.0 - y * y))
        self._record(out, backward)
        return out

    def softmax(self, a: "Tensor", axis: int = -1, mask=None) -> "Tensor":
        """Softmax along ``axis``; optional boolean ``mask`` (False entries get
        zero probability and no gradient)."""
        y = NoGrad.softmax(a.data, axis, mask)
        out = Tensor(y)

        def backward():
            g = out.grad
            dot = (g * y).sum(axis=axis, keepdims=True)
            a.accum(y * (g - dot))
        self._record(out, backward)
        return out

    def log(self, a: "Tensor") -> "Tensor":
        out = Tensor(np.log(a.data))

        def backward():
            a.accum(out.grad / a.data)
        self._record(out, backward)
        return out

    def concat(self, parts: list["Tensor"], axis: int = -1) -> "Tensor":
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def backward():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * out.grad.ndim
                idx[axis if axis >= 0 else out.grad.ndim + axis] = slice(lo, hi)
                p.accum(out.grad[tuple(idx)])
        self._record(out, backward)
        return out

    def _index(self, a: "Tensor", key) -> "Tensor":
        """``a[key]`` for a basic-index ``key``."""
        out = Tensor(a.data[key])
        self._record(out, lambda: a.accum_at(key, out.grad))
        return out

    def slice_last(self, a: "Tensor", start: int, stop: int) -> "Tensor":
        return self._index(a, (Ellipsis, slice(start, stop)))

    def row(self, a: "Tensor", i: int) -> "Tensor":
        """Row ``i`` of ``a`` as a one-row stack."""
        return self._index(a, slice(i, i + 1))

    def gather_rows(self, table: "Tensor", indices) -> "Tensor":
        """``table[indices]`` for an int array ``indices`` of any shape."""
        idx = np.asarray(indices, dtype=np.int64)
        out = Tensor(table.data[idx])

        def backward():
            # sum repeated ids apart from table.grad, in index order, so
            # that each gathered row reaches the table as one addition
            rows, inverse = np.unique(idx.ravel(), return_inverse=True)
            table.accum_at(rows, _sum_rows(inverse, out.grad.reshape(
                (idx.size,) + table.data.shape[1:]), rows.size))
        self._record(out, backward)
        return out

    def transpose(self, a: "Tensor") -> "Tensor":
        """Swap the last two axes of a tensor of two axes or more."""
        if a.data.ndim < 2:
            raise ShapeError("transpose expects a tensor of 2-D or more")
        out = Tensor(NoGrad.transpose(a.data))

        def backward():
            a.accum(NoGrad.transpose(out.grad))
        self._record(out, backward)
        return out

    def sum(self, a: "Tensor", axis=None) -> "Tensor":
        out = Tensor(np.sum(a.data, axis=axis))

        def backward():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a.accum(np.broadcast_to(g, a.data.shape))
        self._record(out, backward)
        return out

    def mean(self, a: "Tensor", axis=None) -> "Tensor":
        """The mean along ``axis``, kept as an axis of one (the mean row of
        a stack, for ``axis=0``), or of every element as 0-D."""
        k = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
        out = Tensor(NoGrad.mean(a.data, axis))
        self._record(out, lambda: a.accum(
            np.broadcast_to(out.grad * k, a.data.shape)))
        return out

    def neg(self, a: "Tensor") -> "Tensor":
        return self.scale(a, -1.0)

    def nll_pick(self, probs: "Tensor", index) -> "Tensor":
        """-log(probs[index]) with numerical floor ``NLL_FLOOR``."""
        p = max(float(probs.data[index]), NLL_FLOOR)
        out = Tensor(np.asarray(-np.log(p)))
        self._record(out, lambda: probs.accum_at(index, -out.grad / p))
        return out

    def lstm_sequence(self, xs: list["Tensor"], h0: "Tensor", c0: "Tensor",
                      W: "Tensor", b: "Tensor", parents=None
                      ) -> tuple[list["Tensor"], "Tensor"]:
        """A fused-gate LSTM over the inputs ``xs``, all known before the
        recurrence, as one node; see :func:`_lstm_forward`.  Returns (h of
        each step, last c).

        Under ``parents`` the steps form a tree: row r of step t continues
        from row ``parents[t][r]`` of step t-1 (of ``h0``/``c0`` at t = 0).

        The forward takes one product per step, as
        :meth:`NoGrad.lstm_sequence` does, so training's values are
        inference's to the bit.  The backward runs the steps in reverse for
        each dz, summing each row's carried dh and dc into its parent, then
        takes W's gradient as one product over the stacked [x;h], b's as
        one sum and the inputs' as one product."""
        n_in = xs[0].data.shape[-1]
        h, c = h0.data, c0.data
        hs, saved = [], []
        for t, x in enumerate(xs):
            if parents is not None:
                h, c = h[parents[t]], c[parents[t]]
            xh = np.concatenate([x.data, h], axis=-1)
            h, c_new, ifo, g, tc = _lstm_forward(xh, c, W.data, b.data)
            saved.append((xh, c, ifo, g, tc))
            hs.append(Tensor(h))
            c = c_new
        c_out = Tensor(c)

        def backward():
            dc = c_out.grad
            if dc is None and all(h_t.grad is None for h_t in hs):
                return
            W_h = W.data[n_in:]
            dh, dzs = np.zeros_like(hs[-1].data), []
            for t in reversed(range(len(xs))):
                _, c_prev, ifo, g, tc = saved[t]
                if hs[t].grad is not None:
                    dh += hs[t].grad
                dz, dc = _lstm_backward(dh, dc, c_prev, ifo, g, tc)
                dh = dz @ W_h.T
                if parents is not None:
                    rows = (hs[t - 1] if t else h0).data.shape[0]
                    dh, dc = (_sum_rows(parents[t], a, rows) for a in (dh, dc))
                dzs.append(dz)
            xh = np.concatenate([s[0] for s in saved])
            dz = np.concatenate(dzs[::-1])
            W.accum(xh.T @ dz)
            b.accum(dz.sum(axis=0))
            dx = dz @ W.data[:n_in].T
            lo = 0
            for x in xs:
                hi = lo + x.data.shape[0]
                x.accum(dx[lo:hi])
                lo = hi
            h0.accum(dh)
            c0.accum(dc)
        self.nodes.append(backward)
        return hs, c_out


class NoGrad:
    """The forward of the :class:`Tape` ops the models use, on plain arrays:
    nothing is recorded and no gradient is kept."""

    __slots__ = ()

    zeros = staticmethod(np.zeros)
    matmul = staticmethod(np.matmul)
    add = staticmethod(np.add)
    mul = staticmethod(np.multiply)
    tanh = staticmethod(np.tanh)
    sum = staticmethod(np.sum)

    @staticmethod
    def param(store, name: str) -> np.ndarray:
        return store[name].data

    @staticmethod
    def transpose(a):
        return a.swapaxes(-1, -2)

    @staticmethod
    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    @staticmethod
    def mean(a, axis=None):
        """The sum times 1/K, so that training and inference take one
        formula (numpy's ``mean`` divides, which rounds differently)."""
        k = 1.0 / (a.size if axis is None else a.shape[axis])
        return np.sum(a, axis=axis, keepdims=axis is not None) * k

    @staticmethod
    def softmax(a, axis: int = -1, mask=None):
        if mask is not None:
            a = np.where(mask, a, -1e30)
        ex = np.exp(a - a.max(axis=axis, keepdims=True))
        return ex / ex.sum(axis=axis, keepdims=True)

    @staticmethod
    def concat(parts, axis: int = -1):
        return np.concatenate(parts, axis=axis)

    @staticmethod
    def slice_last(a, start: int, stop: int):
        return a[..., start:stop]

    @staticmethod
    def row(a, i: int):
        return a[i:i + 1]

    @staticmethod
    def gather_rows(table, indices):
        return table[np.asarray(indices, dtype=np.int64)]

    @staticmethod
    def lstm_sequence(xs, h0, c0, W, b, parents=None):
        hs, h, c = [], h0, c0
        for t, x in enumerate(xs):
            if parents is not None:
                h, c = h[parents[t]], c[parents[t]]
            h, c = _lstm_forward(np.concatenate([x, h], axis=-1), c, W, b)[:2]
            hs.append(h)
        return hs, c


NO_GRAD = NoGrad()


def _lstm_forward(xh, c, W, b):
    """A fused-gate LSTM step on arrays, gate order i, f, o, g along the last
    axis: ``z = [x;h] @ W + b``, ``c' = f*c + i*g``, ``h' = o*tanh(c')``.
    Returns (h', c') and what the backward reads: the i, f, o gates, g and
    tanh(c')."""
    hidden = c.shape[-1]
    z = xh @ W + b
    # one sigmoid over the i, f, o gates: elementwise, so it rounds as three
    ifo = NoGrad.sigmoid(z[..., :3 * hidden])
    g = np.tanh(z[..., 3 * hidden:])
    c_new = ifo[..., hidden:2 * hidden] * c + ifo[..., :hidden] * g
    tc = np.tanh(c_new)
    return ifo[..., 2 * hidden:] * tc, c_new, ifo, g, tc


def _lstm_backward(dh, dc, c, ifo, g, tc):
    """The gradient of one :func:`_lstm_forward` step: (dz, dc) from the
    gradient ``dh`` of h', the gradient ``dc`` of c' (None if c' is not read
    downstream) and the step's saved arrays.  Each elementwise product is
    taken in the order the unfused cell's ops took it."""
    hidden = c.shape[-1]
    i, f = ifo[..., :hidden], ifo[..., hidden:2 * hidden]
    dz = np.empty(ifo.shape[:-1] + (4 * hidden,))
    dz[..., 2 * hidden:3 * hidden] = dh * tc
    dc_h = dh * ifo[..., 2 * hidden:] * (1.0 - tc * tc)
    dc = dc_h if dc is None else dc + dc_h
    dz[..., :hidden] = dc * g
    dz[..., hidden:2 * hidden] = dc * c
    difo = dz[..., :3 * hidden]
    difo *= ifo
    difo *= 1.0 - ifo
    np.multiply(dc * i, 1.0 - g * g, out=dz[..., 3 * hidden:])
    return dz, dc * f


def _sum_rows(index, g, rows: int):
    """(rows, ...) array whose row i sums the rows r of ``g`` with
    ``index[r] == i``, added in the order of r as ``np.add.at`` adds them;
    a row no index names is zero."""
    width = int(np.prod(g.shape[1:]))
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=rows * width
                       ).reshape((rows,) + g.shape[1:])


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "__weakref__")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.data.shape

    def accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy: ops hand one array to several parents
            self.grad = np.array(g, order="C")
        else:
            self.grad += g

    def accum_at(self, key, g: np.ndarray) -> None:
        """Add ``g`` into ``grad[key]``; ``key`` selects no element twice."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[key] += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"
