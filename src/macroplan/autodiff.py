"""Minimal reverse-mode autodiff on dense float64 numpy arrays.

A Tape records backward closures as ops execute; ``Tape.backward`` replays
them in reverse.  Ops support 1-D vectors and 2-D (batch, dim) arrays, which
is all the planner and generator architectures need.

``NO_GRAD`` evaluates the same ops, the subset the models use, on plain
arrays and records nothing.  The models' forward functions take a tape or
``NO_GRAD`` as their ``tape`` argument, so training and inference run one
definition of each model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "Tensor", "ShapeError", "NoGrad", "NO_GRAD"]


class ShapeError(ValueError):
    pass


class Tape:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list = []

    def _record(self, out: "Tensor", fn) -> None:
        def guarded():
            if out.grad is not None:
                fn()
        self.nodes.append(guarded)

    def backward(self, loss: "Tensor") -> None:
        if loss.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        # the closures hold their output tensors, which hold this tape:
        # popping each as it runs frees its tensor and that tensor's
        # gradient once no earlier node reads them, and leaves no cycle
        while self.nodes:
            self.nodes.pop()()

    # --- construction -----------------------------------------------------

    def tensor(self, data) -> "Tensor":
        return Tensor(np.asarray(data, dtype=np.float64), self)

    def zeros(self, shape) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float64), self)

    def param(self, store, name: str) -> "Tensor":
        """The leaf that ``store.bind(self)`` made for parameter ``name``."""
        return store.t(name)

    # --- primitive ops ----------------------------------------------------

    def matmul(self, a: "Tensor", b: "Tensor") -> "Tensor":
        try:
            out = Tensor(a.data @ b.data, self)
        except ValueError:
            raise ShapeError(f"matmul: incompatible shapes {a.data.shape} "
                             f"x {b.data.shape}") from None

        def backward():
            g = out.grad
            if a.data.ndim == 1 and b.data.ndim == 1:
                a.accum(g * b.data)
                b.accum(g * a.data)
            elif a.data.ndim == 1:          # (n,) @ (n,m) -> (m,)
                a.accum(b.data @ g)
                b.accum(np.outer(a.data, g))
            elif b.data.ndim == 1:          # (B,n) @ (n,) -> (B,)
                a.accum(np.outer(g, b.data))
                b.accum(a.data.T @ g)
            else:                           # (B,n) @ (n,m) -> (B,m)
                a.accum(g @ b.data.T)
                b.accum(a.data.T @ g)
        self._record(out, backward)
        return out

    def add(self, a: "Tensor", b: "Tensor") -> "Tensor":
        out = Tensor(a.data + b.data, self)

        def backward():
            a.accum(_unbroadcast(out.grad, a.data.shape))
            b.accum(_unbroadcast(out.grad, b.data.shape))
        self._record(out, backward)
        return out

    def sub(self, a: "Tensor", b: "Tensor") -> "Tensor":
        out = Tensor(a.data - b.data, self)

        def backward():
            a.accum(_unbroadcast(out.grad, a.data.shape))
            b.accum(-_unbroadcast(out.grad, b.data.shape))
        self._record(out, backward)
        return out

    def mul(self, a: "Tensor", b: "Tensor") -> "Tensor":
        """Elementwise product with numpy broadcasting."""
        out = Tensor(a.data * b.data, self)

        def backward():
            a.accum(_unbroadcast(out.grad * b.data, a.data.shape))
            b.accum(_unbroadcast(out.grad * a.data, b.data.shape))
        self._record(out, backward)
        return out

    def scale(self, a: "Tensor", k: float) -> "Tensor":
        out = Tensor(a.data * k, self)

        def backward():
            a.accum(out.grad * k)
        self._record(out, backward)
        return out

    def add_const(self, a: "Tensor", const) -> "Tensor":
        out = Tensor(a.data + np.asarray(const, dtype=np.float64), self)

        def backward():
            a.accum(_unbroadcast(out.grad, a.data.shape))
        self._record(out, backward)
        return out

    def sigmoid(self, a: "Tensor") -> "Tensor":
        y = NoGrad.sigmoid(a.data)
        out = Tensor(y, self)

        def backward():
            a.accum(out.grad * y * (1.0 - y))
        self._record(out, backward)
        return out

    def tanh(self, a: "Tensor") -> "Tensor":
        y = np.tanh(a.data)
        out = Tensor(y, self)

        def backward():
            a.accum(out.grad * (1.0 - y * y))
        self._record(out, backward)
        return out

    def softmax(self, a: "Tensor", axis: int = -1, mask=None) -> "Tensor":
        """Softmax along ``axis``; optional boolean ``mask`` (False entries get
        zero probability and no gradient)."""
        y = NoGrad.softmax(a.data, axis, mask)
        out = Tensor(y, self)

        def backward():
            g = out.grad
            dot = (g * y).sum(axis=axis, keepdims=True)
            a.accum(y * (g - dot))
        self._record(out, backward)
        return out

    def log(self, a: "Tensor") -> "Tensor":
        out = Tensor(np.log(a.data), self)

        def backward():
            a.accum(out.grad / a.data)
        self._record(out, backward)
        return out

    def concat(self, parts: list["Tensor"], axis: int = -1) -> "Tensor":
        out = Tensor(np.concatenate([p.data for p in parts], axis=axis), self)
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def backward():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * out.grad.ndim
                idx[axis if axis >= 0 else out.grad.ndim + axis] = slice(lo, hi)
                p.accum(out.grad[tuple(idx)])
        self._record(out, backward)
        return out

    def stack_rows(self, rows: list["Tensor"]) -> "Tensor":
        """Stack 1-D tensors of equal length into a 2-D (len(rows), n) tensor."""
        out = Tensor(np.stack([r.data for r in rows]), self)

        def backward():
            for i, r in enumerate(rows):
                r.accum(out.grad[i])
        self._record(out, backward)
        return out

    def stack_cols(self, cols: list["Tensor"]) -> "Tensor":
        """Stack 1-D tensors of length B into a (B, len(cols)) tensor."""
        out = Tensor(np.stack([c.data for c in cols], axis=1), self)

        def backward():
            for j, c in enumerate(cols):
                c.accum(out.grad[:, j])
        self._record(out, backward)
        return out

    def slice_last(self, a: "Tensor", start: int, stop: int) -> "Tensor":
        out = Tensor(a.data[..., start:stop], self)

        def backward():
            g = np.zeros_like(a.data)
            g[..., start:stop] = out.grad
            a.accum(g)
        self._record(out, backward)
        return out

    def row(self, a: "Tensor", i: int) -> "Tensor":
        out = Tensor(a.data[i], self)

        def backward():
            g = np.zeros_like(a.data)
            g[i] = out.grad
            a.accum(g)
        self._record(out, backward)
        return out

    def column(self, a: "Tensor", j: int, keepdims: bool = True) -> "Tensor":
        data = a.data[:, j:j + 1] if keepdims else a.data[:, j]
        out = Tensor(data, self)

        def backward():
            g = np.zeros_like(a.data)
            if keepdims:
                g[:, j:j + 1] = out.grad
            else:
                g[:, j] = out.grad
            a.accum(g)
        self._record(out, backward)
        return out

    def gather_rows(self, table: "Tensor", indices) -> "Tensor":
        idx = np.asarray(indices, dtype=np.int64)
        out = Tensor(table.data[idx], self)

        def backward():
            g = np.zeros_like(table.data)
            np.add.at(g, idx, out.grad)
            table.accum(g)
        self._record(out, backward)
        return out

    def transpose(self, a: "Tensor") -> "Tensor":
        if a.data.ndim != 2:
            raise ShapeError("transpose expects a 2-D tensor")
        out = Tensor(a.data.T, self)

        def backward():
            a.accum(out.grad.T)
        self._record(out, backward)
        return out

    def sum(self, a: "Tensor", axis=None) -> "Tensor":
        out = Tensor(np.sum(a.data, axis=axis), self)

        def backward():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            a.accum(np.broadcast_to(g, a.data.shape).copy())
        self._record(out, backward)
        return out

    def mean(self, a: "Tensor", axis=None) -> "Tensor":
        n = a.data.size if axis is None else a.data.shape[axis]
        return self.scale(self.sum(a, axis=axis), 1.0 / n)

    def pick(self, a: "Tensor", index) -> "Tensor":
        """Select a single element (scalar output)."""
        out = Tensor(np.asarray(a.data[index]), self)

        def backward():
            g = np.zeros_like(a.data)
            g[index] = out.grad
            a.accum(g)
        self._record(out, backward)
        return out

    def neg(self, a: "Tensor") -> "Tensor":
        return self.scale(a, -1.0)

    def nll_pick(self, probs: "Tensor", index, eps: float = 1e-12) -> "Tensor":
        """-log(probs[index]) with numerical floor ``eps``."""
        p = float(probs.data[index])
        out = Tensor(np.asarray(-np.log(max(p, eps))), self)

        def backward():
            g = np.zeros_like(probs.data)
            g[index] = -out.grad / max(p, eps)
            probs.accum(g)
        self._record(out, backward)
        return out


class NoGrad:
    """The forward of the :class:`Tape` ops the models use, on plain arrays:
    nothing is recorded and no gradient is kept."""

    __slots__ = ()

    zeros = staticmethod(np.zeros)
    matmul = staticmethod(np.matmul)
    add = staticmethod(np.add)
    mul = staticmethod(np.multiply)
    tanh = staticmethod(np.tanh)
    transpose = staticmethod(np.transpose)
    stack_rows = staticmethod(np.stack)

    @staticmethod
    def param(store, name: str) -> np.ndarray:
        return store[name].data

    @staticmethod
    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

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
    def stack_cols(cols):
        return np.stack(cols, axis=1)

    @staticmethod
    def slice_last(a, start: int, stop: int):
        return a[..., start:stop]

    @staticmethod
    def row(a, i: int):
        return a[i]

    @staticmethod
    def column(a, j: int, keepdims: bool = True):
        return a[:, j:j + 1] if keepdims else a[:, j]

    @staticmethod
    def gather_rows(table, indices):
        return table[np.asarray(indices, dtype=np.int64)]


NO_GRAD = NoGrad()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "tape", "__weakref__")

    def __init__(self, data: np.ndarray, tape: Tape):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"
