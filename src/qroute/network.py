"""Multi-layer perceptron with hand-rolled backpropagation and Adam.

The production value network is shaped 1536 -> 64 -> 64 -> 12: the
embedding width, ``HIDDEN_WIDTHS``, and one output per expert (rectifier
hidden layers, linear output). Everything here is plain numpy so a single
forward/backward pair can be checked against finite differences and the
whole training loop stays bit-reproducible. Parameters default to float32
so checkpoints round-trip exactly; tests instantiate float64 copies when
they need headroom for numerical differentiation.

All parameters live in one flat buffer, in ``parameters()`` order
(``W1, b1, W2, b2, ...``); the weights and biases are views of it. The input
is a feature-hashed state with about ten nonzeros of 1536, so the first
layer multiplies only the batch's nonzero input columns, and its weight
gradient covers only those rows (a ``RowGrad``). Adam's moments are kept
only where a step can change anything: one contiguous block holding the
tail after ``W1`` (about 5k values), then the rows of ``W1`` that have ever
had a gradient, in the order they first had one (about 100 rows of 64 in a
default run). A step is one update over that block, and the finiteness
check reads only the rows of ``W1`` it wrote and the tail. A run's hashes
were measured equal with ``OPENBLAS_NUM_THREADS=1`` and with the default
(two threads on a 2-core host).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError

#: Widths of the production network's hidden layers.
HIDDEN_WIDTHS: tuple[int, ...] = (64, 64)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class RowGrad(NamedTuple):
    """Gradient of a 2-D parameter that is zero outside ``rows``:
    ``values[i]`` is the gradient of row ``rows[i]``, and the rows are
    distinct."""

    rows: np.ndarray
    values: np.ndarray


def param_shapes(layer_sizes: Sequence[int]) -> list[tuple[int, ...]]:
    """The shapes of a network's parameters, in ``parameters()`` order."""
    return [
        shape
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        for shape in ((fan_in, fan_out), (fan_out,))
    ]


def _views(flat: np.ndarray, layer_sizes: Sequence[int]) -> list[np.ndarray]:
    """``flat`` cut into the parameters of a network of ``layer_sizes``."""
    out: list[np.ndarray] = []
    start = 0
    for shape in param_shapes(layer_sizes):
        stop = start + math.prod(shape)
        out.append(flat[start:stop].reshape(shape))
        start = stop
    return out


class QNetwork:
    """Feed-forward action-value network.

    Weights are initialized uniformly in +-sqrt(6 / (fan_in + fan_out)),
    biases at zero, from the given seed.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: int = 0,
        dtype: type = np.float32,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        layer_sizes = tuple(int(n) for n in layer_sizes)
        size = sum(math.prod(shape) for shape in param_shapes(layer_sizes))
        self._bind(layer_sizes, np.zeros(size, dtype=dtype))
        rng = np.random.default_rng(seed)
        for w in self.weights:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _bind(self, layer_sizes: tuple[int, ...], flat: np.ndarray) -> None:
        self.layer_sizes = layer_sizes
        self.dtype = flat.dtype
        self.flat = flat
        self._params = _views(flat, layer_sizes)
        self.weights: list[np.ndarray] = self._params[0::2]
        self.biases: list[np.ndarray] = self._params[1::2]

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """Views of the flat buffer: ``W1, b1, W2, b2, ...``."""
        return list(self._params)

    @classmethod
    def from_flat(cls, layer_sizes: Sequence[int], flat: np.ndarray) -> "QNetwork":
        """A network over ``flat`` itself (not a copy), cut into the
        parameters of ``layer_sizes``, with no initialization drawn; the
        dtype is ``flat``'s."""
        layer_sizes = tuple(int(n) for n in layer_sizes)
        if flat.shape != (sum(math.prod(shape) for shape in param_shapes(layer_sizes)),):
            raise ValueError(f"a flat buffer of shape {flat.shape} does not fit layer sizes {list(layer_sizes)}")
        net = cls.__new__(cls)
        net._bind(layer_sizes, flat)
        return net

    def copy(self) -> "QNetwork":
        return QNetwork.from_flat(self.layer_sizes, self.flat.copy())

    def forward(self, x: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Q-values for a single state (in,) or a batch (B, in); see
        ``forward_cached`` for ``cols``."""
        q, _ = self.forward_cached(x, cols)
        return q

    def forward_cached(
        self, x: np.ndarray, cols: np.ndarray | None = None
    ) -> tuple[np.ndarray, tuple[np.ndarray, list[np.ndarray]]]:
        """Forward pass keeping what ``backward`` needs.

        The first layer multiplies only the input columns that are nonzero
        (or NaN) in some row of the batch, ``x[:, cols] @ W1[cols]``. The
        other columns add nothing, so the NaN or infinite weights of a row
        no input reaches never enter the result. Given ``cols`` (sorted and
        distinct), ``x`` already holds only those columns, as a replay
        batch does; without it, ``cols`` is found and ``x`` compacted here.
        The cache is ``cols`` and the layer inputs, the first of them the
        compact ``x``.
        """
        h = np.ascontiguousarray(x, dtype=self.dtype)
        squeeze = h.ndim == 1
        if squeeze:
            h = h[None, :]
        if cols is None:
            if h.shape[1] != self.n_inputs:
                raise ValueError(f"expected input width {self.n_inputs}, got {h.shape[1]}")
            cols = np.flatnonzero(h.any(axis=0))
            h = h[:, cols]
        activations = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ (w[cols] if i == 0 else w) + b
            h = z if i == last else np.maximum(z, 0)
            activations.append(h)
        q = activations[-1]
        return (q[0] if squeeze else q), (cols, activations)

    def backward(
        self, cache: tuple[np.ndarray, list[np.ndarray]], dq: np.ndarray
    ) -> list[RowGrad | np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q), in parameters() order.

        The first weight gradient is a ``RowGrad`` over the rows of the
        input columns the forward pass multiplied, so its dense
        (n_inputs, width) gradient is never built. Every other gradient is
        a plain array of its parameter's shape.
        """
        cols, activations = cache
        delta = np.asarray(dq, dtype=self.dtype)
        if delta.ndim == 1:
            delta = delta[None, :]
        out: list[RowGrad | np.ndarray] = []
        for i in range(len(self.weights) - 1, -1, -1):
            dw = activations[i].T @ delta
            out = [RowGrad(cols, dw) if i == 0 else dw, delta.sum(axis=0)] + out
            if i > 0:
                delta = (delta @ self.weights[i].T) * (activations[i] > 0)
        return out

    def check_finite(self, rows: np.ndarray | None = None) -> None:
        """Raise ``NumericalError`` on a non-finite parameter.

        ``rows``, as ``AdamState.step`` returns it, limits the check to the
        rows of ``W1`` a step wrote and the tail after ``W1``. Without it the
        whole buffer is checked.
        """
        w1 = self.weights[0]
        parts = [self.flat] if rows is None else [w1.take(rows, axis=0), self.flat[w1.size :]]
        for part in parts:
            if not np.isfinite(part).all():
                raise NumericalError(
                    f"non-finite parameter detected (min {np.nanmin(part)}, max {np.nanmax(part)})"
                )


class AdamState:
    """First/second moment accumulators for a network's parameters; ``m``
    and ``v`` read as lists of arrays in ``parameters()`` order (copies, in
    the parameters' layout) and cannot be assigned.

    A step is one dense Adam update over one contiguous block, exact against
    dense Adam over every parameter. The block is the tail after ``W1``
    followed by ``W1``'s live rows: the hashed state vector has about ten
    nonzeros, so most rows of ``W1`` never see a nonzero gradient; such a
    row has m = v = g = 0, and the dense update there is
    lr * 0 / (0 + eps) = 0. A row becomes live at its first nonzero (or NaN)
    gradient and stays live, so its moments keep decaying exactly as in the
    dense update (unlike lazy or sparse Adam variants, which skip that
    decay). The moment buffers hold only that block: the tail, then the live
    rows in the order they became live, each appended when it does. The
    parameters keep their own layout, so a step gathers the block's
    parameters, updates them and scatters them back. ``W1``'s gradient
    arrives as a ``RowGrad``, so the rows a step does not give read as zero
    without being built. The moments start at +0.0 and only a step writes
    them, so no row starts live.
    """

    def __init__(self, net: QNetwork):
        w1 = net.weights[0]
        self._layer_sizes = net.layer_sizes
        self._size = net.flat.size
        self._tail = net.flat.size - w1.size
        self._m = np.zeros(self._tail, dtype=net.dtype)
        self._v = np.zeros(self._tail, dtype=net.dtype)
        #: ``W1``'s live rows, in the order they became live
        self.live_rows = np.zeros(0, dtype=np.intp)
        self._slot = np.full(w1.shape[0], -1, dtype=np.intp)  # a row's place in live_rows
        self.t = 0

    @property
    def m(self) -> list[np.ndarray]:
        return self._unpack(self._m)

    @property
    def v(self) -> list[np.ndarray]:
        return self._unpack(self._v)

    def _unpack(self, block: np.ndarray) -> list[np.ndarray]:
        """A moment block in the layout of the parameters, zero in the rows
        of ``W1`` that are not live."""
        flat = np.zeros(self._size, dtype=block.dtype)
        w1 = _views(flat, self._layer_sizes)[0]
        flat[w1.size :] = block[: self._tail]
        w1[self.live_rows] = block[self._tail :].reshape(-1, w1.shape[1])
        return _views(flat, self._layer_sizes)

    def step(self, net: QNetwork, grads: list[RowGrad | np.ndarray], lr: float) -> np.ndarray:
        """One Adam step of ``net``'s parameters, given ``W1``'s gradient as
        a ``RowGrad`` and every other as an array, in parameters() order.

        Returns the rows of ``W1`` the step wrote (its live rows), for
        ``QNetwork.check_finite``.
        """
        p = net.weights[0]
        if net.flat.size != self._size or len(grads) != 2 * len(net.weights):
            raise ValueError("parameter/gradient count mismatch")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t

        width, tail, slot = p.shape[1], self._tail, self._slot
        rows, values = grads[0].rows, grads[0].values.astype(p.dtype, copy=False)
        at = slot[rows]
        fresh = at < 0
        if fresh.any():
            new = rows[fresh][values[fresh].any(axis=1)]
            slot[new] = np.arange(len(self.live_rows), len(self.live_rows) + len(new))
            self.live_rows = np.concatenate([self.live_rows, new])
            grow = np.zeros(len(new) * width, dtype=p.dtype)
            self._m = np.concatenate([self._m, grow])
            self._v = np.concatenate([self._v, grow])
            # a given row that is still not live holds only zeros; it changes nothing
            at = slot[rows]
            given = at >= 0
            at, values = at[given], values[given]
        live = self.live_rows

        # the block's gradient: the tail's, then the live rows', zero but
        # where ``rows`` gives a value
        g = np.zeros(self._m.size, dtype=p.dtype)
        np.concatenate([gi.reshape(-1) for gi in grads[1:]], out=g[:tail])
        g[tail:].reshape(-1, width)[at] = values

        block = np.empty_like(g)
        block[:tail] = net.flat[p.size :]
        np.take(p, live, axis=0, out=block[tail:].reshape(-1, width), mode="clip")
        _adam_update(block, g, self._m, self._v, lr, b1t, b2t)
        net.flat[p.size :] = block[:tail]
        p[live] = block[tail:].reshape(-1, width)
        return live


def _adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, b1t: float, b2t: float
) -> None:
    """One in-place Adam update of ``p``, ``m`` and ``v`` given gradient ``g``,
    all of one dtype; ``g`` is used as scratch space. The arithmetic is
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
    ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)``, operation for operation."""
    step = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += step
    np.square(g, out=g)
    g *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += g
    np.divide(m, b1t, out=step)
    step *= lr
    np.divide(v, b2t, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    step /= g
    np.subtract(p, step, out=p)
