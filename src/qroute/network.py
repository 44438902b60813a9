"""Multi-layer perceptron with hand-rolled backpropagation and Adam.

The production value network is shaped 1536 -> 64 -> 64 -> 12: the
embedding width, ``HIDDEN_WIDTHS``, and one output per expert (rectifier
hidden layers, linear output). Everything here is plain numpy so a single
forward/backward pair can be checked against finite differences and the
whole training loop stays bit-reproducible. Parameters default to float32
so checkpoints round-trip exactly; tests instantiate float64 copies when
they need headroom for numerical differentiation.

All parameters live in one flat buffer, in ``parameters()`` order
(``W1, b1, W2, b2, ...``); the weights and biases are views of it, and the
Adam moments share its layout. The input is a feature-hashed state with
about ten nonzeros of 1536, so the first layer multiplies only the batch's
nonzero input columns, its weight gradient covers only those rows (a
``RowGrad``), and Adam and the finiteness check touch only the rows of
``W1`` a step can change. Everything after ``W1`` (about 5k values) is one
contiguous tail that Adam updates in a single call. The products stay small
enough that BLAS runs them on one thread.
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
        parts = [self.flat] if rows is None else [w1[rows], self.flat[w1.size :]]
        for part in parts:
            if not np.isfinite(part).all():
                raise NumericalError(
                    f"non-finite parameter detected (min {np.nanmin(part)}, max {np.nanmax(part)})"
                )


class AdamState:
    """First/second moment accumulators in the layout of a network's flat
    parameter buffer; ``m`` and ``v`` read as lists of views in
    ``parameters()`` order and cannot be assigned.

    A step makes two updates. The tail after ``W1`` is updated densely in
    place. ``W1``'s update is row-sparse and exact: the hashed state vector
    has about ten nonzeros, so most of its rows never see a nonzero
    gradient; such a row has m = v = g = 0, and the dense update there is
    lr * 0 / (0 + eps) = 0. ``W1`` therefore keeps a "live" mask of the
    rows that ever had a nonzero (or NaN) gradient and runs Adam only on
    those. A live row stays live, so its moments keep decaying exactly as
    in the dense update (unlike lazy or sparse Adam variants, which skip
    that decay). Its gradient arrives as a ``RowGrad``, so the rows a step
    does not give read as zero without being built. The moments start at
    +0.0 and only a step writes them, so no row starts live.
    """

    def __init__(self, net: QNetwork):
        self._m_flat = np.zeros_like(net.flat)
        self._v_flat = np.zeros_like(net.flat)
        self._m = _views(self._m_flat, net.layer_sizes)
        self._v = _views(self._v_flat, net.layer_sizes)
        self._live = np.zeros(net.n_inputs, dtype=bool)
        self.t = 0

    @property
    def m(self) -> list[np.ndarray]:
        return list(self._m)

    @property
    def v(self) -> list[np.ndarray]:
        return list(self._v)

    def step(self, net: QNetwork, grads: list[RowGrad | np.ndarray], lr: float) -> np.ndarray:
        """One Adam step of ``net``'s parameters, given ``W1``'s gradient as
        a ``RowGrad`` and every other as an array, in parameters() order.

        Returns the rows of ``W1`` the step wrote (its live rows), for
        ``QNetwork.check_finite``.
        """
        if net.flat.shape != self._m_flat.shape or len(grads) != len(self._m):
            raise ValueError("parameter/gradient count mismatch")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t

        p, m, v, live = net.weights[0], self._m[0], self._v[0], self._live
        rows, values = grads[0].rows, grads[0].values.astype(p.dtype, copy=False)
        live[rows] |= values.any(axis=1)
        upd = np.flatnonzero(live)
        # the live rows' gradient: zero but where ``rows`` gives a value
        # (a given row that is not live holds only zeros; it changes nothing)
        given = live[rows]
        g_upd = np.zeros((len(upd), p.shape[1]), dtype=p.dtype)
        g_upd[np.searchsorted(upd, rows[given])] = values[given]
        p_u, m_u, v_u = p[upd], m[upd], v[upd]
        _adam_update(p_u, g_upd, m_u, v_u, lr, b1t, b2t)
        p[upd], m[upd], v[upd] = p_u, m_u, v_u

        # the tail: a zero gradient on zero moments leaves a value unchanged,
        # so updating every element equals updating only the touched ones
        tail = slice(p.size, None)
        g_tail = np.concatenate([g.reshape(-1) for g in grads[1:]]).astype(p.dtype, copy=False)
        _adam_update(net.flat[tail], g_tail, self._m_flat[tail], self._v_flat[tail], lr, b1t, b2t)
        return upd


def _adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, b1t: float, b2t: float
) -> None:
    """One in-place Adam update of ``p``, ``m`` and ``v`` given gradient ``g``."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(g)
    m_hat = m / b1t
    v_hat = v / b2t
    p -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype, copy=False)
