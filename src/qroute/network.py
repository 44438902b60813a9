"""Multi-layer perceptron with hand-rolled backpropagation and Adam.

The production value network is shaped 1536 -> 64 -> 64 -> 12 (rectifier
hidden layers, linear output). Everything here is plain numpy so a single
forward/backward pair can be checked against finite differences and the
whole training loop stays bit-reproducible. Parameters default to float32
so checkpoints round-trip exactly; tests instantiate float64 copies when
they need headroom for numerical differentiation.

The input is a feature-hashed state with about ten nonzeros of 1536, so
the first layer multiplies only the batch's nonzero input columns, its
weight gradient covers only those rows (a ``RowGrad``), and Adam and the
finiteness check touch only the rows a step can change. The products stay
small enough that BLAS runs them on one thread.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalError

LAYER_SIZES_DEFAULT: tuple[int, ...] = (1536, 64, 64, 12)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class RowGrad(NamedTuple):
    """Gradient of a 2-D parameter that is zero outside ``rows``:
    ``values[i]`` is the gradient of row ``rows[i]``, and the rows are
    distinct."""

    rows: np.ndarray
    values: np.ndarray


class QNetwork:
    """Feed-forward action-value network.

    Weights are initialized uniformly in +-sqrt(6 / (fan_in + fan_out)),
    biases at zero, from the given seed.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int] = LAYER_SIZES_DEFAULT,
        seed: int = 0,
        dtype: type = np.float32,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.layer_sizes = tuple(int(n) for n in layer_sizes)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(
                rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(self.dtype)
            )
            self.biases.append(np.zeros(fan_out, dtype=self.dtype))

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @classmethod
    def from_parameters(cls, weights: list[np.ndarray], biases: list[np.ndarray]) -> "QNetwork":
        """A network holding the given arrays (not copies), with no
        initialization drawn; the layer sizes and dtype are read off them."""
        net = cls.__new__(cls)
        net.layer_sizes = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        net.dtype = weights[0].dtype
        net.weights = weights
        net.biases = biases
        return net

    def copy(self) -> "QNetwork":
        return QNetwork.from_parameters(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state (in,) or a batch (B, in)."""
        q, _ = self.forward_cached(x)
        return q

    def forward_cached(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, list[np.ndarray]]]:
        """Forward pass keeping what ``backward`` needs.

        The first layer multiplies only the input columns that are nonzero
        (or NaN) in some row of the batch, ``x[:, cols] @ W1[cols]``. The
        other columns add nothing, so the NaN or infinite weights of a row
        no input reaches never enter the result. The cache is ``cols`` and
        the layer inputs, the first of them ``x[:, cols]``.
        """
        arr = np.asarray(x, dtype=self.dtype)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.shape[1] != self.n_inputs:
            raise ValueError(f"expected input width {self.n_inputs}, got {arr.shape[1]}")
        cols = np.flatnonzero(arr.any(axis=0))
        h = arr[:, cols]
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

        Weight gradients are ``RowGrad``s. The first layer's holds only the
        rows of the input columns the forward pass multiplied, so its dense
        (n_inputs, width) gradient is never built; every other layer's holds
        all its rows. Bias gradients are plain arrays.
        """
        cols, activations = cache
        delta = np.asarray(dq, dtype=self.dtype)
        if delta.ndim == 1:
            delta = delta[None, :]
        out: list[RowGrad | np.ndarray] = []
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = activations[i]
            rows = cols if i == 0 else np.arange(a_prev.shape[1])
            out = [RowGrad(rows, a_prev.T @ delta), delta.sum(axis=0)] + out
            if i > 0:
                delta = (delta @ self.weights[i].T) * (activations[i] > 0)
        return out

    def check_finite(self, rows: Sequence[np.ndarray | slice] | None = None) -> None:
        """Raise ``NumericalError`` on a non-finite parameter.

        ``rows``, as ``AdamState.step`` returns it, limits the check to the
        rows a step wrote, one index per parameter. Without it every
        parameter is checked whole.
        """
        params = self.parameters()
        for p, r in zip(params, rows if rows is not None else [slice(None)] * len(params)):
            part = p[r]
            if not np.isfinite(part).all():
                raise NumericalError(
                    f"non-finite parameter detected (shape {p.shape}, "
                    f"min {np.nanmin(part)}, max {np.nanmax(part)})"
                )


class AdamState:
    """First/second moment accumulators mirroring a network's parameters.

    The update is row-sparse and exact. The hashed state vector has about
    ten nonzeros, so most rows of the first weight matrix never see a
    nonzero gradient; such a row has m = v = g = 0, and the dense update
    there is lr * 0 / (0 + eps) = 0. Each 2-D parameter therefore keeps a
    "live" mask of the rows that ever had a nonzero (or NaN) gradient and
    runs Adam only on those. A live row stays live, so its moments keep
    decaying exactly as in the dense update (unlike lazy or sparse Adam
    variants, which skip that decay). Gradients arrive as ``RowGrad``s, so
    the rows a step does not give read as zero without being built.
    """

    def __init__(self, net: QNetwork):
        self.m = [np.zeros_like(p) for p in net.parameters()]
        self.v = [np.zeros_like(p) for p in net.parameters()]
        self.t = 0

    # Assigning m or v (as a checkpoint load does) rebuilds the live masks
    # from the moments on the next step.
    @property
    def m(self) -> list[np.ndarray]:
        return self._m

    @m.setter
    def m(self, value: list[np.ndarray]) -> None:
        self._m = value
        self._live = None

    @property
    def v(self) -> list[np.ndarray]:
        return self._v

    @v.setter
    def v(self, value: list[np.ndarray]) -> None:
        self._v = value
        self._live = None

    def step(
        self, params: list[np.ndarray], grads: list[RowGrad | np.ndarray], lr: float
    ) -> list[np.ndarray | slice]:
        """One Adam step. A 2-D parameter's gradient is a ``RowGrad``, a 1-D
        one's a plain array.

        Returns, per parameter, the rows the step wrote, for
        ``QNetwork.check_finite``: the live rows of a matrix (a slice when
        every row is live), the whole of a vector.
        """
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient count mismatch")
        if self._live is None:
            self._live = [_moment_rows(m, v) if m.ndim == 2 else None for m, v in zip(self._m, self._v)]
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        written: list[np.ndarray | slice] = []
        for p, g, m, v, live in zip(params, grads, self._m, self._v, self._live):
            if live is None:
                _adam_update(p, g.astype(p.dtype, copy=False), m, v, lr, b1t, b2t)
                written.append(slice(None))
                continue
            rows, values = g
            values = values.astype(p.dtype, copy=False)
            live[rows] |= values.any(axis=1)
            upd = np.flatnonzero(live)
            # the live rows' gradient: zero but where ``rows`` gives a value
            # (a given row that is not live holds only zeros; it changes nothing)
            given = live[rows]
            g_upd = np.zeros((len(upd), p.shape[1]), dtype=p.dtype)
            g_upd[np.searchsorted(upd, rows[given])] = values[given]
            if len(upd) == len(live):
                upd = slice(None)  # every row live: update views in place
            p_u, m_u, v_u = p[upd], m[upd], v[upd]
            _adam_update(p_u, g_upd, m_u, v_u, lr, b1t, b2t)
            p[upd], m[upd], v[upd] = p_u, m_u, v_u
            written.append(upd)
        return written


def _moment_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows whose moments are not all +0.0: the only rows a step with a zero
    gradient can change (a dense step turns a -0.0 moment into +0.0)."""
    return (np.signbit(m) | (m != 0) | (v != 0)).any(axis=1)


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
