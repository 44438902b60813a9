"""Multi-layer perceptron with hand-rolled backpropagation and Adam.

The production value network is shaped 1536 -> 64 -> 64 -> 12 (rectifier
hidden layers, linear output). Everything here is plain numpy so a single
forward/backward pair can be checked against finite differences and the
whole training loop stays bit-reproducible. Parameters default to float32
so checkpoints round-trip exactly; tests instantiate float64 copies when
they need headroom for numerical differentiation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericalError

LAYER_SIZES_DEFAULT: tuple[int, ...] = (1536, 64, 64, 12)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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

    def copy(self) -> "QNetwork":
        clone = QNetwork.__new__(QNetwork)
        clone.layer_sizes = self.layer_sizes
        clone.dtype = self.dtype
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state (in,) or a batch (B, in)."""
        q, _ = self.forward_cached(x)
        return q

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping post-activation layer inputs for backprop."""
        arr = np.asarray(x, dtype=self.dtype)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.shape[1] != self.n_inputs:
            raise ValueError(f"expected input width {self.n_inputs}, got {arr.shape[1]}")
        activations = [arr]
        h = arr
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.maximum(z, 0)
            activations.append(h)
        q = activations[-1]
        return (q[0] if squeeze else q), activations

    def backward(
        self, activations: list[np.ndarray], dq: np.ndarray
    ) -> list[np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(q), in parameters() order."""
        delta = np.asarray(dq, dtype=self.dtype)
        if delta.ndim == 1:
            delta = delta[None, :]
        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = activations[i]
            grads_w[i] = a_prev.T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (activations[i] > 0)
        out: list[np.ndarray] = []
        for gw, gb in zip(grads_w, grads_b):
            out.append(gw)
            out.append(gb)
        return out

    def check_finite(self) -> None:
        for p in self.parameters():
            if not np.all(np.isfinite(p)):
                raise NumericalError(
                    f"non-finite parameter detected (shape {p.shape}, "
                    f"min {np.nanmin(p)}, max {np.nanmax(p)})"
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
    variants, which skip that decay).
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

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient count mismatch")
        if self._live is None:
            self._live = [_moment_rows(m, v) if m.ndim == 2 else None for m, v in zip(self._m, self._v)]
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v, live in zip(params, grads, self._m, self._v, self._live):
            g = g.astype(p.dtype, copy=False)
            if live is not None:
                live |= g.any(axis=1)
            if live is None or live.all():
                _adam_update(p, g, m, v, lr, b1t, b2t)
                continue
            rows = np.flatnonzero(live)
            p_r, m_r, v_r = p[rows], m[rows], v[rows]
            _adam_update(p_r, g[rows], m_r, v_r, lr, b1t, b2t)
            p[rows], m[rows], v[rows] = p_r, m_r, v_r


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
