"""Parameter update rules.

Both optimizers step a parameter array ``p`` in place, elementwise, with a
gradient ``g`` of its shape: in ``fit``, the graph's ``flat`` and the
batch's gradient buffer, which NetworkGraph.backward adds into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["SgdState", "AdamState", "sgd_step", "adam_step", "apply_step"]


@dataclass
class SgdState:
    """Plain gradient descent, no momentum: p <- p - lr * g."""

    lr: float

    def __post_init__(self):
        if not self.lr > 0:
            raise ParameterError(f"learning rate must be positive, got {self.lr}")


@dataclass
class AdamState:
    """Adam with bias correction; epsilon is added outside the square root.

        t <- t + 1
        m <- beta1 * m + (1 - beta1) * g
        v <- beta2 * v + (1 - beta2) * g^2
        p <- p - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    t: int = 0
    m: np.ndarray | None = None  # both allocated like p on the first step
    v: np.ndarray | None = None

    def __post_init__(self):
        if not self.lr > 0:
            raise ParameterError(f"learning rate must be positive, got {self.lr}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 <= b < 1.0):
                raise ParameterError(f"{name} must be in [0, 1), got {b}")
        if not self.eps > 0:
            raise ParameterError(f"eps must be positive, got {self.eps}")


def sgd_step(state: SgdState, p: np.ndarray, g: np.ndarray) -> None:
    p -= state.lr * g


def adam_step(state: AdamState, p: np.ndarray, g: np.ndarray) -> None:
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * g * g
    p -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)


def apply_step(state, p: np.ndarray, g: np.ndarray) -> None:
    if isinstance(state, SgdState):
        sgd_step(state, p, g)
    elif isinstance(state, AdamState):
        adam_step(state, p, g)
    else:
        raise ParameterError(f"unknown optimizer state {type(state).__name__}")
