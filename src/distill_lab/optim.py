"""Adam-style moment-based updates on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: np.ndarray, **kwargs) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), **kwargs)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """Apply one bias-corrected Adam update to ``params``, ``state.m`` and
    ``state.v`` in place; ``params`` may be a stack of rows on one step."""
    state.step += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
