"""Adam-style moment-based updates on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    """First/second moment accumulators for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """Apply one bias-corrected Adam update to ``params``, ``state.m`` and
    ``state.v`` in place; ``params`` may be a stack of rows on one step."""
    state.step += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    state.v *= BETA2
    state.v += (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.step)
    v_hat = state.v / (1.0 - BETA2**state.step)
    params -= lr * m_hat / (np.sqrt(v_hat) + EPS)
