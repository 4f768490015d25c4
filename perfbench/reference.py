"""Fixed reference computations, timed beside every workload pass.

The benchmark's host shares its cores. Measured on a 2-vCPU VM, the same
``invert`` pass ran 3.8-6.7 s, and whole minutes ran about 45 % slower than
others. A fixed block of numpy work of the same shape slows with it, so a
pass's time divided by the time of the reference block run right before and
after it repeats where raw seconds do not. The references do not use
``distill_lab``, so no change to the package can move them.

Each workload is divided by the reference shaped like its own work, because
the slowdowns hit them unequally: batch-1 calls are bound by the
interpreter, while the batched workload spends its time in multi-threaded
BLAS.
"""

from __future__ import annotations

import time

import numpy as np

_WIDTHS = (13, 64, 64, 2)  # the default denoiser's layer widths


class Reference:
    """One fixed block of tanh-MLP work, ``rows1`` or ``batched``."""

    def __init__(self, kind: str):
        if kind not in ("rows1", "batched"):
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self.layers = [(rng.standard_normal((a, b)) / np.sqrt(a), 0.1 * rng.standard_normal(b))
                       for a, b in zip(_WIDTHS[:-1], _WIDTHS[1:])]
        self.train_batch = rng.standard_normal((128, _WIDTHS[0]))
        self.eval_batch = rng.standard_normal((4000, _WIDTHS[0]))

    def _forward(self, x: np.ndarray) -> list[np.ndarray]:
        acts = [x]
        for w, b in self.layers[:-1]:
            acts.append(np.tanh(acts[-1] @ w + b))
        w, b = self.layers[-1]
        acts.append(acts[-1] @ w + b)
        return acts

    def _backward(self, acts: list[np.ndarray]) -> None:
        # The gradients are thrown away: only the cost of computing them counts.
        g = acts[-1]
        for k in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[k]
            acts[k].T @ g
            g.sum(axis=0)
            if k > 0:
                g = (g @ w.T) * (1.0 - acts[k] ** 2)

    def _rows1_block(self) -> None:
        """Batch-1 forwards, like ``figure2`` and ``invert-roundtrip``."""
        x = np.zeros((1, _WIDTHS[0]))
        for _ in range(20000):
            x[0, :2] = 1e-3 * self._forward(x)[-1][0]

    def _batched_block(self) -> None:
        """Batch-128 forward+backward, then batch-4000 forwards, in the
        proportions of ``train`` and ``sdedit-demo``."""
        for _ in range(1000):
            self._backward(self._forward(self.train_batch))
        for _ in range(20):
            self._forward(self.eval_batch)

    def run(self) -> tuple[float, float]:
        """Wall and process CPU seconds of one block."""
        block = self._rows1_block if self.kind == "rows1" else self._batched_block
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        block()
        return time.perf_counter() - start_wall, time.process_time() - start_cpu
