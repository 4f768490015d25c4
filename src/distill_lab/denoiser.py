"""Class-conditional noise predictor over 2D points.

A small tanh MLP with hand-written forward/backward passes over one flat
float64 parameter vector. Inputs are the noisy point, a sinusoidal embedding
of the integer timestep, and a one-hot class embedding that reserves label 0
for the null condition used by classifier-free guidance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, MismatchError
from .flatfile import header_field, read_flat_file, write_flat_file
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule

__all__ = [
    "NULL_LABEL",
    "POINT_DIM",
    "ClassSpec",
    "TwoMarginalDataset",
    "TrainConfig",
    "check_class_separation",
    "check_dataset_size",
    "Denoiser",
    "denoiser_arch",
    "default_class_params",
    "sample_two_marginal_dataset",
    "eps",
    "predict",
    "cfg_predict",
    "cfg_predict_batch",
    "time_embedding",
    "loss_and_grad",
    "train_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

NULL_LABEL = 0
POINT_DIM = 2

# Tail mass of either class beyond the midpoint plane must stay below this
# for the two marginals to count as separated.
_MAX_OVERLAP_TAIL = 1e-3


@dataclass(frozen=True)
class ClassSpec:
    """Isotropic Gaussian generator for one class."""

    mean: np.ndarray
    std: float


@dataclass(frozen=True)
class TwoMarginalDataset:
    """Labeled 2D samples from two separated class-conditional Gaussians."""

    points: np.ndarray
    labels: np.ndarray
    class_params: tuple[ClassSpec, ClassSpec]


@dataclass(frozen=True)
class TrainConfig:
    """Denoiser training hyperparameters."""

    steps: int = 4000
    batch_size: int = 128
    learning_rate: float = 1e-3
    null_cond_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"training steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.null_cond_prob < 1.0:
            raise ValueError(f"null_cond_prob must be in [0, 1), got {self.null_cond_prob}")


def default_class_params() -> tuple[ClassSpec, ClassSpec]:
    return (
        ClassSpec(mean=np.array([-2.0, 0.0]), std=0.5),
        ClassSpec(mean=np.array([2.0, 0.0]), std=0.5),
    )


def check_class_separation(class_params: tuple[ClassSpec, ClassSpec]) -> None:
    for k, spec in enumerate(class_params):
        if spec.std <= 0.0 or not np.isfinite(spec.std):
            raise ValueError(f"class {k + 1} has degenerate std {spec.std}")
        if np.asarray(spec.mean).shape != (POINT_DIM,):
            raise ValueError(f"class {k + 1} mean must be a 2-vector")
    gap = float(np.linalg.norm(np.asarray(class_params[0].mean) - np.asarray(class_params[1].mean)))
    worst = max(spec.std for spec in class_params)
    tail = 0.5 * math.erfc(gap / (2.0 * worst) / math.sqrt(2.0))
    if tail >= _MAX_OVERLAP_TAIL:
        raise ValueError(
            f"classes overlap: tail mass {tail:.2e} beyond the midpoint exceeds {_MAX_OVERLAP_TAIL}"
        )


def check_dataset_size(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"dataset size must be an even n >= 2, got {n}")


def sample_two_marginal_dataset(
    n: int,
    class_params: tuple[ClassSpec, ClassSpec] | None = None,
    seed: int = 0,
) -> TwoMarginalDataset:
    """Draw n/2 points per class; deterministic for a fixed seed."""
    n = int(n)
    check_dataset_size(n)
    if class_params is None:
        class_params = default_class_params()
    check_class_separation(class_params)
    rng = np.random.default_rng(seed)
    half = n // 2
    points = np.empty((n, POINT_DIM))
    labels = np.empty(n, dtype=np.int64)
    for k, spec in enumerate(class_params):
        block = slice(k * half, (k + 1) * half)
        points[block] = np.asarray(spec.mean) + spec.std * rng.standard_normal((half, POINT_DIM))
        labels[block] = k + 1
    return TwoMarginalDataset(points=points, labels=labels, class_params=class_params)


@dataclass
class Denoiser:
    """Flat-parameter tanh MLP predicting the injected noise.

    ``arch`` lists every layer width including input and output, e.g.
    (13, 64, 64, 2). ``opt_state`` is training-only bookkeeping and is not
    part of checkpoints. Every forward pass, batch-invariant (:func:`eps`)
    or gemm (training and ``cfg_predict_batch``, which the samplers in
    ``latentops`` call), writes the model's activation scratch, and
    ``train_step`` mutates ``params``: serialize all calls on one model.
    """

    params: np.ndarray
    arch: tuple[int, ...]
    num_classes: int
    t_embed_dim: int
    opt_state: AdamState | None = field(default=None, repr=False)
    _views: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _t_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scratch: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        num_classes: int = 2,
        t_embed_dim: int = 8,
        hidden: tuple[int, ...] = (64, 64),
        seed: int = 0,
        random_head: bool = False,
    ) -> "Denoiser":
        """Fresh denoiser with fan-in-scaled random hidden layers.

        The final layer is zeroed by default so an untrained model predicts
        exactly zero noise; ``random_head=True`` gives it the same
        initialization scale instead, producing a non-degenerate
        random-weight model.
        """
        arch = denoiser_arch(num_classes, t_embed_dim, hidden)
        rng = np.random.default_rng(seed)
        params = np.zeros(param_count(arch))
        for (w, b), is_last in zip(_layer_views(params, arch), _last_flags(arch)):
            if not is_last or random_head:
                w[:] = rng.standard_normal(w.shape) / math.sqrt(w.shape[0])
        return cls(params=params, arch=arch, num_classes=num_classes, t_embed_dim=t_embed_dim)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into ``params``, rebuilt only when ``params`` is replaced."""
        owner, views = self._views
        if owner is not self.params:
            views = _layer_views(self.params, self.arch)
            self._views = (self.params, views)
        return views

    def time_rows(self, t: np.ndarray) -> np.ndarray:
        """Embedding rows of integer timesteps >= 0, read from a table over
        0..max(t) that is rebuilt when a larger timestep arrives."""
        try:
            return self._t_table[t]
        except (IndexError, TypeError):
            table = time_embedding(np.arange(int(np.max(t, initial=0)) + 1), self.t_embed_dim)
            self._t_table = table
            return table[t]

    def scratch(self, n: int) -> tuple[np.ndarray, ...]:
        """An (n, width) buffer per layer input, rebuilt whole when n changes;
        reusing them keeps repeated large batches from faulting pages in."""
        if not self._scratch or self._scratch[0].shape[0] != n:
            self._scratch = tuple(np.empty((n, width)) for width in self.arch[:-1])
        return self._scratch


def denoiser_arch(num_classes: int, t_embed_dim: int, hidden: tuple[int, ...]) -> tuple[int, ...]:
    """Every layer width, input and output included, of a denoiser with
    these sizes; ValueError for sizes no denoiser can have."""
    if t_embed_dim % 2 != 0 or t_embed_dim <= 0:
        raise ValueError(f"t_embed_dim must be a positive even integer, got {t_embed_dim}")
    if num_classes < 1:
        raise ValueError(f"need num_classes >= 1, got {num_classes}")
    if any(w < 1 for w in hidden):
        raise ValueError(f"hidden widths must be >= 1, got {tuple(hidden)}")
    return (POINT_DIM + t_embed_dim + num_classes + 1, *hidden, POINT_DIM)


def param_count(arch: tuple[int, ...]) -> int:
    return sum(a * b + b for a, b in zip(arch[:-1], arch[1:]))


def _last_flags(arch: tuple[int, ...]):
    n = len(arch) - 1
    return [k == n - 1 for k in range(n)]


def _layer_views(params: np.ndarray, arch: tuple[int, ...]):
    """Yield (W, b) views into the flat vector, in layer order."""
    views = []
    off = 0
    for a, b in zip(arch[:-1], arch[1:]):
        w = params[off : off + a * b].reshape(a, b)
        off += a * b
        bias = params[off : off + b]
        off += b
        views.append((w, bias))
    return views


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape (n, dim)."""
    half = dim // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    ang = np.asarray(t, dtype=float)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _features(d: Denoiser, x: np.ndarray, y: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Input rows [x, time embedding, one-hot label], written into ``out`` if given."""
    n = x.shape[0]
    feats = np.zeros((n, d.arch[0])) if out is None else out
    feats[:, :POINT_DIM] = x
    feats[:, POINT_DIM : POINT_DIM + d.t_embed_dim] = d.time_rows(t)
    feats[:, POINT_DIM + d.t_embed_dim :] = 0.0
    feats[np.arange(n), POINT_DIM + d.t_embed_dim + y] = 1.0
    return feats


def _forward(d: Denoiser, x: np.ndarray, y: np.ndarray, t: np.ndarray, per_row: bool = False):
    """Forward pass; returns (output, activation cache).

    The features and hidden layers are written into the model's scratch, so
    the cache holds only until the next ``_forward`` on that model. The gemm
    kernel is fastest for large batches, but a row's bits may depend on the
    batch it sits in. With ``per_row`` each layer is a stack of (1, k) @ (k, m)
    products, so every output row is bitwise equal to its batch-1 value.
    """
    feats, *hidden = d.scratch(x.shape[0])
    h = _features(d, x, y, t, out=feats)
    cache = [h]
    layers = d.layers()
    for (w, b), buf in zip(layers[:-1], hidden):
        if per_row:
            h = np.matmul(h[:, None, :], w, out=buf[:, None, :])[:, 0, :]
        else:
            h = np.matmul(h, w, out=buf)
        h += b
        np.tanh(h, out=h)
        cache.append(h)
    w, b = layers[-1]
    out = (h[:, None, :] @ w)[:, 0, :] if per_row else h @ w
    return out + b, cache


def _backward(d: Denoiser, cache: list[np.ndarray], cotangent: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of the forward pass w.r.t. the flat params."""
    grad = np.zeros_like(d.params)
    layers = d.layers()
    gviews = _layer_views(grad, d.arch)
    g = cotangent
    for k in range(len(layers) - 1, -1, -1):
        w, _ = layers[k]
        gw, gb = gviews[k]
        gw[:] = cache[k].T @ g
        gb[:] = g.sum(axis=0)
        if k > 0:
            g = (g @ w.T) * (1.0 - cache[k] ** 2)
    return grad


def _per_row(v, n: int, what: str) -> np.ndarray:
    v = np.asarray(v)
    if v.dtype.kind not in "iu":
        raise ValueError(f"{what} must have an integer dtype, got {v.dtype}")
    v = v.astype(np.int64, copy=False)
    if v.ndim == 0:
        return np.full(n, v)
    if v.shape != (n,):
        raise ValueError(f"{what} have shape {v.shape}, expected ({n},)")
    return v


def _check_rows(d: Denoiser, x: np.ndarray, y, t) -> tuple[np.ndarray, np.ndarray]:
    """Labels and timesteps of the n rows of ``x``, broadcast to length n;
    ValueError unless x is (n, 2), both are integers, labels lie in
    0 (null) .. num_classes and timesteps are >= 1."""
    if x.ndim != 2 or x.shape[1] != POINT_DIM:
        raise ValueError(f"x has shape {x.shape}, expected (n, {POINT_DIM})")
    n = x.shape[0]
    y = _per_row(y, n, "labels")
    t = _per_row(t, n, "timesteps")
    if y.min(initial=0) < 0 or y.max(initial=0) > d.num_classes:
        raise ValueError(f"labels must lie in 0 (null) .. {d.num_classes}")
    if t.min(initial=1) < 1:
        raise ValueError(f"timesteps must be >= 1, got {int(t.min())}")
    return y, t


def _guided(d: Denoiser, x: np.ndarray, y, t, omega: float, per_row: bool) -> np.ndarray:
    """e_null + omega * (e_y - e_null) from a null and a conditional forward
    of n rows each; omega = 1 and omega = 0 run only the forward they return."""
    y, t = _check_rows(d, x, y, t)
    if omega == 1.0:
        return _forward(d, x, y, t, per_row)[0]
    e_null = _forward(d, x, np.full(x.shape[0], NULL_LABEL), t, per_row)[0]
    if omega == 0.0:
        return e_null
    e_cond = _forward(d, x, y, t, per_row)[0]
    return e_null + omega * (e_cond - e_null)


def eps(d: Denoiser, x: np.ndarray, y, t, omega: float) -> np.ndarray:
    """Guided noise predictions e_null + omega * (e_y - e_null) for n rows.

    ``x`` is (n, 2); ``y`` and ``t`` are length-n label and timestep arrays
    (scalars broadcast). Every output row is bitwise equal to the same row
    evaluated alone, whatever the batch holds. The null and conditional
    predictions are two per-row forwards of n rows; omega = 1 returns the
    conditional prediction and omega = 0 the unconditional one from one
    forward, with no arithmetic on the endpoints.
    """
    return _guided(d, np.asarray(x, dtype=float).reshape(-1, POINT_DIM), y, t, omega, True)


def predict(d: Denoiser, x_t: np.ndarray, y: int, t: int) -> np.ndarray:
    """Conditional noise prediction for a single point; pure in all arguments."""
    return cfg_predict(d, x_t, y, t, 1.0)


def cfg_predict(d: Denoiser, x_t: np.ndarray, y: int, t: int, omega: float) -> np.ndarray:
    """Guided prediction for a single point; see :func:`eps`."""
    return eps(d, x_t, y, t, omega)[0]


def cfg_predict_batch(d: Denoiser, x_t: np.ndarray, y: int, t: int, omega: float) -> np.ndarray:
    """Guided prediction for a batch of points sharing one label and timestep,
    on the gemm forward (faster for large batches, not batch-invariant)."""
    return _guided(d, x_t, y, t, omega, False)


def loss_and_grad(
    d: Denoiser,
    s: NoiseSchedule,
    x0: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    eps: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Noise-prediction MSE and its exact parameter gradient.

    The batch loss is mean_i ||eps_hat_i - eps_i||^2 with x_t formed as
    sqrt(alpha_bar_t) x0 + sqrt(1 - alpha_bar_t) eps. Deterministic given
    the explicit (x0, y, t, eps), which is what makes finite-difference
    checks of the gradient possible. Bad rows raise ValueError as in eps,
    and so do timesteps above the schedule's T.
    """
    y, t = _check_rows(d, x0, y, t)
    if t.max(initial=1) > s.T:
        raise ValueError(f"timesteps must be <= T = {s.T}, got {int(t.max())}")
    out, cache = _forward(d, s.noised(x0, t, eps), y, t)
    resid = out - eps
    loss = float(np.mean(np.sum(resid**2, axis=1)))
    grad = _backward(d, cache, 2.0 * resid / x0.shape[0])
    return loss, grad


def train_step(
    d: Denoiser,
    batch: tuple[np.ndarray, np.ndarray],
    s: NoiseSchedule,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One noise-prediction training step; returns the pre-update loss.

    Samples per-example timesteps and noises, drops the condition to the
    null label with probability ``null_cond_prob``, and applies one Adam
    update. Mutates ``d.params`` (single-writer contract).
    """
    x0, labels = batch
    n = x0.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    t = rng.integers(1, s.T + 1, size=n)
    eps = rng.standard_normal((n, POINT_DIM))
    y = np.where(rng.random(n) < cfg.null_cond_prob, NULL_LABEL, labels)
    loss, grad = loss_and_grad(d, s, x0, y, t, eps)
    if not math.isfinite(loss):
        raise DivergenceError(f"training loss is non-finite ({loss})")
    if d.opt_state is None:
        d.opt_state = AdamState.for_params(d.params)
    adam_step(d.params, grad, d.opt_state, cfg.learning_rate)
    return loss


def train(
    d: Denoiser,
    dataset: TwoMarginalDataset,
    s: NoiseSchedule,
    cfg: TrainConfig,
) -> list[float]:
    """Run ``cfg.steps`` training steps; returns the per-step loss history."""
    rng = np.random.default_rng(cfg.seed)
    n = dataset.points.shape[0]
    losses = []
    for _ in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        losses.append(train_step(d, (dataset.points[idx], dataset.labels[idx]), s, cfg, rng))
    return losses


def save_checkpoint(d: Denoiser, path, T: int) -> None:
    """Write the model as a flat file: header (arch, num_classes,
    t_embed_dim, T) followed by the parameter vector as little-endian
    float64. ``T`` records the schedule length the model was trained on."""
    header = {
        "arch": ",".join(str(v) for v in d.arch),
        "num_classes": str(d.num_classes),
        "t_embed_dim": str(d.t_embed_dim),
        "T": str(int(T)),
    }
    write_flat_file(path, "checkpoint", header, d.params)


def load_checkpoint(path) -> tuple[Denoiser, int]:
    """Read a checkpoint; returns the model and the schedule length T."""
    kind, header, payload = read_flat_file(path)
    if kind != "checkpoint":
        raise MismatchError(f"{path}: expected a checkpoint file, found kind {kind!r}")
    arch = header_field(path, header, "arch", lambda v: tuple(int(p) for p in v.split(",")))
    num_classes = header_field(path, header, "num_classes")
    t_embed_dim = header_field(path, header, "t_embed_dim")
    T = header_field(path, header, "T")
    try:
        fits = arch == denoiser_arch(num_classes, t_embed_dim, arch[1:-1])
    except ValueError:
        fits = False
    if not fits:
        raise MismatchError(
            f"{path}: arch {arch} does not fit {num_classes} classes and a "
            f"{t_embed_dim}-dim time embedding"
        )
    if payload.size != param_count(arch):
        raise MismatchError(
            f"{path}: parameter payload has {payload.size} floats, arch {arch} "
            f"needs {param_count(arch)}"
        )
    d = Denoiser(
        params=payload.copy(),
        arch=arch,
        num_classes=num_classes,
        t_embed_dim=t_embed_dim,
    )
    return d, T
