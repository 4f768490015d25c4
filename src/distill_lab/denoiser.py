"""Class-conditional noise predictor over 2D points.

A small tanh MLP with hand-written forward/backward passes over one flat
float64 parameter vector. Inputs are the noisy point, a sinusoidal embedding
of the integer timestep, and a one-hot class embedding that reserves label 0
for the null condition used by classifier-free guidance.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, MismatchError
from .flatfile import header_field, read_flat_file, write_flat_file
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule

__all__ = [
    "NULL_LABEL",
    "NUM_CLASSES",
    "POINT_DIM",
    "ClassSpec",
    "TrainConfig",
    "check_class_separation",
    "check_dataset_size",
    "Denoiser",
    "LabelPlan",
    "denoiser_arch",
    "sample_two_marginal_dataset",
    "eps",
    "time_embedding",
    "loss_and_grad",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

NULL_LABEL = 0
NUM_CLASSES = 2  # class labels are 1 .. NUM_CLASSES, beside the null label
POINT_DIM = 2

# Tail mass of either class beyond the midpoint plane must stay below this
# for the two marginals to count as separated.
_MAX_OVERLAP_TAIL = 1e-3

# Minibatch rows train builds in one pass; 4,096 ran no faster and held more memory.
_BLOCK_ROWS = 1024

# Row k is the one-hot label column block of label k; read-only, since
# scalar labels read a view of it.
_ONE_HOT = np.eye(NUM_CLASSES + 1)
_ONE_HOT.flags.writeable = False


@dataclass(frozen=True)
class ClassSpec:
    """Isotropic Gaussian generator for one class."""

    mean: np.ndarray
    std: float

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points of the class, shape (n, 2): mean + std * standard normal.
        ``sample(rng, 1)[0]`` has the bits of a ``(2,)`` draw."""
        return np.asarray(self.mean) + self.std * rng.standard_normal((n, POINT_DIM))


@dataclass(frozen=True)
class TrainConfig:
    """Denoiser training hyperparameters and the model's sizes: the
    ``[training]`` section of the experiment config."""

    steps: int = 4000
    batch_size: int = 128
    learning_rate: float = 1e-3
    null_cond_prob: float = 0.1
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    t_embed_dim: int = 8

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"training steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.null_cond_prob < 1.0:
            raise ValueError(f"null_cond_prob must be in [0, 1), got {self.null_cond_prob}")
        denoiser_arch(self.t_embed_dim, self.hidden)


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
    n: int, class_params: tuple[ClassSpec, ClassSpec], seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Points (n, 2) and labels (n,), n/2 of each class in order; seeded."""
    n = int(n)
    check_dataset_size(n)
    check_class_separation(class_params)
    rng = np.random.default_rng(seed)
    half = n // 2
    points = np.empty((n, POINT_DIM))
    labels = np.empty(n, dtype=np.int64)
    for k, spec in enumerate(class_params):
        block = slice(k * half, (k + 1) * half)
        points[block] = spec.sample(rng, half)
        labels[block] = k + 1
    return points, labels


@dataclass
class Denoiser:
    """Flat-parameter tanh MLP predicting the injected noise.

    ``arch`` lists every layer width including input and output, e.g.
    (13, 64, 64, 2). ``opt_state`` is training-only bookkeeping and is not
    part of checkpoints. The model owns a time-embedding table and one
    activation scratch, an (n, width) buffer per layer input for the last
    row count n; the scratch and the parameters of ``create`` and
    :func:`load_checkpoint` start on a cache line. :func:`eps` and the
    samplers' gemm forward write their feature rows, x and the time rows
    once for both guidance halves, and hidden layers there, and return
    fresh arrays; a :class:`LabelPlan` owns its labels and one-hot columns.
    Training runs on buffers of its own, allocated per :func:`train` or
    :func:`loss_and_grad` call, and :func:`train` mutates ``params``:
    serialize all calls on one model. :func:`train` and every reverse
    chain in ``latentops`` hold the process-wide BLAS thread count at 1
    while they run.
    """

    params: np.ndarray
    arch: tuple[int, ...]
    t_embed_dim: int
    opt_state: AdamState | None = field(default=None, repr=False)
    _views: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _t_table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _scratch: tuple = field(default=(), init=False, repr=False, compare=False)
    num_classes = NUM_CLASSES  # a class attribute, not a field: every model has two classes

    @classmethod
    def create(
        cls,
        t_embed_dim: int = TrainConfig.t_embed_dim,
        hidden: tuple[int, ...] = TrainConfig.hidden,
        seed: int = 0,
        random_head: bool = False,
    ) -> "Denoiser":
        """Fresh denoiser with fan-in-scaled random hidden layers.

        The final layer is zeroed by default so an untrained model predicts
        exactly zero noise; ``random_head=True`` gives it the same
        initialization scale instead, producing a non-degenerate
        random-weight model.
        """
        arch = denoiser_arch(t_embed_dim, hidden)
        rng = np.random.default_rng(seed)
        params = _line_aligned(param_count(arch))
        params[:] = 0.0
        layers = _layer_views(params, arch)
        for w, _ in layers if random_head else layers[:-1]:
            w[:] = rng.standard_normal(w.shape) / math.sqrt(w.shape[0])
        return cls(params=params, arch=arch, t_embed_dim=t_embed_dim)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views into ``params``, rebuilt only when ``params`` is replaced."""
        owner, views = self._views
        if owner is not self.params:
            views = _layer_views(self.params, self.arch)
            self._views = (self.params, views)
        return views

    def time_rows(self, t: np.ndarray) -> np.ndarray:
        """Embedding rows of integer timesteps >= 0, read from a table that a
        larger timestep rebuilds up to the next power of two above max(t), so
        rising timesteps rebuild it once per doubling, not once per rise."""
        try:
            return self._t_table[t]
        except (IndexError, TypeError):
            size = 1 << int(np.max(t, initial=0)).bit_length()
            table = time_embedding(np.arange(size), self.t_embed_dim)
            self._t_table = table
            return table[t]

    def scratch(self, n: int) -> tuple[np.ndarray, ...]:
        """An (n, width) buffer per layer input, rebuilt whole when n changes;
        reusing them keeps repeated large batches from faulting pages in."""
        if not self._scratch or self._scratch[0].shape[0] != n:
            self._scratch = tuple(_line_aligned(n, width) for width in self.arch[:-1])
        return self._scratch


def _line_aligned(*shape: int) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte cache
    line. The per-row products run up to a third slower when the weights or
    rows start elsewhere, and a malloc'd buffer starts wherever the heap
    puts it; the bits do not depend on where it starts."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def denoiser_arch(t_embed_dim: int, hidden: tuple[int, ...]) -> tuple[int, ...]:
    """Every layer width, input and output included, of a denoiser with
    these sizes; ValueError for sizes no denoiser can have."""
    if t_embed_dim % 2 != 0 or t_embed_dim <= 0:
        raise ValueError(f"t_embed_dim must be a positive even integer, got {t_embed_dim}")
    if any(w < 1 for w in hidden):
        raise ValueError(f"hidden widths must be >= 1, got {tuple(hidden)}")
    return (POINT_DIM + t_embed_dim + NUM_CLASSES + 1, *hidden, POINT_DIM)


def param_count(arch: tuple[int, ...]) -> int:
    return sum(a * b + b for a, b in zip(arch[:-1], arch[1:]))


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
    """Input rows [x, time embedding, one-hot label], written into ``out`` if
    given. ``y`` and ``t`` are one per row, or one 0-d value for every row,
    whose embedding and one-hot row are then built once and broadcast."""
    feats = np.empty((x.shape[0], d.arch[0])) if out is None else out
    feats[:, :POINT_DIM] = x
    feats[:, POINT_DIM : POINT_DIM + d.t_embed_dim] = d.time_rows(t)
    feats[:, POINT_DIM + d.t_embed_dim :] = _ONE_HOT[y]
    return feats


def _matmul(h: np.ndarray, w: np.ndarray, per_row: bool, out=None) -> np.ndarray:
    """h @ w, written into ``out`` if given. The gemm kernel is fastest for
    large batches, but a row's bits may depend on the batch it sits in; with
    ``per_row`` each row is its own product, bitwise equal to its batch-1 value."""
    if per_row:
        return np.matmul(h[:, None, :], w, out=None if out is None else out[:, None, :])[:, 0, :]
    return np.matmul(h, w, out=out)


def _hidden(d: Denoiser, h: np.ndarray, bufs, per_row: bool = False) -> list[np.ndarray]:
    """Activations [h, *hidden layers] of the feature rows ``h``, each hidden
    layer written into its buffer in ``bufs``; see :func:`_matmul`."""
    cache = [h]
    for (w, b), buf in zip(d.layers()[:-1], bufs):
        h = _matmul(h, w, per_row, out=buf)
        h += b
        np.tanh(h, out=h)
        cache.append(h)
    return cache


def _forwards(d: Denoiser, x: np.ndarray, t: np.ndarray, onehots, per_row: bool):
    """Yield (output, activation cache) of one forward of the n rows ``x`` at
    timesteps ``t`` per block of one-hot label columns in ``onehots``. The
    rows are the model's scratch: ``x`` and the time rows are written once,
    each forward rewrites only the label columns, and each cache holds until
    the next forward on the model; see :func:`_hidden`."""
    feats, *hidden = d.scratch(x.shape[0])
    feats[:, :POINT_DIM] = x
    feats[:, POINT_DIM : POINT_DIM + d.t_embed_dim] = d.time_rows(t)
    w, b = d.layers()[-1]
    for onehot in onehots:
        feats[:, POINT_DIM + d.t_embed_dim :] = onehot
        cache = _hidden(d, feats, hidden, per_row)
        yield _matmul(cache[-1], w, per_row) + b, cache


def _forward(d: Denoiser, x: np.ndarray, y: np.ndarray, t: np.ndarray, per_row: bool = False):
    """One forward of n rows with checked labels ``y``: (output, activation cache)."""
    return next(_forwards(d, x, t, (_ONE_HOT[y],), per_row))


class _Fit:
    """Loss and parameter gradient of n training rows on buffers allocated
    once: activations, residual, cotangents, and the flat gradient (with its
    layer views), which the next call overwrites."""

    def __init__(self, d: Denoiser, n: int):
        self.hidden = [np.empty((n, w)) for w in d.arch[1:-1]]
        self.back = [np.empty((n, w)) for w in d.arch[1:-1]]
        self.resid, self.sq = np.empty((n, POINT_DIM)), np.empty((n, POINT_DIM))
        self.grad = np.empty_like(d.params)
        self.grad_layers = _layer_views(self.grad, d.arch)

    def loss(self, d: Denoiser, feats: np.ndarray, eps: np.ndarray) -> float:
        """mean_i ||eps_hat_i - eps_i||^2 over the feature rows ``feats``;
        leaves its gradient in ``self.grad``."""
        cache = _hidden(d, feats, self.hidden)
        w, b = d.layers()[-1]
        resid = _matmul(cache[-1], w, False, out=self.resid)
        resid += b
        resid -= eps
        row_sq = np.add.reduce(np.square(resid, out=self.sq), axis=1)
        loss = float(np.add.reduce(row_sq) / len(feats))
        resid *= 2.0
        resid /= len(feats)
        self.backward(d, cache, resid)
        return loss

    def backward(self, d: Denoiser, cache: list[np.ndarray], g: np.ndarray) -> np.ndarray:
        """Vector-Jacobian product of the forward pass w.r.t. the flat params,
        written into ``self.grad``; overwrites the hidden layers of ``cache``."""
        layers = d.layers()
        for k in range(len(layers) - 1, -1, -1):
            gw, gb = self.grad_layers[k]
            np.matmul(cache[k].T, g, out=gw)
            np.add.reduce(g, axis=0, out=gb)
            if k > 0:
                back, slope = self.back[k - 1], cache[k]
                np.matmul(g, layers[k][0].T, out=back)
                np.subtract(1.0, np.square(slope, out=slope), out=slope)
                g = np.multiply(back, slope, out=back)
        return self.grad


def _one_or_per_row(v, n: int, what: str) -> np.ndarray:
    v = np.asarray(v)
    if v.dtype.kind not in "iu":
        raise ValueError(f"{what} must have an integer dtype, got {v.dtype}")
    v = v.astype(np.int64, copy=False)
    if v.ndim != 0 and v.shape != (n,):
        raise ValueError(f"{what} have shape {v.shape}, expected ({n},)")
    return v


class LabelPlan:
    """The labels of n rows as int64, length n or 0-d (one for every row),
    checked once, with the one-hot label columns of their conditional
    forward laid out once (the null forward reads one shared row); ValueError
    unless they are integers in 0 (null) .. NUM_CLASSES. :func:`eps` takes a
    plan as ``y`` and builds a throwaway one from raw labels, so a caller that
    evaluates the same labels at many steps builds it once. The plan holds
    read-only copies: changing the caller's labels later does not change it.
    """

    __slots__ = ("labels", "cond")

    def __init__(self, y, n: int):
        y = _one_or_per_row(y, n, "labels")
        if y.min(initial=0) < 0 or y.max(initial=0) > NUM_CLASSES:
            raise ValueError(f"labels must lie in 0 (null) .. {NUM_CLASSES}")
        self.labels = y.copy()
        self.cond = _ONE_HOT[self.labels]
        self.labels.flags.writeable = self.cond.flags.writeable = False


def _check_rows(x: np.ndarray, y, t) -> tuple[LabelPlan, np.ndarray]:
    """The label plan of the n rows of ``x`` (``y`` is one, or raw labels)
    and their timesteps as int64, length n or 0-d; ValueError unless x is
    (n, 2), the plan fits n rows and the timesteps are integers >= 1."""
    if x.ndim != 2 or x.shape[1] != POINT_DIM:
        raise ValueError(f"x has shape {x.shape}, expected (n, {POINT_DIM})")
    n = x.shape[0]
    if not isinstance(y, LabelPlan):
        y = LabelPlan(y, n)
    elif y.labels.ndim != 0 and y.labels.shape != (n,):
        raise ValueError(f"labels have shape {y.labels.shape}, expected ({n},)")
    t = _one_or_per_row(t, n, "timesteps")
    if t.min(initial=1) < 1:
        raise ValueError(f"timesteps must be >= 1, got {int(t.min())}")
    return y, t


def _guided(d: Denoiser, x: np.ndarray, y, t, omega: float, per_row: bool) -> np.ndarray:
    """e_null + omega * (e_y - e_null) from a null and a conditional forward
    of n rows each; omega = 1 and omega = 0 run only the forward they return."""
    plan, t = _check_rows(x, y, t)
    null = _ONE_HOT[NULL_LABEL]
    if omega in (0.0, 1.0):
        return next(_forwards(d, x, t, (plan.cond if omega else null,), per_row))[0]
    (e_null, _), (e_cond, _) = _forwards(d, x, t, (null, plan.cond), per_row)
    return e_null + omega * (e_cond - e_null)


def eps(d: Denoiser, x: np.ndarray, y, t, omega: float) -> np.ndarray:
    """Guided noise predictions e_null + omega * (e_y - e_null) for n rows.

    ``x`` is (n, 2), or (2,) for one point; ``y`` and ``t`` are length-n
    label and timestep arrays (scalars broadcast), and ``y`` may be a
    :class:`LabelPlan` of the labels instead. Every output row is bitwise
    equal to the same row evaluated alone, whatever the batch holds. The
    null and conditional predictions are two per-row forwards of n rows
    over one set of feature rows, of which only the label columns change;
    omega = 1 returns the conditional prediction and omega = 0 the
    unconditional one from one forward, with no arithmetic on the endpoints.
    ValueError for any other shape of ``x``, for labels or timesteps of a
    non-integer dtype or of the wrong length, and for labels outside
    0 (null) .. NUM_CLASSES or timesteps below 1.
    """
    x = np.asarray(x, dtype=float)
    return _guided(d, x[None] if x.shape == (POINT_DIM,) else x, y, t, omega, True)


# Not exported; perfbench/selftest.py RowCounter.RULES still reads it.
def predict(d: Denoiser, x_t: np.ndarray, y: int, t: int) -> np.ndarray:
    """Conditional noise prediction for a single point; pure in all arguments."""
    return cfg_predict(d, x_t, y, t, 1.0)


# Not exported; perfbench/selftest.py reads it here and as the distill and latentops re-imports.
def cfg_predict(d: Denoiser, x_t: np.ndarray, y: int, t: int, omega: float) -> np.ndarray:
    """Guided prediction for a single point; see :func:`eps`."""
    return eps(d, x_t, y, t, omega)[0]


# Not exported; the samplers in latentops, perfbench/selftest.py and perfbench/worker.py read it.
def cfg_predict_batch(d: Denoiser, x_t: np.ndarray, y: int, t: int, omega: float) -> np.ndarray:
    """Guided prediction for an (n, 2) batch of points sharing one label and
    timestep, on the gemm forward (faster for large batches, not
    batch-invariant). The time embedding and one-hot label of one feature
    row are broadcast over the batch; ``y`` may be a :class:`LabelPlan`."""
    return _guided(d, np.asarray(x_t, dtype=float), y, t, omega, False)


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
    and so do timesteps above the schedule's T (through ``s.noised``).
    """
    plan, t = _check_rows(x0, y, t)
    fit = _Fit(d, x0.shape[0])
    loss = fit.loss(d, _features(d, s.noised(x0, t, eps), plan.labels, t), eps)
    return loss, fit.grad


def _train_step(d: Denoiser, fit: _Fit, feats: np.ndarray, eps: np.ndarray, lr: float) -> float:
    """One Adam update from the loss of the feature rows ``feats``; returns that
    pre-update loss, or raises DivergenceError, updating nothing, if non-finite."""
    loss = fit.loss(d, feats, eps)
    if not math.isfinite(loss):
        raise DivergenceError(f"training loss is non-finite ({loss})")
    if d.opt_state is None:
        d.opt_state = AdamState.for_params(d.params)
    adam_step(d.params, fit.grad, d.opt_state, lr)
    return loss


@functools.cache
def _blas_thread_fns():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when no such library is found; looked up once, at the first call."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


# The BLAS thread count is process-wide, so the holds on it are counted
# process-wide: the first hold saves the count, the last one restores it.
_blas_lock = threading.Lock()
_blas_holds = 0
_blas_restore = 0


@contextmanager
def _one_blas_thread():
    """Hold the process-wide BLAS thread count at 1 and restore the caller's
    count when the last concurrent hold ends; a no-op when no OpenBLAS is
    found. The training and sampling gemms sit between single-threaded tanh
    and bias work, through which a second thread spins: it returns far less
    wall time than the CPU it burns."""
    global _blas_holds, _blas_restore
    fns = _blas_thread_fns()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _blas_lock:
        if _blas_holds == 0:
            _blas_restore = get()
            set_(1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if _blas_holds == 0:
                set_(_blas_restore)


def train(
    d: Denoiser,
    dataset: tuple[np.ndarray, np.ndarray],
    s: NoiseSchedule,
    cfg: TrainConfig,
) -> list[float]:
    """Run ``cfg.steps`` Adam steps on minibatches drawn from the ``(points,
    labels)`` dataset; returns the per-step pre-update losses.

    A block of steps draws each step's indices, timesteps, noises and
    null-label mask in turn, then checks, noises and featurizes its rows in
    one pass. The steps run with numpy's OpenBLAS held at one thread,
    process-wide, and the caller's count is restored when ``train`` returns
    or raises; BLAS calls other threads make meanwhile run single-threaded.
    The parameters therefore do not depend on the caller's thread count.
    """
    points, labels = dataset
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    batch = min(cfg.batch_size, n)
    per_block = max(1, _BLOCK_ROWS // batch)
    fit = _Fit(d, batch)
    rows = per_block * batch
    idx, t = np.empty((2, rows), dtype=np.int64)
    noise, drop, feats = np.empty((rows, POINT_DIM)), np.empty(rows), np.empty((rows, d.arch[0]))
    block = [slice(r, r + batch) for r in range(0, rows, batch)]
    losses = []
    with _one_blas_thread():
        for first in range(0, cfg.steps, per_block):
            steps = block[: cfg.steps - first]
            for step in steps:
                idx[step] = rng.integers(0, n, size=batch)
                t[step] = rng.integers(1, s.T + 1, size=batch)
                noise[step] = rng.standard_normal((batch, POINT_DIM))
                drop[step] = rng.random(batch)
            drawn = slice(0, steps[-1].stop)
            x0 = points[idx[drawn]]
            y = np.where(drop[drawn] < cfg.null_cond_prob, NULL_LABEL, labels[idx[drawn]])
            y, t_drawn = _check_rows(x0, y, t[drawn])
            _features(d, s.noised(x0, t_drawn, noise[drawn]), y.labels, t_drawn, out=feats[drawn])
            losses += [_train_step(d, fit, feats[st], noise[st], cfg.learning_rate) for st in steps]
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
    if num_classes != NUM_CLASSES:
        raise MismatchError(f"{path}: checkpoint has {num_classes} classes, "
                            f"the lab has {NUM_CLASSES}")
    try:
        fits = arch == denoiser_arch(t_embed_dim, arch[1:-1])
    except ValueError:
        fits = False
    if not fits:
        raise MismatchError(f"{path}: arch {arch} does not fit a {t_embed_dim}-dim time embedding")
    if payload.size != param_count(arch):
        raise MismatchError(
            f"{path}: parameter payload has {payload.size} floats, arch {arch} "
            f"needs {param_count(arch)}"
        )
    params = _line_aligned(payload.size)
    params[:] = payload
    return Denoiser(params=params, arch=arch, t_embed_dim=t_embed_dim), T
