"""Experiment configuration: INI-style sections of key = value pairs.

Grammar (full key list in the README): one section per ExperimentConfig
field ([schedule] ... [output]); values are numbers, comma-separated
pairs/lists, or names. Unknown sections or keys are rejected with the
offending name. CLI flags override file values; --seed N sets each ``*seed``
key to N plus its default's offset from DEFAULT_MASTER_SEED (``_SEEDS``).
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import (
    ClassSpec,
    Denoiser,
    TrainConfig,
    check_class_separation,
    check_dataset_size,
    sample_two_marginal_dataset,
)
from .distill import OBJECTIVES, check_settings
from .errors import ConfigError
from .schedule import (NoiseSchedule, TimestepSubsequence, _check_count, build_linear_schedule,
                       build_subsequence)

__all__ = ["ExperimentConfig", "load_config", "DEFAULT_MASTER_SEED"]

DEFAULT_MASTER_SEED = 7


@dataclass(frozen=True)
class ScheduleConfig:
    t: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass(frozen=True)
class SubsequenceConfig:
    stride: int = 2
    lo_ratio: float = 0.02
    hi_ratio: float = 0.98


@dataclass(frozen=True)
class DatasetConfig:
    n: int = 1000
    class1_mean: tuple[float, float] = (-2.0, 0.0)
    class1_std: float = 0.5
    class2_mean: tuple[float, float] = (2.0, 0.0)
    class2_std: float = 0.5
    seed: int = DEFAULT_MASTER_SEED + 1


@dataclass(frozen=True)
class DistillConfig:
    objectives: tuple[str, ...] = OBJECTIVES
    omega: float = 7.5
    w_mode: str = "const"
    steps: int = 300
    lr: float = 0.01
    optimizer: str = "gd"
    n_runs: int = 20
    base_seed: int = DEFAULT_MASTER_SEED + 3


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    subsequence: SubsequenceConfig = field(default_factory=SubsequenceConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainConfig = TrainConfig(seed=DEFAULT_MASTER_SEED + 2)
    distill: DistillConfig = field(default_factory=DistillConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def build_schedule(self) -> NoiseSchedule:
        return build_linear_schedule(self.schedule.t, self.schedule.beta_start, self.schedule.beta_end)

    def build_subsequence(self, s: NoiseSchedule) -> TimestepSubsequence:
        return build_subsequence(
            s, self.subsequence.stride, self.subsequence.lo_ratio, self.subsequence.hi_ratio
        )

    def build_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        return sample_two_marginal_dataset(self.dataset.n, self.class_params(), self.dataset.seed)

    def build_model(self) -> Denoiser:
        """The untrained denoiser that ``train`` fits to :meth:`build_dataset`."""
        return Denoiser.create(self.training.t_embed_dim, self.training.hidden, self.training.seed)

    def class_params(self) -> tuple[ClassSpec, ClassSpec]:
        return (
            ClassSpec(mean=np.asarray(self.dataset.class1_mean), std=self.dataset.class1_std),
            ClassSpec(mean=np.asarray(self.dataset.class2_mean), std=self.dataset.class2_std),
        )


_SECTIONS = typing.get_type_hints(ExperimentConfig)
_ANNOTATIONS = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}
# every key named *seed is a component seed: (section, key, default - DEFAULT_MASTER_SEED)
_SEEDS = tuple((name, key, getattr(getattr(ExperimentConfig(), name), key) - DEFAULT_MASTER_SEED)
               for name, keys in _ANNOTATIONS.items() for key in keys if key.endswith("seed"))


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


_PARSERS = {int: int, float: _finite_float, str: str}


def _parse_value(raw: str, kind, key: str):
    raw = raw.strip()
    try:
        if kind in _PARSERS:
            return _PARSERS[kind](raw)
        # tuple-valued keys: comma-separated entries
        parse = _PARSERS[kind.__args__[0]]
        return tuple(parse(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {raw!r} ({exc})") from exc


def _coerce_section(cfg: ExperimentConfig, name: str, items: dict[str, str]):
    """cfg's section ``name`` with the file's ``items`` set; keys the file
    leaves out keep their experiment defaults."""
    known = _ANNOTATIONS[name]
    values = {}
    for key, raw in items.items():
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
        values[key] = _parse_value(raw, known[key], f"{name}.{key}")
    try:
        return replace(getattr(cfg, name), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(
    path: str | None = None,
    master_seed: int | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Load a config file (or pure defaults) and apply CLI overrides.

    ``master_seed`` sets each seed in ``_SEEDS`` to master_seed plus its
    offset, so one flag reseeds the whole experiment. Construction of the
    schedule, subsequence and class parameters is attempted immediately so
    bad values fail at parse time.
    """
    cfg = ExperimentConfig()
    if path is not None:
        # no % interpolation; [DEFAULT] is an ordinary section, so load_config rejects it
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
        )
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            message = " ".join(str(exc).split())
            raise ConfigError(f"cannot parse config file {path}: {message}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            coerced = _coerce_section(cfg, section, dict(parser.items(section)))
            cfg = replace(cfg, **{section: coerced})
    if master_seed is not None:
        for name, key, offset in _SEEDS:
            cfg = replace(cfg, **{name: replace(getattr(cfg, name), **{key: master_seed + offset})})
    if out_dir is not None:
        cfg = replace(cfg, output=OutputConfig(dir=out_dir))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    dist = cfg.distill
    try:
        s = cfg.build_schedule()
        cfg.build_subsequence(s)
        check_dataset_size(cfg.dataset.n)
        check_class_separation(cfg.class_params())
        for name, key, _ in _SEEDS:
            _check_count(getattr(getattr(cfg, name), key), f"{name}.{key}", 0)
        _check_count(dist.n_runs, "distill.n_runs", 1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not dist.objectives:
        raise ConfigError("distill.objectives must name at least one objective")
    try:
        check_settings(dist.objectives, dist.steps, dist.lr, dist.w_mode, dist.optimizer)
    except ValueError as exc:
        raise ConfigError(f"distill: {exc}") from exc
    for k, objective in enumerate(dist.objectives):
        if objective in dist.objectives[:k]:
            raise ConfigError(f"objective '{objective}' repeats in distill.objectives")
