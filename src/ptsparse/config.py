"""Flat key=value experiment configuration with schema validation.

Lines are ``key = value``; ``#`` starts a comment. Every key must be in the
schema. CLI ``--override key=value`` entries are applied on top.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .nn.presets import PRESETS
from .sparsity import NMPattern


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 1."""


def _bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _int_list(s: str):
    return tuple(int(v) for v in s.split(",") if v.strip())


METHODS = ("unipts", "pot-baseline", "erk+dst", "uniform+dst", "oneshot")


@dataclass(frozen=True)
class ExperimentConfig:
    # data
    dataset: str = "synthetic"              # synthetic | idx
    classes: int = 10
    image_size: int = 16
    train_size: int = 4096
    eval_size: int = 1024
    data_blobs: int = 24
    data_seed: int = 0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_eval_images: str = ""
    idx_eval_labels: str = ""
    # teacher
    preset: str = "convnet-small"           # trained when no teacher_checkpoint is set
    teacher_checkpoint: str = ""
    teacher_epochs: int = 4
    # calibration
    calib_size: int = 1024
    # sparsity target
    sparsity: float = 0.9
    nm_pattern: str = ""                    # e.g. "2:4"; mutually exclusive with sparsity
    exclude_layers: tuple = ()
    # method / pipeline
    method: str = "unipts"
    seeds: tuple = (0,)
    out_dir: str = "runs"
    record_timing: bool = False
    # search
    population: int = 32
    generations: int = 20
    elites: int = 2
    tournament: int = 4
    noise_std: float = 0.1                  # x the std of each input unit of layer 0
    # training
    iterations: int = 16000
    batch_size: int = 64
    lr: float = 0.01
    alpha: float = 3e-5                     # pruned-weight decay
    delta_t: int = 1                        # mask refresh interval
    gamma: float = 0.99                     # 1.0: plain KL
    metrics_every: int = 200

    def __post_init__(self) -> None:
        """Every rule that reads only the settings, those of the stages the
        method runs among them; ConfigError if one fails."""
        if self.method not in METHODS:
            raise ConfigError(f"method {self.method!r} not in {METHODS}")
        if self.dataset not in ("synthetic", "idx"):
            raise ConfigError(f"dataset {self.dataset!r} must be synthetic or idx")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset {self.preset!r} not in {PRESETS}")
        if self.nm_pattern:
            try:
                nm = NMPattern.parse(self.nm_pattern)
            except ValueError as exc:
                raise ConfigError(f"bad nm_pattern {self.nm_pattern!r}") from exc
            if not nm.n < nm.m:
                raise ConfigError(f"bad nm_pattern {self.nm_pattern!r} (need n < m)")
        elif not 0.0 < self.sparsity < 1.0:  # so the search's P < P_e <= 1 holds
            raise ConfigError(f"sparsity {self.sparsity} outside (0,1)")
        # each integer setting's least value, the synthetic data's and the
        # search's only when they are used; oneshot takes 0 steps, whatever
        # its iterations
        least = {"teacher_epochs": 0, "data_seed": 0, "seeds": 0, "iterations": 0,
                 "batch_size": 1, "delta_t": 1, "metrics_every": 1}
        if self.dataset == "synthetic":
            least.update(classes=1, image_size=1, train_size=1, eval_size=1, data_blobs=1)
        if self.searches:
            least.update(population=2, generations=0, tournament=1)
        for key, bound in least.items():
            value = (min(self.seeds, default=0) if key == "seeds"
                     else self.steps if key == "iterations" else getattr(self, key))
            if value < bound:
                raise ConfigError(f"{key} must be >= {bound}")
        for key in ("alpha", "lr", "noise_std") if self.searches else ("alpha", "lr"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{key} must be >= 0 and finite, got {value}")
        if self.calib_size < 0 or (self.dataset == "synthetic"
                                   and self.calib_size > self.train_size):
            raise ConfigError(f"calib_size {self.calib_size} outside 0..{self.train_size} "
                              "(the train split)")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if len(set(self.seeds)) < len(self.seeds):  # each seed writes its own seed<k>/
            raise ConfigError(f"seeds {self.seeds} repeat a seed")
        if self.searches and not 1 <= self.elites <= self.population:
            raise ConfigError("elites must be in [1, population]")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma {self.gamma} outside (0,1]")
        if self.calib_size == 0 and (self.searches or self.steps):
            raise ConfigError("calib_size 0: the search and DST steps need calibration rows")

    def validate(self) -> "ExperimentConfig":
        """The checks that files exist: the IDX paths, the teacher checkpoint
        and out_dir; returns self."""
        if self.dataset == "idx":
            for key in ("idx_train_images", "idx_train_labels",
                        "idx_eval_images", "idx_eval_labels"):
                path = getattr(self, key)
                if not path or not os.path.exists(path):
                    raise ConfigError(f"{key} missing or not found: {path!r}")
        if self.teacher_checkpoint and not os.path.exists(self.teacher_checkpoint):
            raise ConfigError(f"teacher_checkpoint not found: {self.teacher_checkpoint!r}")
        existing = os.path.abspath(self.out_dir)
        while not os.path.exists(existing):  # a file's first write makes the rest
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"out_dir {self.out_dir!r}: {existing!r} is not a directory")
        return self

    @property
    def reconstructs(self) -> bool:
        """pot-baseline trains on layer outputs, the rest on the base-decayed KL."""
        return self.method == "pot-baseline"

    @property
    def searches(self) -> bool:
        """unipts searches its distribution, unless its masks are N:M."""
        return self.method == "unipts" and not self.nm_pattern

    @property
    def steps(self) -> int:
        """The training steps: oneshot takes none."""
        return 0 if self.method == "oneshot" else self.iterations


# field annotations are strings (postponed evaluation); other types parse as str
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool, "tuple": _int_list}


def parse_config(path: str | None = None, overrides=()) -> ExperimentConfig:
    pairs = {}
    if path:
        try:  # the lines decode as they are read
            with open(path, encoding="utf-8") as f:
                for ln, raw in enumerate(f, 1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{ln}: expected key = value")
                    key, value = (s.strip() for s in line.split("=", 1))
                    pairs[key] = value
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} not found or unreadable: {exc}") from exc
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} must be key=value")
        key, value = (s.strip() for s in ov.split("=", 1))
        pairs[key] = value

    types = {f.name: str(f.type) for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in pairs.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS.get(types[key], str)(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    return ExperimentConfig(**kwargs).validate()
