"""Run configuration: sectioned key=value files with strict key checking.

Every key has a default, so an empty file is a valid configuration.  Unknown
sections or keys are rejected rather than ignored; a silently dropped
tolerance would change what a run certifies.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

from .clock import Order

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config",
           "SUITE_NAMES", "WEIGHT_IDS", "TOLERANCE_DEFAULTS"]

SUITE_NAMES = ("calculus", "spaces", "clock", "semigroup", "drift-diffusion",
               "transport", "dynamics", "all")

WEIGHT_IDS = ("unit", "exp_decay", "gaussian")

TOLERANCE_DEFAULTS = {
    "clock_roundtrip": 1e-13,
    "clock_additivity": 1e-13,
    "power_rule": 1e-12,
    "fundamental_identity": 1e-8,
    "classical_reduction": 1e-12,
    "quadrature_factor": 100.0,
    "isometry": 1e-10,
    "unitarity": 1e-10,
    "cauchy_schwarz": 1e-12,
    "exp_oracle": 1e-12,
    "law": 1e-11,
    "generator_match": 1e-6,
    "orbit_oracle": 1e-6,
    "orbit_reduction": 1e-8,
    "strong_continuity": 0.1,
    "dissipativity": 1e-12,
    "resolvent_slack": 1e-10,
    "contraction_slack": 1e-10,
    "transfer": 1e-14,
    "conjugacy_order": 1.5,
    "delta_one_exact": 1e-12,
    "eigen_factor": 10.0,
    "confluent_match": 1e-4,
    "derivative_identity": 1e-8,
    "transport_pointwise": 1e-12,
    "transport_pde": 1e-6,
    "analyticity": 1e-8,
    "gram_min": 1e-10,
    "decay": 1e-12,
    "periodic": 1e-9,
    "invariance": 1e-13,
}

# section -> key -> (type tag, default); the single source of truth for
# what a configuration file may contain
_SCHEMA = {
    "run": {
        "suite": ("str", "all"),
        "seed": ("int", 0),
        "out": ("str", "runs"),
    },
    "orders": {
        "delta_list": ("float_list", (0.3, 0.5, 0.7, 1.0)),
    },
    "drift_diffusion": {
        "a": ("float", 1.0),
        "b": ("float", 1.0),
        "c": ("float", 0.4),
        "delta": ("float", 0.5),
    },
    "transport": {
        "alpha": ("float", 0.5),
        "weight": ("str", "exp_decay"),
    },
    "grids": {
        "n_list": ("int_list", (64, 128, 256)),
        "n_resolvent": ("int", 128),
        "n_eigen": ("int", 256),
    },
    "tolerances": {key: ("float", val) for key, val in TOLERANCE_DEFAULTS.items()},
    "sweep": {
        "delta_list": ("float_list", (0.4, 0.7, 1.0)),
        "n_list": ("int_list", (32, 64)),
    },
}


class ConfigError(ValueError):
    """Malformed or out-of-contract configuration input."""


@dataclass(frozen=True)
class RunConfig:
    suite: str
    seed: int
    out_dir: str
    delta_list: tuple
    dd_a: float
    dd_b: float
    dd_c: float
    dd_delta: float
    transport_alpha: float
    transport_weight: str
    n_list: tuple
    n_resolvent: int
    n_eigen: int
    tolerances: Mapping[str, float]
    sweep_delta_list: tuple
    sweep_n_list: tuple

    def __post_init__(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ConfigError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITE_NAMES)}")
        if self.transport_weight not in WEIGHT_IDS:
            raise ConfigError(
                f"unknown weight {self.transport_weight!r}; "
                f"choose from {', '.join(WEIGHT_IDS)}")
        for d in (*self.delta_list, self.dd_delta, self.transport_alpha,
                  *self.sweep_delta_list):
            try:
                Order(d)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        for n in (*self.n_list, self.n_resolvent, self.n_eigen, *self.sweep_n_list):
            if n < 16:
                raise ConfigError(f"grid sizes must be >= 16, got {n}")
        if not self.delta_list or not self.n_list:
            raise ConfigError("delta_list and n_list must be nonempty")
        # each entry gets its own check ids or sweep rows; a repeat would
        # write the same id or row twice
        for name, values in (("[orders] delta_list", self.delta_list),
                             ("[grids] n_list", self.n_list),
                             ("[sweep] delta_list", self.sweep_delta_list),
                             ("[sweep] n_list", self.sweep_n_list)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} has repeated entries: {values}")
        for key in TOLERANCE_DEFAULTS:
            if not 0.0 <= self.tolerances[key] < math.inf:
                raise ConfigError(f"tolerance {key} must be finite and "
                                  f"nonnegative, got {self.tolerances[key]}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for name, value in (("a", self.dd_a), ("b", self.dd_b), ("c", self.dd_c)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"[drift_diffusion] {name} must be finite and "
                                  f"positive, got {value}")

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    def with_overrides(self, out_dir=None, seed=None) -> "RunConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=str(out_dir))
        if seed is not None:
            cfg = replace(cfg, seed=int(seed))
        return cfg


def _convert(section: str, key: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "str":
            return raw
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "float_list":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if tag == "int_list":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {tag}") from None
    raise AssertionError(f"unhandled tag {tag}")


def _build(values: dict) -> RunConfig:
    return RunConfig(
        suite=values["run"]["suite"],
        seed=values["run"]["seed"],
        out_dir=values["run"]["out"],
        delta_list=values["orders"]["delta_list"],
        dd_a=values["drift_diffusion"]["a"],
        dd_b=values["drift_diffusion"]["b"],
        dd_c=values["drift_diffusion"]["c"],
        dd_delta=values["drift_diffusion"]["delta"],
        transport_alpha=values["transport"]["alpha"],
        transport_weight=values["transport"]["weight"],
        n_list=values["grids"]["n_list"],
        n_resolvent=values["grids"]["n_resolvent"],
        n_eigen=values["grids"]["n_eigen"],
        tolerances=MappingProxyType(dict(values["tolerances"])),
        sweep_delta_list=values["sweep"]["delta_list"],
        sweep_n_list=values["sweep"]["n_list"],
    )


def default_config() -> RunConfig:
    values = {sec: {key: default for key, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    return _build(values)


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    values = {sec: {key: default for key, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]; "
                f"known sections: {', '.join(sorted(_SCHEMA))}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"known keys: {', '.join(sorted(_SCHEMA[section]))}")
            tag, _ = _SCHEMA[section][key]
            values[section][key] = _convert(section, key, tag, raw)
    return _build(values)
