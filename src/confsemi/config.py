"""Run configuration: sectioned key=value files with strict key checking.

Each key is declared once, on the RunConfig field it sets, with its section
and default; [tolerances] is keyed by TOLERANCE_DEFAULTS.  Every key has a
default, so an empty file is a valid configuration.  Unknown sections or keys
are rejected rather than ignored; a silently dropped tolerance would change
what a run certifies.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping

from .clock import Order

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config",
           "SUITE_NAMES", "WEIGHT_IDS", "TOLERANCE_DEFAULTS", "ORDER_FLOOR",
           "COEFFICIENT_RANGE"]

SUITE_NAMES = ("calculus", "spaces", "clock", "semigroup", "drift-diffusion",
               "transport", "dynamics", "all")

WEIGHT_IDS = ("unit", "exp_decay", "gaussian")

# smallest order a run accepts: below it the generator-quotient times
# (delta 2**-(k+1))**(1/delta), k < 8, underflow to 0 (from k = 4 at delta =
# 0.01) and the semigroup suite ends in a traceback; the graded nodes
# xi**(1/delta) underflow on fine grids too (at delta = 0.01, n = 2048)
ORDER_FLOOR = 0.02

# closed range of each [drift_diffusion] coefficient: the eigenfunctions'
# characteristic roots grow like sqrt(12/a) and b/a, and outside it their
# exponentials and powers leave double range and runs end in tracebacks
COEFFICIENT_RANGE = (1e-4, 1e6)

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


class ConfigError(ValueError):
    """Malformed or out-of-contract configuration input."""


def _ini(section: str, key: str, default):
    """A RunConfig field that [section] key sets in a configuration file.

    The default also fixes how the file's text is read: as its scalar type,
    or as a comma-separated list of its first entry's type.
    """
    return field(default=default, metadata={"ini": (section, key)})


@dataclass(frozen=True)
class RunConfig:
    suite: str = _ini("run", "suite", "all")
    seed: int = _ini("run", "seed", 0)
    out_dir: str = _ini("run", "out", "runs")
    delta_list: tuple = _ini("orders", "delta_list", (0.3, 0.5, 0.7, 1.0))
    dd_a: float = _ini("drift_diffusion", "a", 1.0)
    dd_b: float = _ini("drift_diffusion", "b", 1.0)
    dd_c: float = _ini("drift_diffusion", "c", 0.4)
    dd_delta: float = _ini("drift_diffusion", "delta", 0.5)
    transport_alpha: float = _ini("transport", "alpha", 0.5)
    transport_weight: str = _ini("transport", "weight", "exp_decay")
    n_list: tuple = _ini("grids", "n_list", (64, 128, 256))
    n_resolvent: int = _ini("grids", "n_resolvent", 128)
    n_eigen: int = _ini("grids", "n_eigen", 256)
    # keyed in [tolerances] by TOLERANCE_DEFAULTS
    tolerances: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType(dict(TOLERANCE_DEFAULTS)))
    sweep_delta_list: tuple = _ini("sweep", "delta_list", (0.4, 0.7, 1.0))
    sweep_n_list: tuple = _ini("sweep", "n_list", (32, 64))

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
            if d < ORDER_FLOOR:
                raise ConfigError(
                    f"orders below {ORDER_FLOOR} are not supported, got {d}")
        for n in (*self.n_list, self.n_resolvent, self.n_eigen, *self.sweep_n_list):
            if n < 16:
                raise ConfigError(f"grid sizes must be >= 16, got {n}")
        for name, values in (("[orders] delta_list", self.delta_list),
                             ("[sweep] delta_list", self.sweep_delta_list),
                             ("[sweep] n_list", self.sweep_n_list)):
            if not values:
                raise ConfigError(f"{name} must be nonempty")
        if len(self.n_list) < 2:
            raise ConfigError(
                f"[grids] n_list needs at least two grid sizes, got "
                f"{self.n_list}: the conjugacy order compares successive sizes")
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
        lo, hi = COEFFICIENT_RANGE
        for name, value in (("a", self.dd_a), ("b", self.dd_b), ("c", self.dd_c)):
            if not lo <= value <= hi:
                raise ConfigError(f"[drift_diffusion] {name} must lie in "
                                  f"[{lo:g}, {hi:g}], got {value}")

    def tol(self, name: str) -> float:
        return self.tolerances[name]


def _convert(section: str, key: str, default, raw: str):
    """raw read as default's type: a scalar, or a comma-separated tuple."""
    raw = raw.strip()
    listed = isinstance(default, tuple)
    kind = type(default[0]) if listed else type(default)
    try:
        if listed:
            return tuple(kind(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError:
        tag = f"{kind.__name__}_list" if listed else kind.__name__
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {tag}") from None


def default_config() -> RunConfig:
    return RunConfig()


def parse_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    # section -> key -> default of every key a file may set
    known = {"tolerances": TOLERANCE_DEFAULTS}
    names = {}
    for f in fields(RunConfig):
        if "ini" in f.metadata:
            section, key = f.metadata["ini"]
            known.setdefault(section, {})[key] = f.default
            names[section, key] = f.name
    settings, tolerances = {}, dict(TOLERANCE_DEFAULTS)
    for section in parser.sections():
        if section not in known:
            raise ConfigError(
                f"unknown section [{section}]; "
                f"known sections: {', '.join(sorted(known))}")
        for key, raw in parser.items(section):
            if key not in known[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; "
                    f"known keys: {', '.join(sorted(known[section]))}")
            value = _convert(section, key, known[section][key], raw)
            if section == "tolerances":
                tolerances[key] = value
            else:
                settings[names[section, key]] = value
    return RunConfig(**settings, tolerances=MappingProxyType(tolerances))
