"""Workload definitions: generated configs, CLI invocations and expected outputs.

Each workload is a list of passes; a pass is the list of CLI invocations that
together cover the workload once.  The benchmark seed picks the `--seed`
values handed to the CLI (and, for the seed-free sweep, the order in which the
lists are written), so the program only ever sees generated config files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ANALYTIC_SUITES = ("calculus", "spaces", "clock", "transport", "dynamics")
SWEEP_COLUMNS = ("delta", "n", "a", "b", "c", "conjugacy_residual",
                 "law_residual", "correspondence_residual")


@dataclass(frozen=True)
class Params:
    """The config values that decide which check ids a run must report.

    The defaults are the program's own defaults for these keys.
    """

    deltas: tuple = (0.3, 0.5, 0.7, 1.0)
    n_list: tuple = (64, 128, 256)
    n_resolvent: int = 128
    sweep_deltas: tuple = ()
    sweep_n_list: tuple = ()


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `run --suite <suite>` or, with suite None, `sweep`."""

    config: str
    suite: str | None
    seed: int | None

    @property
    def key(self) -> str:
        if self.suite is None:
            return f"{self.config}/sweep"
        return f"{self.config}/{self.suite}/seed={self.seed}"

    def argv(self, config_path: str, out_dir: str) -> list:
        if self.suite is None:
            return ["sweep", "--config", config_path, "--out", out_dir]
        return ["run", "--suite", self.suite, "--config", config_path,
                "--out", out_dir, "--seed", str(self.seed)]


@dataclass(frozen=True)
class Workload:
    configs: dict   # config name -> (file text, Params)
    passes: tuple   # tuple of tuples of Job


def _cli_seeds(name: str, seed: int, count: int) -> list:
    return random.Random(f"{name}:{seed}").sample(range(1, 1_000_000), count)


def _fmt(values) -> str:
    return ", ".join(str(v) for v in values)


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload `name` for benchmark seed `seed` in checkout `root`."""
    if name == "default-all":
        # the shipped default config, the path every user runs
        text = (root / "configs" / "default.ini").read_text(encoding="utf-8")
        configs = {"default": (text, Params())}
        passes = tuple((Job("default", "all", s),)
                       for s in _cli_seeds(name, seed, 3))
    elif name == "fine-grid":
        params = Params(n_list=(128, 256, 512), n_resolvent=512)
        text = (f"[grids]\nn_list = {_fmt(params.n_list)}\n"
                f"n_resolvent = {params.n_resolvent}\n")
        configs = {"fine": (text, params)}
        (s,) = _cli_seeds(name, seed, 1)
        passes = ((Job("fine", "drift-diffusion", s),
                   Job("fine", "semigroup", s)),)
    elif name == "sweep-grid":
        deltas = [0.3, 0.4, 0.5, 0.7, 0.85, 1.0]
        ns = [32, 64, 128, 256]
        # the sweep takes no seed; the seed shuffles the lists instead, and
        # the CLI must still write its rows in sorted (delta, n) order
        rng = random.Random(f"{name}:{seed}")
        rng.shuffle(deltas)
        rng.shuffle(ns)
        params = Params(sweep_deltas=tuple(sorted(deltas)),
                        sweep_n_list=tuple(sorted(ns)))
        text = f"[sweep]\ndelta_list = {_fmt(deltas)}\nn_list = {_fmt(ns)}\n"
        configs = {"sweep": (text, params)}
        passes = ((Job("sweep", None, None),),)
    elif name == "analytic-orders":
        params = Params(deltas=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0))
        text = f"[orders]\ndelta_list = {_fmt(params.deltas)}\n"
        configs = {"orders": (text, params)}
        passes = tuple(tuple(Job("orders", suite, s) for suite in ANALYTIC_SUITES)
                       for s in _cli_seeds(name, seed, 6))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(configs=configs, passes=passes)


NAMES = ("default-all", "fine-grid", "sweep-grid", "analytic-orders")


# ---------------------------------------------------------- expected outputs
#
# The id scheme below is written out independently of confsemi.suites, so a
# check that silently stops reporting shows up as a missing id.

def _ids_calculus(p: Params) -> list:
    kinds = ("power_rule", "limit_quotient", "derivative_of_integral",
             "integral_of_derivative", "iterated_second")
    return ([f"calculus.{k}[delta={d}]" for d in p.deltas for k in kinds]
            + ["calculus.classical_reduction[delta=1.0]",
               "calculus.quadrature_refinement[delta=0.5]"])


def _ids_spaces(p: Params) -> list:
    kinds = ("time_isometry", "spatial_unitarity", "cauchy_schwarz",
             "orthogonal_pair", "sobolev_layers")
    return [f"spaces.{k}[delta={d}]" for d in p.deltas for k in kinds]


def _ids_clock(p: Params) -> list:
    kinds = ("roundtrip", "monotone", "additivity")
    return ([f"clock.{k}[delta={d}]" for d in p.deltas for k in kinds]
            + ["clock.linear_reduction[delta=1.0]"])


def _ids_semigroup(p: Params) -> list:
    lap = f"dirichlet_laplacian[n={p.n_resolvent}]"
    return (["semigroup.exp_oracle"]
            + [f"semigroup.delta_law[{g}][delta={d}]"
               for g in ("nilpotent2", "diag_decay", "diag_complex")
               for d in p.deltas]
            + [f"semigroup.generator_quotient[{g}]"
               for g in ("diag_decay", "cascade3", "nilpotent2")]
            + ["semigroup.classical_quotient",
               "semigroup.orbit_oracle[delta=0.4]",
               "semigroup.orbit_oracle[delta=0.7]",
               "semigroup.orbit_reduction[delta=1.0]",
               "semigroup.orbit_norm_consistency"]
            + [f"semigroup.strong_continuity[{g}][delta={d}]"
               for g in ("diag_decay", "cascade3") for d in (0.4, 0.8)]
            + [f"semigroup.dissipativity[{lap}]"]
            + [f"resolvent_bound[{lap}][lam={lam}]"
               for lam in (0.1, 0.5, 1.0, 2.0)]
            + [f"contraction[{lap}][delta={d}]" for d in (0.5, 1.0)])


def _ids_drift_diffusion(p: Params) -> list:
    return (["drift_diffusion.transfer_invariant"]
            + [f"drift_diffusion.conjugacy_exact[delta={d}]" if d == 1.0
               else f"drift_diffusion.conjugacy_order[delta={d}]"
               for d in p.deltas]
            + ["drift_diffusion.unitary_pairing",
               "drift_diffusion.confluent_continuity"]
            + [f"drift_diffusion.mild_bound[n={n}]" for n in p.n_list]
            + ["drift_diffusion.derivative_identities"])


def _ids_transport(p: Params) -> list:
    ids = [f"transport.{k}[alpha={a}]" for a in (0.3, 0.5, 1.0)
           for k in ("conjugacy", "pde_residual", "flow_law")]
    return ids + ["transport.shift_reduction[alpha=1.0]",
                  "weight_window_probe[exp_decay][alpha=0.5]",
                  "weight_window_probe[unit][alpha=0.5]"]


def _ids_dynamics(p: Params) -> list:
    return ["dynamics.condition[a=1.0][b=1.0][c=0.4]",
            "dynamics.condition[a=1.0][b=1.0][c=0.6]",
            "dynamics.condition[a=1.0][b=2.0][c=0.5]",
            "dynamics.eigen_residual", "dynamics.eigen_residual_imag_axis",
            "dynamics.analyticity", "dynamics.analyticity_shrink",
            "dynamics.gram_separation",
            "clock_invariance[diag_decay][delta=0.4]",
            "clock_invariance[diag_decay][delta=0.8]",
            "dynamics.x0_decay[lam=-1]", "dynamics.x0_decay[lam=-0.5+3j]",
            "dynamics.xinf_landing[lam=1.0][eps=0.001]",
            "dynamics.xinf_landing[lam=2.0][eps=1e-05]",
            "dynamics.periodic_return[omega=1.0]",
            "dynamics.periodic_return[omega=6.283185307179586]"]


_SUITE_IDS = {
    "calculus": _ids_calculus,
    "spaces": _ids_spaces,
    "clock": _ids_clock,
    "semigroup": _ids_semigroup,
    "drift-diffusion": _ids_drift_diffusion,
    "transport": _ids_transport,
    "dynamics": _ids_dynamics,
}


def expected_ids(suite: str, p: Params) -> set:
    names = tuple(_SUITE_IDS) if suite == "all" else (suite,)
    return {cid for name in names for cid in _SUITE_IDS[name](p)}


def expected_ops(job: Job, p: Params) -> int:
    """Operations one invocation attempts: check records or sweep cells."""
    if job.suite is None:
        return len(p.sweep_deltas) * len(p.sweep_n_list)
    return len(expected_ids(job.suite, p))
