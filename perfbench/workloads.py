"""The benchmark's workloads: the CLI commands each one runs per pass.

Every config is a fixed README or acceptance config whose ``seed`` is the
workload seed, so ``--seed`` alone decides the inputs.  At DEFAULT_SEED,
the acceptance suite's seed, outputs are also compared with the reference
files recorded from kpcalab at commit f78053e (see gate.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20260819

_GRID = [256, 512, 1024, 2048, 4096]

# The three exact-KPCA acceptance configs (tests/test_acceptance.py).
_EXACT_CONFIGS = {
    "poly_recon": {
        "decay": "poly", "alpha": 2.0, "theta": 2.0 / 7.0, "n_grid": _GRID,
        "replications": 10, "atoms": 192, "rank": 60, "metric": "recon_hat",
        "slope_tolerance": 0.15,
    },
    "expo_recon": {
        "decay": "expo", "gamma": 0.5, "theta": 0.2, "n_grid": _GRID,
        "replications": 10, "atoms": 128, "rank": 24, "metric": "recon_hat",
        "slope_tolerance": 0.12,
    },
    "expo_proj_fixed": {
        "decay": "expo", "gamma": 0.5, "theta": 0.0, "ell_fixed": 3, "n_grid": _GRID,
        "replications": 10, "atoms": 128, "rank": 24, "metric": "proj_hat",
        "slope_tolerance": 0.10,
    },
}

# The acceptance transition base with replications cut from 60 to 6.
_TRANSITION = {
    "decay": "expo", "gamma": 1.3, "theta": 0.0, "ell_fixed": 1,
    "n_grid": [362, 575, 912, 1448, 2299, 3650, 5793], "replications": 6,
    "atoms": 96, "rank": 48, "metric": "proj_rf_hat", "taus": [0.25, 0.8],
    "slope_tolerance": 0.10,
}

# README configs.
_BOUNDS = {"perturbation_cases": 1000, "operator_trials": 1000}
_CONCENTRATION = {"tau": 2.0, "count": 400, "replications": 200, "atoms": 128, "rank": 20}


@dataclass(frozen=True)
class Command:
    """One ``kpcalab`` invocation of a pass and the row count it must write."""

    label: str
    command: str
    config: dict
    threads: int
    rows: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int], tuple]  # workload seed -> the commands of one pass


def _rate_rows(cfg: dict) -> int:
    return len(cfg["n_grid"]) * cfg["replications"]


def _exact_grid(seed: int) -> tuple:
    return tuple(
        Command(label, "rates", {**cfg, "seed": seed}, 2, _rate_rows(cfg))
        for label, cfg in _EXACT_CONFIGS.items()
    )


def _rf_bounds(seed: int) -> tuple:
    runs = 1 + len(_TRANSITION["taus"])  # the exact reference plus each tau
    return (
        Command("transition", "transition", {**_TRANSITION, "seed": seed}, 1,
                runs * _rate_rows(_TRANSITION)),
        Command("bounds", "bounds", {**_BOUNDS, "seed": seed}, 1,
                _BOUNDS["perturbation_cases"]),
        Command("concentration", "concentration", {**_CONCENTRATION, "seed": seed}, 1, 2),
    )


# Two workloads, not three: the bound suites alone spread too much from run to
# run on a shared 2-vCPU machine (their interpreter-bound small solves slow by
# up to 1.7x in minute-long phases), so they ride along with the transition
# study, and the fewer runs leave room for longer ones.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_grid",
                 "rates on 3 exact configs, --threads 2 (nproc): kpca.fit_exact, "
                 "kernels.cross_gram, oracle.proj_distance, rates.run_grid self_s move "
                 "wall_s, cpu_s; no feature work",
                 _exact_grid),
        Workload("rf_bounds",
                 "transition (taus 0.25/0.8, 6 reps), bounds (1000 cases/trials), "
                 "concentration, --threads 1: fit_rf, feature_matrix, sym_eig n3_sum and "
                 "calls move wall_s, cpu_s, peak_rss_mb",
                 _rf_bounds),
    )
}
