"""Command line front end.

Every command reads a JSON config, runs a deterministic experiment, and
writes results.csv plus summary.json into the output directory (the
rate commands also write oracle_snapshot.json describing the synthetic
ground truth).  The standard library's json and csv writers write these
files, floats in Python's shortest round-trip form, so reruns of the same
config are byte-identical; wall time appears only in summary.json.

Exit codes: 0 all verdicts pass, 1 config problem (malformed JSON,
unknown keys, out-of-regime parameters, an --out path through a file;
nothing is written), 2 at least one verdict failed, 3 numerical failure
inside a computation.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bounds import (MC_EXPERIMENTS, McTailConfig, mc_tail, operator_inequality_suite,
                     perturbation_suite)
from .errors import ConfigError, EigengapError, InvalidInput, NumericFailure, RankError, _count
from .kernels import _decay_schedule
from .linalg import RANK_RTOL, _check_split
from .oracle import oracle_snapshot, proj_pop, recon_error, tail_energy
from .rates import ExperimentConfig, _oracle, _schedule_error, _taus, run_grid, transition_study
from .rng import derive_seed

__all__ = ["main"]

# How far, relative, the population reconstruction error may sit from the tail energy.
_TAIL_RTOL = 1e-10


def _plain(obj):
    """``obj`` with tuples as lists and NaN or infinite floats as None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_plain(obj), indent=2) + "\n")


def _require_keys(config: dict, allowed: set, required: set, command: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"{command} config has unknown keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise ConfigError(f"{command} config is missing keys: {sorted(missing)}")


def _list(config: dict, key: str) -> list:
    value = config[key]
    if isinstance(value, list):
        return value
    raise ConfigError(f"{key} must be a list, got {value!r}")


def _effective_seed(config: dict, override: int | None) -> int:
    if override is None and "seed" not in config:
        raise ConfigError("config has no seed; set one or pass --seed")
    seed = _count("seed", config.get("seed", override))  # checked even under --seed
    return seed if override is None else int(override)


def _keys(cls) -> tuple[set, set]:
    """A config dataclass's field names, and those without a default less the
    seed, which --seed may supply: the keys a command allows and requires."""
    fields = dataclasses.fields(cls)
    return ({f.name for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING} - {"seed"})


def _snapshot(report) -> dict:
    kernel = report.kernel
    return oracle_snapshot(kernel, kernel.table.measure, report.pop, report.config.seed)


def _cmd_spectrum(config: dict, seed: int):
    _require_keys(
        config,
        allowed={"atoms", "rank", "decay", "alpha", "gamma", "seed", "ells"},
        required={"atoms", "rank", "decay", "ells"},
        command="spectrum",
    )
    atoms = _count("atoms", config["atoms"])
    rank = _count("rank", config["rank"])
    lambdas = _decay_schedule(config["decay"], rank, config.get("alpha"), config.get("gamma"))
    ells = [_count("ells", e) for e in _list(config, "ells")]
    if not ells or len(set(ells)) < len(ells) or any(not 1 <= e <= rank - 1 for e in ells):
        raise ConfigError(f"ells must be nonempty, each once, and lie in 1..{rank - 1}")
    # S_J's spectrum is the schedule padded with zeros, so proj_pop's split checks run first.
    for ell in ells:
        try:
            _check_split(lambdas, ell)
        except (RankError, EigengapError) as err:
            raise ConfigError(f"population spectrum: {err}") from None
    _, pop = _oracle(atoms, lambdas, seed)
    vals = pop.eigenvalues
    spec_err = _schedule_error(pop, lambdas)

    header = ["ell", "eigenvalue", "tail_energy", "projector_residual", "rel_err", "agrees"]
    rows = []
    all_agree = True
    for ell in ells:
        tail = tail_energy(vals, ell)
        resid = recon_error(pop, proj_pop(pop, ell))
        rel = abs(resid - tail) / tail
        agrees = rel <= _TAIL_RTOL
        all_agree = all_agree and agrees
        rows.append([ell, float(vals[ell - 1]), tail, resid, rel, agrees])

    verdicts = [
        ("population_spectrum_matches_schedule", spec_err <= RANK_RTOL,
         f"max |eig - schedule| / lambda_1 = {spec_err:.3e}"),
        ("reconstruction_matches_tail_energy", all_agree,
         f"{len(ells)} values of ell checked at {_TAIL_RTOL:g} relative"),
    ]
    summary = {
        "atoms": atoms,
        "rank": rank,
        "spectrum_max_err_rel_top": spec_err,
        "eigenvalues_top": [float(v) for v in vals[:rank]],
    }
    return header, rows, summary, verdicts, None


def _rate_rows(report, *prefix) -> list:
    """One results row per cell, each led by ``prefix``."""
    return [[*prefix, r.n, r.m, r.ell, r.rep, r.metric, r.value] for r in report.rows]


def _rate_summary(report) -> dict:
    return {
        "metric": report.config.metric,
        "medians": {str(n): report.medians[n] for n in report.config.n_grid},
        "invalid_cells": {str(n): report.invalid[n] for n in report.config.n_grid},
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
        "predicted": report.predicted,
        "expected": report.expected,
        "regime": report.regime,
        "beta": report.beta,
        "slope_tolerance": report.config.slope_tolerance,
        "band": dataclasses.asdict(report.band),
        "projector_swap_min_margin": report.swap_min_margin,
        "projector_swap_violations": report.swap_violations,
    }


def _cmd_rates(config: dict, seed: int):
    _require_keys(config, *_keys(ExperimentConfig), command="rates")
    cfg = ExperimentConfig(**{**config, "seed": seed})
    report = run_grid(cfg)
    header = ["n", "m", "ell", "rep", "metric", "value"]
    rows = _rate_rows(report)
    verdicts = [
        ("slope_within_tolerance", report.verdict,
         f"fitted {report.slope:.4f} +- {report.slope_stderr:.4f}, "
         f"predicted {report.predicted:.4f}, tol {cfg.slope_tolerance:g}"),
        ("projector_swap_inequality", report.swap_violations == 0,
         f"min margin {report.swap_min_margin:.3e} over valid cells"),
    ]
    return header, rows, _rate_summary(report), verdicts, _snapshot(report)


def _cmd_transition(config: dict, seed: int):
    allowed, required = _keys(ExperimentConfig)
    # The command sweeps taus, so a tau key would be ignored: it is refused.
    _require_keys(config, (allowed - {"tau"}) | {"taus"}, required | {"taus"},
                  command="transition")
    taus = _taus(_list(config, "taus"))
    base_dict = {k: v for k, v in config.items() if k != "taus"}
    base = ExperimentConfig(**{**base_dict, "tau": taus[0], "seed": seed})
    study = transition_study(base, taus)

    header = ["tau", "n", "m", "ell", "rep", "metric", "value"]
    runs = list(zip(taus, study.reports[1:]))
    rows = _rate_rows(study.reports[0], None)
    for tau, rep in runs:
        rows.extend(_rate_rows(rep, tau))

    verdicts = [(f"tau_{tau:.17g}_{rep.regime}", rep.verdict,
                 f"slope {rep.slope:.4f} vs expected {rep.expected:.4f} "
                 f"(threshold {study.threshold:g})") for tau, rep in runs]
    verdicts.append(("projector_swap_inequality",
                     all(r.swap_violations == 0 for r in study.reports),
                     "checked on the reference run and every tau"))
    summary = {
        "threshold": study.threshold,
        "reference": _rate_summary(study.reports[0]),
        "taus": [{"tau": tau, **_rate_summary(rep)} for tau, rep in runs],
    }
    return header, rows, summary, verdicts, _snapshot(study.reports[0])


def _cmd_bounds(config: dict, seed: int):
    _require_keys(config, allowed={"perturbation_cases", "operator_trials", "seed"},
                  required=set(), command="bounds")
    count = _count("perturbation_cases", config.get("perturbation_cases", 1000), least=1)
    trials = _count("operator_trials", config.get("operator_trials", 1000), least=1)

    header = ["case", "dim", "d", "delta_d", "b_hs", "plain_lhs", "plain_rhs",
              "plain_holds", "weighted_lhs", "weighted_rhs", "weighted_holds",
              "trivial_rhs", "sharper"]
    suite = perturbation_suite(count, seed)
    op_report = operator_inequality_suite(trials, derive_seed(seed, "op-suite"))

    verdicts = [
        ("projector_perturbation_bound", suite.violations_plain == 0,
         f"{count} cases, min margin {suite.min_margin_plain:.3e}"),
        ("weighted_projector_perturbation_bound", suite.violations_weighted == 0,
         f"{count} cases, min margin {suite.min_margin_weighted:.3e}, "
         f"sharper than the operator-norm fallback in {suite.sharper_fraction:.1%}"),
        ("operator_inequalities", op_report.violations == 0,
         f"{op_report.checks} checks over {trials} trials"),
    ]
    summary = {
        "perturbation_cases": count,
        "violations_plain": suite.violations_plain,
        "violations_weighted": suite.violations_weighted,
        "min_margin_plain": suite.min_margin_plain,
        "min_margin_weighted": suite.min_margin_weighted,
        "sharper_fraction": suite.sharper_fraction,
        "operator_trials": trials,
        "operator_checks": op_report.checks,
        "operator_violations": op_report.violations,
    }
    return header, suite.rows, summary, verdicts, None


def _cmd_concentration(config: dict, seed: int):
    _require_keys(config, *_keys(McTailConfig), command="concentration")
    mc_cfg = McTailConfig(**{**config, "seed": seed})
    header = ["experiment", "tau", "count", "replications", "bound", "tail_cap",
              "exceed_count", "exceed_fraction", "max_deviation",
              "median_deviation", "holds"]
    rows = []
    verdicts = []
    summary_rows = []
    for exp in MC_EXPERIMENTS:
        rep = mc_tail(exp, mc_cfg)
        rows.append([
            exp, mc_cfg.tau, mc_cfg.count, rep.replications, rep.bound, rep.cap,
            rep.exceed_count, rep.exceed_fraction, rep.max_deviation,
            rep.median_deviation, rep.holds,
        ])
        verdicts.append((
            f"{exp}_within_tail", rep.holds,
            f"exceeded {rep.exceed_count}/{rep.replications} "
            f"(cap {rep.cap:.4f}), bound {rep.bound:.4f}",
        ))
        summary_rows.append({
            "experiment": exp,
            "bound": rep.bound,
            "tail_cap": rep.cap,
            "exceed_fraction": rep.exceed_fraction,
            "max_deviation": rep.max_deviation,
            "median_deviation": rep.median_deviation,
        })
    summary = {"tau": mc_cfg.tau, "count": mc_cfg.count,
               "replications": mc_cfg.replications, "experiments": summary_rows}
    return header, rows, summary, verdicts, None


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "rates": _cmd_rates,
    "transition": _cmd_transition,
    "bounds": _cmd_bounds,
    "concentration": _cmd_concentration,
}


def _parse_threads(raw: str) -> int:
    if raw == "auto":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(os.cpu_count() or 1, 1)
    if not (raw.isascii() and raw.isdigit()):
        raise ConfigError(f"--threads takes a decimal integer or 'auto', got {raw!r}")
    threads = int(raw)
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    return threads


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpcalab",
        description="Exact and random-feature kernel PCA against finite-support "
                    "ground truth: spectra, convergence rates, regime transitions, "
                    "perturbation bounds, concentration tails.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("spectrum", "population spectrum and tail-energy identities"),
        ("rates", "fit one metric's log-log convergence slope"),
        ("transition", "sweep tau to locate the feature/sample regime boundary"),
        ("bounds", "projector perturbation and operator inequality suites"),
        ("concentration", "Monte Carlo exceedance of the deviation bounds"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--threads", default="1",
                       help="accepted for compatibility and echoed in summary.json; "
                            "no effect, numpy's OpenBLAS runs one thread during every "
                            "command (an integer >= 1, or 'auto')")
    return parser


def _run(args) -> int:
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")

    seed = _effective_seed(config, args.seed)
    threads = _parse_threads(args.threads)
    out = Path(args.out)
    blocked = [p for p in (out, *out.parents) if p.exists() and not p.is_dir()]
    if blocked:
        raise ConfigError(f"--out {out}: {blocked[0]} exists and is not a directory")
    digest = hashlib.sha256(raw).hexdigest()

    # One BLAS thread is at least as fast on every solve the commands make
    # (T <= 60 rate cells and S_J factors, <= 20-dim bound stacks, the
    # spectrum command's N x N S_J); a second one only spins.
    blas = _openblas()
    if blas is not None:
        previous = blas[0]()
        blas[1](1)
    start = time.perf_counter()
    try:
        header, rows, body, verdicts, snapshot = _HANDLERS[args.command](config, seed)
    finally:
        if blas is not None:
            blas[1](previous)
    elapsed = time.perf_counter() - start

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(v).lower() if type(v) is bool else v for v in row])
    summary = {
        "tool": "kpcalab",
        "command": args.command,
        "config_sha256": digest,
        "config": config,
        "effective_seed": seed,
        "threads": threads,
        "wall_time_seconds": elapsed,
    }
    summary.update(body)
    summary["verdicts"] = {
        name: {"pass": bool(ok), "detail": detail} for name, ok, detail in verdicts
    }
    _write_json(out / "summary.json", summary)
    if snapshot is not None:
        _write_json(out / "oracle_snapshot.json", snapshot)

    print(f"kpcalab {args.command}: config sha256 {digest[:12]}, "
          f"wall {elapsed:.2f}s, {len(rows)} result rows")
    ok_all = True
    for name, ok, detail in verdicts:
        ok_all = ok_all and bool(ok)
        print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"overall: {'PASS' if ok_all else 'FAIL'}")
    written = "results.csv, summary.json" + (", oracle_snapshot.json" if snapshot else "")
    print(f"wrote {written} in {out}")
    return 0 if ok_all else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _run(args)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
