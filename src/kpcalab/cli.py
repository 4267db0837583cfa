"""Command line front end.

Every command reads a JSON config, runs a deterministic experiment, and
writes results.csv plus summary.json into the output directory (the
rate commands also write oracle_snapshot.json describing the synthetic
ground truth).  All floating-point values in these files are rendered
with %.17g so reruns of the same config are byte-identical; wall time
appears only in summary.json.

Exit codes: 0 all verdicts pass, 1 config problem (malformed JSON,
unknown keys, out-of-regime parameters; nothing is written), 2 at least
one verdict failed, 3 numerical failure inside a computation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bounds import (
    McTailConfig,
    PerturbationSuiteReport,
    _case_stacks,
    _score_cases,
    mc_tail,
    operator_inequality_suite,
)
from .errors import CheckFailed, ConfigError, InvalidInput, NumericFailure
from .oracle import oracle_snapshot, proj_pop, recon_error, tail_energy
from .rates import (
    ExperimentConfig,
    _count,
    _decay_schedule,
    _oracle,
    _real,
    run_grid,
    transition_study,
)
from .rng import derive_seed

__all__ = ["main"]

# The experiments bounds.mc_tail runs.
_MC_EXPERIMENTS = ("cov_deviation", "feature_op_deviation")


def _fnum(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cell(v) -> str:
    kind = type(v)  # exact types first: nearly every cell is a plain float, bool or int
    if kind is float:
        return format(v, ".17g")
    if kind is bool:
        return "true" if v else "false"
    if kind is int:
        return str(v)
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fnum(v)
    return str(v)


def render_json(obj, indent: int = 0) -> str:
    """JSON with floats in %.17g form; NaN and infinities become null."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        # Lists of plain floats or ints (oracle snapshots hold thousands)
        # render without a call per value.
        if all(type(v) is float for v in obj):
            items = [format(v, ".17g") if math.isfinite(v) else "null" for v in obj]
        elif all(type(v) is int for v in obj):
            items = [str(v) for v in obj]
        else:
            items = [render_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(f"{pad}  {item}" for item in items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return _fnum(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot serialize a {type(obj).__name__} into summary output")


def _require_keys(config: dict, allowed: set, required: set, command: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"{command} config has unknown keys: {sorted(unknown)}")
    missing = required - set(config)
    if missing:
        raise ConfigError(f"{command} config is missing keys: {sorted(missing)}")


def _integer(config: dict, key: str, default: int | None = None) -> int:
    """``config[key]`` (or ``default``) as an int: integral numbers only, never a bool."""
    return _count(key, config.get(key, default))


def _finite_real(config: dict, key: str) -> float:
    """``config[key]`` as a float: finite numbers only, never a bool."""
    return _real(key, config[key])


def _list(config: dict, key: str) -> list:
    value = config[key]
    if isinstance(value, list):
        return value
    raise ConfigError(f"{key} must be a list, got {value!r}")


def _effective_seed(config: dict, override: int | None) -> int:
    if override is not None:
        return int(override)
    if "seed" not in config:
        raise ConfigError("config has no seed; set one or pass --seed")
    return _integer(config, "seed")


_EXPERIMENT_KEYS = {
    "decay", "alpha", "gamma", "theta", "tau", "n_grid", "replications",
    "atoms", "rank", "seed", "metric", "ell_fixed", "slope_tolerance",
}


def _experiment_config(config: dict, seed: int) -> ExperimentConfig:
    kwargs = dict(config)
    kwargs["seed"] = seed
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def _snapshot(report) -> dict:
    kernel = report.kernel
    return oracle_snapshot(kernel, kernel.table.measure, report.pop, seed=report.config.seed)


def _cmd_spectrum(config: dict, seed: int):
    _require_keys(
        config,
        allowed={"atoms", "rank", "decay", "alpha", "gamma", "seed", "ells"},
        required={"atoms", "rank", "decay", "ells"},
        command="spectrum",
    )
    atoms = _integer(config, "atoms")
    rank = _integer(config, "rank")
    lambdas = _decay_schedule(config["decay"], rank, config.get("alpha"), config.get("gamma"))
    ells = [_count("ells", e) for e in _list(config, "ells")]
    if not ells or any(not 1 <= e <= rank - 1 for e in ells):
        raise ConfigError(f"ells must be nonempty and lie in 1..{rank - 1}")
    _, pop = _oracle(atoms, lambdas, seed)
    vals = pop.spectrum.eigenvalues
    padded = np.zeros(atoms)
    padded[:rank] = lambdas
    spec_err = float(np.max(np.abs(vals - padded)) / lambdas[0])

    header = ["ell", "eigenvalue", "tail_energy", "projector_residual", "rel_err", "agrees"]
    rows = []
    all_agree = True
    for ell in ells:
        tail = tail_energy(pop.spectrum, ell)
        resid = recon_error(pop, proj_pop(pop, ell))
        rel = abs(resid - tail) / tail
        agrees = rel <= 1e-10
        all_agree = all_agree and agrees
        rows.append([ell, float(vals[ell - 1]), tail, resid, rel, agrees])

    verdicts = [
        ("population_spectrum_matches_schedule", spec_err <= 1e-9,
         f"max |eig - schedule| / lambda_1 = {spec_err:.3e}"),
        ("reconstruction_matches_tail_energy", all_agree,
         f"{len(ells)} values of ell checked at 1e-10 relative"),
    ]
    summary = {
        "atoms": atoms,
        "rank": rank,
        "spectrum_max_err_rel_top": spec_err,
        "eigenvalues_top": [float(v) for v in vals[:rank]],
    }
    return header, rows, summary, verdicts, None


def _rate_rows(report, with_tau: float | None = None, include_tau: bool = False):
    out = []
    for r in report.rows:
        base = [r.n, r.m, r.ell, r.rep, r.metric, r.value]
        if include_tau:
            base = [with_tau] + base
        out.append(base)
    return out


def _rate_summary(report) -> dict:
    return {
        "metric": report.config.metric,
        "medians": {str(n): report.medians[n] for n in report.config.n_grid},
        "invalid_cells": {str(n): report.invalid[n] for n in report.config.n_grid},
        "slope": report.slope,
        "slope_stderr": report.slope_stderr,
        "predicted": report.predicted,
        "beta": report.beta,
        "slope_tolerance": report.config.slope_tolerance,
        "projector_swap_min_margin": report.swap_min_margin,
        "projector_swap_violations": report.swap_violations,
    }


def _cmd_rates(config: dict, seed: int):
    _require_keys(config, allowed=_EXPERIMENT_KEYS, required={"decay", "theta", "n_grid",
                  "replications", "atoms", "rank", "metric"}, command="rates")
    cfg = _experiment_config(config, seed)
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
    _require_keys(config, allowed=_EXPERIMENT_KEYS | {"taus"},
                  required={"decay", "theta", "n_grid", "replications", "atoms",
                            "rank", "metric", "taus"}, command="transition")
    taus = [_real("taus", t) for t in _list(config, "taus")]
    if not taus:
        raise ConfigError("transition config needs at least one tau")
    base_dict = {k: v for k, v in config.items() if k != "taus"}
    base_dict.setdefault("tau", taus[0])
    base = _experiment_config(base_dict, seed)
    study = transition_study(base, taus)

    header = ["tau", "n", "m", "ell", "rep", "metric", "value"]
    rows = _rate_rows(study.reports[0], include_tau=True, with_tau=None)
    for tau, rep in zip(taus, study.reports[1:]):
        rows.extend(_rate_rows(rep, include_tau=True, with_tau=tau))

    verdicts = []
    all_swap_ok = all(r.swap_violations == 0 for r in study.reports)
    for row in study.rows:
        verdicts.append((
            f"tau_{_fnum(row.tau)}_{row.regime}", row.matches,
            f"slope {row.slope:.4f} vs expected {row.expected:.4f} "
            f"(threshold {study.threshold:g})",
        ))
    verdicts.append(("projector_swap_inequality", all_swap_ok,
                     "checked on the reference run and every tau"))
    summary = {
        "threshold": study.threshold,
        "reference_slope": study.reference_slope,
        "reference_stderr": study.reference_stderr,
        "reference": _rate_summary(study.reports[0]),
        "taus": [
            {
                "tau": row.tau,
                "regime": row.regime,
                "slope": row.slope,
                "slope_stderr": row.slope_stderr,
                "expected": row.expected,
                "matches": row.matches,
            }
            for row in study.rows
        ],
    }
    return header, rows, summary, verdicts, _snapshot(study.reports[0])


def _cmd_bounds(config: dict, seed: int):
    _require_keys(config, allowed={"perturbation_cases", "operator_trials", "seed"},
                  required=set(), command="bounds")
    count = _integer(config, "perturbation_cases", 1000)
    trials = _integer(config, "operator_trials", 1000)
    if count < 1 or trials < 1:
        raise ConfigError("bounds config needs positive case and trial counts")

    header = ["case", "dim", "d", "delta_d", "b_hs", "plain_lhs", "plain_rhs",
              "plain_holds", "weighted_lhs", "weighted_rhs", "weighted_holds",
              "trivial_rhs", "sharper"]
    rows = [None] * count
    reports = []
    for members, a, b, d, spec_a, spec_ab in _case_stacks(count, seed):
        delta, b_hs, rep = _score_cases(a, b, d, spec_a, spec_ab)
        reports.append(rep)
        columns = (d, delta, b_hs, rep.plain.lhs, rep.plain.rhs, rep.plain.holds,
                   rep.weighted.lhs, rep.weighted.rhs, rep.weighted.holds,
                   rep.trivial_rhs, rep.sharper_than_trivial)
        for i, row in zip(members, zip(*(column.tolist() for column in columns))):
            rows[i] = [i, a.shape[-1], *row]
    suite = PerturbationSuiteReport.tally(reports)
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
    return header, rows, summary, verdicts, None


def _cmd_concentration(config: dict, seed: int):
    _require_keys(config, allowed={"tau", "count", "replications", "seed", "atoms",
                  "rank", "experiments"}, required={"tau", "count", "replications"},
                  command="concentration")
    experiments = config.get("experiments", list(_MC_EXPERIMENTS))
    if not isinstance(experiments, list) or any(e not in _MC_EXPERIMENTS for e in experiments):
        raise ConfigError(f"experiments must be a list drawn from {list(_MC_EXPERIMENTS)}, "
                          f"got {experiments!r}")
    mc_cfg = McTailConfig(
        tau=_finite_real(config, "tau"),
        count=_integer(config, "count"),
        replications=_integer(config, "replications"),
        seed=seed,
        atoms=_integer(config, "atoms", 128),
        rank=_integer(config, "rank", 20),
    )
    header = ["experiment", "tau", "count", "replications", "bound", "tail_cap",
              "exceed_count", "exceed_fraction", "max_deviation",
              "median_deviation", "holds"]
    rows = []
    verdicts = []
    summary_rows = []
    for exp in experiments:
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
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"--threads takes an integer or 'auto', got {raw!r}")
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    return threads


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
                            "no effect (an integer >= 1, or 'auto')")
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
    digest = hashlib.sha256(raw).hexdigest()

    start = time.perf_counter()
    header, rows, body, verdicts, snapshot = _HANDLERS[args.command](config, seed)
    elapsed = time.perf_counter() - start

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
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
    (out / "summary.json").write_text(render_json(summary) + "\n")
    if snapshot is not None:
        (out / "oracle_snapshot.json").write_text(render_json(snapshot) + "\n")

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
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
