"""Compare two sets of benchmark result files, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of result files written by run.py with
--trace 0 (or single files).  For each workload and each end_to_end metric
of BENCHMARK.json it prints each side's median and quartiles, the share of
pairs the new side won (runs paired by seed; ties count for neither), and a
verdict against the metric's bound, the share of the base median by which
it may get worse:

  regression  the new median is worse than the base median by more than the bound
  unresolved  not a regression, but the base runs spread (q3 - q1 over the
              median) wider than the bound and not every new run beats every
              base run
  unchanged   otherwise

``gain`` marks a claimable gain: the new side won at least nine tenths of
the pairs, its median differs from the base median by more than the base
quartile distance, and no more rows failed than on the base side.
Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if r.get("trace") == 0]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _pairs(base: list[dict], new: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed: dict = {}
    for side, runs in ((0, base), (1, new)):
        for run in sorted(runs, key=lambda r: r.get("started_unix", 0.0)):
            by_seed.setdefault(run["seed"], ([], []))[side].append(
                run["metrics"][metric]["value"])
    return [pair for b, n in by_seed.values() for pair in zip(b, n)]


def judge(base: list[float], new: list[float], pairs, bound: float,
          lower_is_better: bool, more_failures: bool = False) -> dict:
    """Verdict for one workload and metric; see the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    worse = sign * (nmed - bmed) / bmed
    spread = (bq3 - bq1) / bmed
    won = sum(sign * (n - b) < 0 for b, n in pairs)
    share_won = won / len(pairs) if pairs else None
    all_better = max(new) < min(base) if lower_is_better else min(new) > max(base)
    if worse > bound:
        verdict = "regression"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    gain = (share_won is not None and share_won >= 0.9 and worse < 0.0
            and abs(nmed - bmed) > bq3 - bq1 and not more_failures)
    return {
        "base": {"q1": bq1, "median": bmed, "q3": bq3, "runs": len(base)},
        "new": {"q1": nq1, "median": nmed, "q3": nq3, "runs": len(new)},
        "change": (nmed - bmed) / bmed,
        "base_spread": spread,
        "pairs": len(pairs),
        "share_won": share_won,
        "verdict": verdict,
        "gain": gain,
    }


def compare(base_runs: list[dict], new_runs: list[dict], spec: dict) -> dict:
    report = {}
    workloads = sorted({r["workload"] for r in base_runs} & {r["workload"] for r in new_runs})
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        more_failures = sum(r["failed"] for r in new) > sum(r["failed"] for r in base)
        report[workload] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            report[workload][name] = judge(
                [r["metrics"][name]["value"] for r in base],
                [r["metrics"][name]["value"] for r in new],
                _pairs(base, new, name), m["bound"], m["better"] == "lower", more_failures,
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    report = compare(load_runs(args.base), load_runs(args.new), spec)
    for workload, metrics in report.items():
        for name, r in metrics.items():
            b, n = r["base"], r["new"]
            won = "n/a" if r["share_won"] is None else f"{r['share_won']:.0%}"
            print(f"{workload:14s} {name:12s} base {b['median']:.4g} [{b['q1']:.4g}, "
                  f"{b['q3']:.4g}] n={b['runs']}  new {n['median']:.4g} [{n['q1']:.4g}, "
                  f"{n['q3']:.4g}] n={n['runs']}  change {r['change']:+.1%}  "
                  f"won {won} of {r['pairs']}  {r['verdict']}{'  GAIN' if r['gain'] else ''}")
    print(json.dumps(report))
    regressed = any(r["verdict"] == "regression" for m in report.values() for r in m.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
