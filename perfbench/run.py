"""kpcalab benchmark: drives ``kpcalab.cli.main`` in-process on generated configs.

    python3 perfbench/run.py --workload exact_grid --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run from any directory; the package is imported from ``src/`` next to this
directory and nowhere else, so the script fails (exit 2, no result line)
where that source is missing.

Each workload is a closed loop in one process: one warm-up pass, then
passes of its fixed command list back to back for ``--seconds``.

--trace 0 reports the end-to-end metrics, as medians over the timed passes:
  wall_s       seconds per pass, CSV and JSON writing included
  cpu_s        user+sys CPU seconds of the process per pass, BLAS threads included
  setup_s      interpreter start until kpcalab is imported and the configs are
               loaded, median over SETUP_STARTS fresh interpreters
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced passes and reports per-layer metrics
(see tracer.py): ``<layer>.<function>.calls`` and ``.self_s`` per pass, the
counters in tracer.COUNTER_NAMES, and ``trace.overhead_frac``, the traced over
the untraced median pass time, minus 1.

Every pass goes through the correctness gate (gate.py); ``failed`` and
``attempted`` in the result line count result rows, so failed_frac is
failed / attempted.  Each run writes a result file with the machine and
provenance under perfbench/out/results/, which compare.py reads.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Gate, Outcome, load_reference
from tracer import SPAN_NAMES, Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_STARTS = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The setup child: what a user's process does before its first command.
_SETUP_CODE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import kpcalab.cli\n"
    "configs = [json.loads(open(p, 'rb').read()) for p in sys.argv[2:]]\n"
    "print(time.monotonic())\n"
)


class SetupError(RuntimeError):
    """The benchmark cannot find or import the program under test."""


def import_kpcalab():
    """Import kpcalab.cli from ROOT/src, refusing any other copy."""
    if not (SRC / "kpcalab" / "__init__.py").is_file():
        raise SetupError(f"no kpcalab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpcalab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "kpcalab":
        raise SetupError(f"imported kpcalab from {cli.__file__}, not from {SRC}")
    return cli


def write_configs(workload: str, commands) -> dict:
    config_dir = OUT / workload / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for c in commands:
        paths[c.label] = config_dir / f"{c.label}.json"
        paths[c.label].write_text(json.dumps(c.config, indent=1) + "\n")
    return paths


def measure_setup(paths, starts: int) -> list[float]:
    """Seconds from spawning an interpreter until it has imported kpcalab and
    parsed the configs (CLOCK_MONOTONIC is shared by all processes)."""
    samples = []
    for _ in range(starts):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *map(str, paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_pass(cli, workload: str, commands, paths) -> tuple[list, float, float, float]:
    """Run the command list once; returns (outcomes, start, end, cpu seconds)."""
    dirs = {c.label: OUT / workload / c.label for c in commands}
    for d in dirs.values():
        for stale in ("results.csv", "summary.json"):
            (d / stale).unlink(missing_ok=True)
    codes = {}
    sink = io.StringIO()
    start, cpu0 = time.perf_counter(), time.process_time()
    for c in commands:
        argv = [c.command, "--config", str(paths[c.label]), "--out", str(dirs[c.label]),
                "--threads", str(c.threads)]
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes[c.label] = (cli.main(argv), None)
        except Exception as exc:  # a crash counts against failed_frac, not the run
            codes[c.label] = (None, repr(exc))
    end, cpu = time.perf_counter(), time.process_time() - cpu0
    outcomes = []
    for c in commands:
        code, error = codes[c.label]
        csv_path, summary_path = dirs[c.label] / "results.csv", dirs[c.label] / "summary.json"
        outcomes.append(Outcome(
            label=c.label, exit_code=code, error=error,
            csv=csv_path.read_bytes() if csv_path.exists() else None,
            summary=json.loads(summary_path.read_text()) if summary_path.exists() else None,
        ))
    return outcomes, start, end, cpu


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):  # numpy without dict configs
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def _write_spans(workload: str, traced_passes) -> Path:
    """All spans of the run, times relative to their pass's start."""
    path = OUT / workload / "spans.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pass", "id", "parent", "name", "start_s", "end_s"])
        for k, (spans, start) in enumerate(traced_passes):
            for sid, (name, s, e, parent) in enumerate(spans):
                writer.writerow([k, sid, "" if parent is None else parent, name,
                                 f"{s - start:.9f}", f"{e - start:.9f}"])
    return path


def _timed_loop(seconds: float, step) -> None:
    """Call step() until ``seconds`` have passed, at least once."""
    begin = time.perf_counter()
    step()
    while time.perf_counter() - begin < seconds:
        step()


def measure(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[workload].commands(seed)
    paths = write_configs(workload, commands)
    gate = Gate(commands, load_reference(c.label for c in commands)
                if seed == DEFAULT_SEED else None)
    setup = None if trace else measure_setup(paths.values(), SETUP_STARTS)

    def one_pass():
        outcomes, start, end, cpu = run_pass(cli, workload, commands, paths)
        gate.check(outcomes)
        return start, end, cpu

    one_pass()  # warm-up: lazy imports, BLAS thread start, page cache
    samples = {"wall_s": [], "cpu_s": []}
    result = {"samples": samples, "gate": gate, "trace_ok": True}
    if not trace:
        def step():
            start, end, cpu = one_pass()
            samples["wall_s"].append(end - start)
            samples["cpu_s"].append(cpu)

        _timed_loop(seconds, step)
        result["metrics"] = {
            "wall_s": (statistics.median(samples["wall_s"]), "s"),
            "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples["setup_s"] = setup
        return result

    tracer = Tracer()
    samples["traced_wall_s"] = []
    per_pass = []     # per traced pass: {metric: value}
    traced_runs = []  # (spans, start) per traced pass
    balance = []      # |self + uncovered - wall| / wall per traced pass

    def step():
        start, end, _ = one_pass()
        samples["wall_s"].append(end - start)
        tracer.install()
        try:
            start, end, _ = one_pass()
        finally:
            tracer.restore()
        spans, counters = tracer.take()
        own, uncovered = self_times(spans, start, end)
        wall = end - start
        samples["traced_wall_s"].append(wall)
        balance.append(abs(sum(own.values()) + uncovered - wall) / wall)
        row = dict.fromkeys((f"{n}.calls" for n in SPAN_NAMES), 0)
        for name, _, _, _ in spans:
            row[f"{name}.calls"] += 1
        row.update({f"{n}.self_s": own.get(n, 0.0) for n in SPAN_NAMES})
        row.update(counters)
        row["trace.untraced_s"] = uncovered
        per_pass.append(row)
        traced_runs.append((spans, start))

    _timed_loop(seconds, step)
    if max(balance) > 1e-9:
        gate.problems.append(f"self times plus untraced time miss the traced wall time "
                             f"by {max(balance):.2e} relative")
        result["trace_ok"] = False
    metrics = {}
    for key in per_pass[0]:
        unit = "s" if key.endswith("_s") else "rows" if key.endswith("dim_max") else "count"
        metrics[key] = (statistics.median([row[key] for row in per_pass]), unit)
    overhead = statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])
    metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    result["metrics"] = metrics
    result["spans_file"] = str(_write_spans(workload, traced_runs).relative_to(ROOT))
    return result


def _run_one(args) -> int:
    try:
        cli = import_kpcalab()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine = machine_info()
    t0 = time.time()
    res = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    machine["loadavg_end"] = list(os.getloadavg())
    gate = res["gate"]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_unix": t0,
        "machine": machine,
        "correct": gate.failed == 0 and res["trace_ok"],
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        "problems": gate.problems[:50],
        "samples": res["samples"],
        "metrics": metrics,
    }
    if "spans_file" in res:
        record["spans_file"] = res["spans_file"]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(t0))
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    passes = len(res["samples"]["wall_s"])
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {passes} "
          + ("untraced and as many traced passes" if args.trace
             else f"timed passes, {SETUP_STARTS} setup starts"))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':44s} {record['failed_frac']:.6g} "
          f"({gate.failed}/{gate.attempted} rows)")
    for problem in gate.problems[:10]:
        print(f"  problem: {problem}")
    print(f"  wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {DEFAULT_SEED} also checks the reference")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
