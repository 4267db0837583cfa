"""Correctness gate: counts the expected result rows each pass got wrong.

A command's rows all count as failed when it raised, exited with a code
other than 0 or 2, or reported a projector-swap, perturbation-bound or
operator-inequality violation.  Otherwise a row fails when it is missing,
differs from the same row of the first pass (results.csv must be byte
identical across passes), or, at the default seed, differs from the
reference recorded from kpcalab at commit f78053e: floats by more than 1e-10
relative, anything else at all.  At the default seed the exit code and the
verdict map must also equal the reference.  expo_proj_fixed exiting 2
(acceptance 10) and the failing tau=0.8 transition verdict are part of
that reference, not failures.

Record the reference files with ``python3 perfbench/gate.py --record``,
run from the repository root at the commit they are to describe.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-10


@dataclass
class Outcome:
    """What one command of a pass left behind."""

    label: str
    exit_code: int | None
    error: str | None
    csv: bytes | None
    summary: dict | None


def parse_cell(text: str):
    """A results.csv cell as written by kpcalab.cli: empty, bool, int or float."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cells_match(a: str, b: str, rtol: float = RTOL) -> bool:
    """Floats agree to ``rtol`` relative (NaN only with NaN); the rest exactly.

    %.17g writes an integral float without a point, so a number column
    may hold int-looking text; a float on either side makes it a float
    comparison.
    """
    x, y = parse_cell(a), parse_cell(b)
    if (isinstance(x, float) or isinstance(y, float)) and _is_number(x) and _is_number(y):
        x, y = float(x), float(y)
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y or abs(x - y) <= rtol * max(abs(x), abs(y))
    return type(x) is type(y) and x == y


def _rows(csv: bytes) -> list[list[str]]:
    return [line.split(",") for line in csv.decode().splitlines()]


def mismatched_rows(reference: bytes, got: bytes, rtol: float = RTOL) -> set[int]:
    """Indices of data rows of ``got`` that differ from ``reference``.

    A header mismatch marks every row; rows beyond the shorter file are
    left to the row-count check.
    """
    ref, new = _rows(reference), _rows(got)
    if not ref or not new or ref[0] != new[0]:
        return set(range(max(len(ref), len(new))))
    return {
        i for i, (r, g) in enumerate(zip(ref[1:], new[1:]))
        if len(r) != len(g) or not all(cells_match(a, b, rtol) for a, b in zip(r, g))
    }


def verdict_map(summary: dict) -> dict:
    return {name: bool(v["pass"]) for name, v in summary["verdicts"].items()}


def violations(command: str, summary: dict) -> int:
    """Violations of the inequalities that hold for every input."""
    if command == "rates":
        return int(summary["projector_swap_violations"])
    if command == "transition":
        return int(not summary["verdicts"]["projector_swap_inequality"]["pass"])
    if command == "bounds":
        return int(summary["violations_plain"] + summary["violations_weighted"]
                   + summary["operator_violations"])
    return 0


def load_reference(labels) -> dict:
    """label -> {"csv": bytes, "exit_code": int, "verdicts": dict}."""
    outcomes = json.loads((REFERENCE_DIR / "outcomes.json").read_text())
    return {
        label: {**outcomes[label], "csv": (REFERENCE_DIR / f"{label}.csv").read_bytes()}
        for label in labels
    }


class Gate:
    """Checks every pass of one workload run; see the module docstring."""

    def __init__(self, commands, reference: dict | None) -> None:
        self.commands = {c.label: c for c in commands}
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outcomes) -> int:
        """Check one pass; returns the rows it failed."""
        failed = 0
        for out in outcomes:
            cmd = self.commands[out.label]
            bad, why = self._check_command(cmd, out)
            failed += bad
            if bad:
                self.problems.append(f"{out.label}: {bad}/{cmd.rows} rows failed ({why})")
        self.attempted += sum(c.rows for c in self.commands.values())
        self.failed += failed
        return failed

    def _check_command(self, cmd, out: Outcome) -> tuple[int, str]:
        if out.error is not None:
            return cmd.rows, f"raised {out.error}"
        if out.exit_code not in (0, 2) or out.csv is None or out.summary is None:
            return cmd.rows, f"exit code {out.exit_code}"
        ref = self.reference and self.reference[cmd.label]
        if ref and out.exit_code != ref["exit_code"]:
            return cmd.rows, f"exit code {out.exit_code}, reference {ref['exit_code']}"
        if ref and verdict_map(out.summary) != ref["verdicts"]:
            return cmd.rows, "verdicts differ from the reference"
        broken = violations(cmd.command, out.summary)
        if broken:
            return cmd.rows, f"{broken} inequality violations"
        first = self.first.setdefault(cmd.label, out.csv)
        bad = mismatched_rows(first, out.csv, rtol=0.0) if out.csv != first else set()
        if ref:
            bad |= mismatched_rows(ref["csv"], out.csv)
        count = len(out.csv.decode().splitlines()) - 1
        failed = min(cmd.rows, len(bad) + abs(count - cmd.rows))
        return failed, (f"{len(bad)} rows differ, {count} of {cmd.rows} rows written"
                        if failed else "")


def _record() -> None:
    """Run every workload once at the default seed and store its outputs."""
    import run
    from workloads import DEFAULT_SEED, WORKLOADS

    cli = run.import_kpcalab()
    REFERENCE_DIR.mkdir(exist_ok=True)
    outcomes = {}
    for workload in WORKLOADS.values():
        commands = workload.commands(DEFAULT_SEED)
        paths = run.write_configs(workload.name, commands)
        for out in run.run_pass(cli, workload.name, commands, paths)[0]:
            if out.error is not None or out.csv is None:
                sys.exit(f"{out.label} failed: {out.error or out.exit_code}")
            (REFERENCE_DIR / f"{out.label}.csv").write_bytes(out.csv)
            outcomes[out.label] = {"exit_code": out.exit_code,
                                   "verdicts": verdict_map(out.summary)}
    (REFERENCE_DIR / "outcomes.json").write_text(json.dumps(outcomes, indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="write the reference files for the checked-out code")
    parser.parse_args()
    _record()
