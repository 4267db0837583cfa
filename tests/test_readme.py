"""The README's library quick start and command-line configs run as written."""

import json
import re
from pathlib import Path

import numpy as np

import kpcalab.cli as cli
from kpcalab import discrete_measure

_README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = _README.read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    namespace = {}
    exec(compile(_quick_start(), str(_README), "exec"), namespace)
    recon, tail = map(float, capsys.readouterr().out.split()[:2])
    assert recon >= tail > 0.0
    assert namespace["model"].n == 400


def test_readme_quick_start_fits_the_drawn_atoms():
    # draw_samples returns atoms; on a measure whose atoms are a permutation
    # of the positions, indexing the atoms with them again would fit other points
    code = _quick_start().replace("uniform_measure(128)",
                                  "discrete_measure(np.arange(128)[::-1], np.ones(128))")
    namespace = {"discrete_measure": discrete_measure}
    exec(compile(code, str(_README), "exec"), namespace)
    assert np.array_equal(namespace["model"].train_points, namespace["samples"])


def _command_configs() -> dict:
    """Each ``### `command` `` section's JSON config under README ``## Command line``."""
    section = _README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return {name: json.loads(config) for name, config in re.findall(
        r"^### `(\w+)`\n.*?```json\n(.*?)```", section, re.S | re.M)}


# transition exits 2 as written: its feature-limited tau fails (README `### transition`)
_EXIT_CODES = {"spectrum": 0, "rates": 0, "transition": 2, "bounds": 0, "concentration": 0}


def test_readme_command_configs_run_as_written(tmp_path, capsys):
    configs = _command_configs()
    assert list(configs) == list(_EXIT_CODES)
    for command, config in configs.items():
        path, out = tmp_path / f"{command}.json", tmp_path / command
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == \
            _EXIT_CODES[command], command
    summary = json.loads((tmp_path / "transition" / "summary.json").read_text())
    assert not {"reference_slope", "reference_stderr"} & set(summary)
    for entry in summary["taus"]:
        assert list(entry) == ["tau", *summary["reference"]]
    assert [v["pass"] for v in summary["verdicts"].values()] == [False, True, True]
    assert round(summary["taus"][0]["slope"], 3) == -0.287  # the slope README quotes
    capsys.readouterr()
