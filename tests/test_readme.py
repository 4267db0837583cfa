"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

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
