"""Keyed stream generators."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kpcalab
from kpcalab import derive_seed, generator


@pytest.mark.parametrize("key", [0, 1, 2**64, 2**128 - 1, derive_seed(20260819, "samples", 64, 3)])
def test_generator_equals_a_philox_keyed_directly(key):
    got = generator(key)
    want = np.random.Generator(np.random.Philox(key=key))
    assert str(got.bit_generator.state) == str(want.bit_generator.state)
    assert np.array_equal(got.random(7), want.random(7))
    assert np.array_equal(got.integers(0, 1000, 9), want.integers(0, 1000, 9))
    assert np.array_equal(got.standard_normal(5), want.standard_normal(5))


def test_importing_the_cli_does_not_load_numpy_random():
    code = "import sys, kpcalab.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(kpcalab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
