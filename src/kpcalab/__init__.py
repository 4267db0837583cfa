"""Kernel PCA, random-feature approximations, and an exact finite-support
oracle for the population quantities both try to estimate.

The pieces, bottom up: symmetric eigensolves and spectral projectors
(linalg), discrete ground-truth measures (measures), finite-rank
kernels with exactly known spectra (kernels), random Fourier and
finite-rank feature draws (features), the exact and feature-space
KPCA fits (kpca), the population operators and projector metrics
computed in closed form (oracle), perturbation and concentration bound
checkers (bounds), and the rate-fitting experiment harness (rates).
The kpcalab console script in cli drives all of it from JSON configs.

The sample-level fits and projectors and the random Fourier path are the
reference route the rate cells are cross-checked against.
PerturbationCase, perturb_check and make_perturbation_cases are one-case
views of the stacked bound suite.

Each module's ``__all__`` is the one list of its public names: the package
re-exports every module but cli in full, and its ``__all__`` is those lists
joined in layer order.  Every count and seed that enters a sampling path
passes one rule, ``errors._count``.
"""

from . import bounds, errors, features, kernels, kpca, linalg, measures, oracle, rates, rng
from .bounds import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .features import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .kpca import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAYERS = (errors, rng, linalg, measures, kernels, features, kpca, oracle, bounds, rates)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
