import math
import os

# one BLAS thread, as the benchmark runs: on a shared host OpenBLAS's default
# threads make the small per-total matrix products of a rotation many times slower
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)
import pytest  # noqa: E402

from qiopa import amplifier, density, fock, montecarlo  # noqa: E402
from qiopa.polarization import Qubit  # noqa: E402


def random_qubit(rng: np.random.Generator) -> Qubit:
    u = rng.uniform(0.0, 1.0)
    return Qubit(math.sqrt(u), math.sqrt(1.0 - u),
                 rng.uniform(-math.pi, math.pi))


def _empty_memos():
    fock._PLANS.clear()
    for memo in (amplifier._amplified_kets, amplifier._evolved_kets,
                 montecarlo._axis_laws, density._closed_form_bands):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts and ends with every per-configuration memo empty (the
    kept trace and overlap plans, the amplifier's kets, the Monte Carlo axis
    laws and the closed forms' bands), so what a test covers does not depend
    on which tests ran before it."""
    _empty_memos()
    yield
    _empty_memos()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
