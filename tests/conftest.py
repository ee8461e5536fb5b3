import math
import os
import sys

# one BLAS thread, as the benchmark runs: on a shared host OpenBLAS's default
# threads make the small per-total matrix products of a rotation many times slower
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pin)
import pytest  # noqa: E402

import qiopa  # noqa: E402  (loads every module whose memos are emptied)
from qiopa.polarization import Qubit  # noqa: E402

BALANCED = Qubit(2 ** -0.5, 2 ** -0.5, 0.0)


def random_qubit(rng: np.random.Generator) -> Qubit:
    u = rng.uniform(0.0, 1.0)
    return Qubit(math.sqrt(u), math.sqrt(1.0 - u),
                 rng.uniform(-math.pi, math.pi))


# the package's per-process caches; _empty_memos empties every cache it
# finds, and these must be exactly them, so a new cache is listed here
KNOWN_MEMOS = {"qiopa.amplifier._amplified_kets", "qiopa.amplifier._evolved_kets",
               "qiopa.density._closed_form_bands", "qiopa.montecarlo._axis_laws",
               "qiopa.montecarlo._seed_class"}


def _empty_memos():
    """Empty every memo of the loaded qiopa modules: each module-level
    function with a cache_clear, which are exactly KNOWN_MEMOS."""
    memos = {f"{name}.{attr}": obj
             for name, module in list(sys.modules.items())
             if name == qiopa.__name__ or name.startswith(qiopa.__name__ + ".")
             for attr, obj in vars(module).items()
             if callable(getattr(obj, "cache_clear", None))
             and getattr(obj, "__module__", None) == name}
    assert memos.keys() == KNOWN_MEMOS, (f"memos not found: {KNOWN_MEMOS - memos.keys()}, "
                                         f"not listed: {memos.keys() - KNOWN_MEMOS}")
    for memo in memos.values():
        memo.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts and ends with every per-configuration memo empty (the
    amplifier's kets with their trace plans, the Monte Carlo axis laws and
    the closed forms' bands), so what a test covers does not depend on which
    tests ran before it."""
    _empty_memos()
    yield
    _empty_memos()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
