"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes.  Timing this kernel just before and just
after an interval of the program gives the machine's speed during that
interval; the end-to-end times are divided by it (see run.py), so that
they compare programs rather than moments of the host.

The kernel does the same kinds of work as qiopa and nothing of qiopa: a
dict of tuple-keyed complex amplitudes regrouped into small numpy vectors
and multiplied by small matrices (like the Fock rotations and the density
blocks), and vectorized random draws, table searches and binomial thinning
(like the Monte Carlo sampler).  Its work is fixed, so a change of the
program never changes it.
"""
from __future__ import annotations

import time

import numpy as np

TOTALS = 48             # pair totals t; a group has t + 1 amplitudes
RESTS = 6               # spectator occupations per total
DRAWS = 150_000         # pulses of the vectorized part
TABLE = 400             # entries of the cumulative table searched

_rng = np.random.default_rng(20041025)
_MATRICES = [np.linalg.qr(_rng.standard_normal((t + 1, t + 1))
                          + 1j * _rng.standard_normal((t + 1, t + 1)))[0]
             for t in range(TOTALS)]
_AMPS = {(m, t - m, r, t): complex(_rng.standard_normal(), _rng.standard_normal())
         for t in range(TOTALS) for m in range(t + 1) for r in range(RESTS)}
_CUM = np.cumsum(_rng.random(TABLE))
_CUM /= _CUM[-1]
_OCC = _rng.integers(0, 5, size=(TABLE, 4))


def kernel() -> float:
    """One pass of the fixed work; returns a checksum (the norm kept)."""
    groups: dict = {}
    for (m, _n, r, t), amp in _AMPS.items():
        groups.setdefault((r, t), []).append((m, amp))
    out: dict = {}
    for (r, t), entries in groups.items():
        vin = np.zeros(t + 1, dtype=complex)
        for m, amp in entries:
            vin[m] += amp
        vout = _MATRICES[t] @ vin
        for p in np.nonzero(np.abs(vout) >= 1e-300)[0]:
            key = (int(p), t - int(p), r, t)
            out[key] = out.get(key, 0.0) + vout[p]
    norm = sum(abs(a) ** 2 for a in out.values())

    rng = np.random.default_rng(7)
    pick = np.searchsorted(_CUM, rng.random(DRAWS), side="right")
    occ = _OCC[np.minimum(pick, TABLE - 1)]
    survivors = rng.binomial(occ, 0.18)
    return norm + 1e-9 * int(survivors.sum())


def block(seconds: float) -> float:
    """Mean seconds per pass over passes lasting at least `seconds` (one at least)."""
    passes, spent = 0, 0.0
    while passes == 0 or spent < seconds:
        t0 = time.perf_counter()
        kernel()
        spent += time.perf_counter() - t0
        passes += 1
    return spent / passes
