"""Numerical simulator of a quantum-injected optical parametric amplifier."""

from .amplifier import AmplifierConfig, amplify, propagate_hamiltonian, vacuum_output
from .density import (PairDistribution, SectorDensity, entropy, hs_distance,
                      pair_distribution, partial_trace, rho1_closed_form,
                      rho2_closed_form, tail_probability)
from .errors import NumericalError
from .fock import (FockIndex4, FockState4, GainParams, default_cutoff, fidelity,
                   inner_product, make_gain, number_expectation, pair_probability,
                   pair_tail, rotate_mode_pair)
from .montecarlo import (CalibrationResult, DetectorConfig, PulseRecord,
                         PulseSampler, RunStats, SweepStats,
                         calibrate_visibility_loss, run)
from .observables import (DETECTED_FIELD_UNITARY, FringeTable, G1Pair,
                          fringe_sweep, g1_closed_form, g1_oracle,
                          signal_to_noise, visibility)
from .polarization import (BlochPath, PolarizationUnitary, Qubit, apply, babinet,
                           su2_rotation, waveplate)

__version__ = "0.1.0"
