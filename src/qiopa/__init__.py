"""Numerical simulator of a quantum-injected optical parametric amplifier."""

from .amplifier import (AmplifierConfig, GainParams, amplify, pair_tail, pair_weights,
                        propagate_hamiltonian, vacuum_output)
from .density import (SectorDensity, cloner_entropy, entropy, partial_trace, rho1_closed_form,
                      rho2_closed_form)
from .errors import NumericalError
from .fock import FockState4, fidelity, inner_product, rotate_mode_pair
from .montecarlo import (CalibrationResult, DetectorConfig, PulseSampler, RunStats,
                         SweepStats, calibrate_visibility_loss, run)
from .observables import (DETECTED_FIELD_UNITARY, G1Pair, g1_closed_form, g1_oracle,
                          visibility)
from .polarization import (BlochPath, PolarizationUnitary, Qubit, apply, babinet,
                           su2_rotation, waveplate)

__version__ = "0.1.0"
