"""van der Waals interactions between spinning nanospheres.

Rotational Doppler shifts reshape the fluctuation spectra of spinning
dielectric spheres and with them the vdW force between two of them: the
attraction can be resonantly enhanced near twice the polaritonic frequency
and flips to repulsion beyond it. This package computes the rest-frame
response of each sphere, the nonequilibrium spectral integrals of its
Doppler-shifted sidebands, the energies and forces of any arrangement of
the two spin axes (four canonical ones by name) as weighted sums of one
spectral function, the dissipationless closed forms used as analytic
references, and the static Matsubara/Hamaker baselines.
"""

from .baseline import (hamaker_constant, matsubara_static_energy, naive_fdt_energy_rr,
                       static_energy_estimate, static_force_estimate)
from .configurations import (Arrangement, ArrangementKind, delta_force, energy,
                             force, rest_energy)
from .oracle import LorentzPair, aux_closed, eab_closed, eba_closed, ratio_aux, ratio_rr, ratio_uu
from .response import (MaterialModel, PoleProximityError, SpinningSphere, bst,
                       hadamard, permittivity, polarizability, resonance_frequency)
from .spectral import ConvergenceError, PairContext, aux_energy, energy_AB, energy_BA

__version__ = "0.1.0"
