"""The shipped model systems: billiard, Coulomb/helium, magnetic hydrogen,
quartic oscillator, plus plain hydrogen as the reference family."""

from .billiard import AnnularBilliard, billiard_local_energy_field, unit_disk_field
from .coulomb import (
    CoulombSystem,
    coulomb_field,
    coulomb_hamiltonian,
    coulomb_local_energy_batch,
    coulomb_log_trial,
    helium_bounds,
    helium_search_field,
    helium_system,
)
from .hydrogen import hydrogen_exponent_family, hydrogen_radial_field
from .magnetic import (
    VARIANTS,
    MagneticHydrogen,
    cusp_defects,
    improved_directional_limit,
    improved_parabolic_limit,
    magnetic_hydrogen_field,
    magnetic_trivial_bounds,
)
from .quartic import QuarticOscillator, quartic_field, quartic_system

__all__ = [
    "AnnularBilliard",
    "CoulombSystem",
    "MagneticHydrogen",
    "QuarticOscillator",
    "VARIANTS",
    "billiard_local_energy_field",
    "coulomb_field",
    "coulomb_hamiltonian",
    "coulomb_local_energy_batch",
    "coulomb_log_trial",
    "cusp_defects",
    "helium_bounds",
    "helium_search_field",
    "helium_system",
    "hydrogen_exponent_family",
    "hydrogen_radial_field",
    "improved_directional_limit",
    "improved_parabolic_limit",
    "magnetic_hydrogen_field",
    "magnetic_trivial_bounds",
    "quartic_field",
    "quartic_system",
    "unit_disk_field",
]
