"""Exact diagonalization of an interacting non-reciprocal two-leg ladder.

The package builds fixed particle-number Hamiltonians for a two-leg ladder
whose legs hop asymmetrically in opposite directions, diagonalizes them
with verified dense solvers, and provides the observables (densities, pair
correlations, cut entropies, spectral clusters), the effective bound-pair
model, and the sweep and threshold drivers exposed by the nhladder CLI.

Importing the package loads the solve path (fock, model, eig, lapack). The
driver modules (observables, perturb, sweep) and their exports load on
first use, so a process that only solves never imports them.
"""

__version__ = "0.1.0"

from .eig import (ConvergenceError, SpectrumResult, default_eps_im,
                  eigendecompose, is_spectrum_real, max_imag)
from .fock import (Basis, CapacityError, apply_single_hop, basis_dimension,
                   combined_site, enumerate_basis, site_cell_leg)
from .model import (ModelParams, SparseOperator, build_hamiltonian,
                    build_single_particle_matrix, onsite_energy, sector_basis)

# exports of the driver modules, resolved by __getattr__ on first use
_DRIVERS = {
    "observables": ("Cluster", "bound_clusters", "classify_cluster",
                    "cluster_spectrum", "correlation_ncor", "default_min_gap",
                    "entanglement_entropy", "label_clusters",
                    "left_half_sites", "leg_sites", "pair_correlation",
                    "pair_density", "polarization", "site_density"),
    "perturb": ("EffectiveModelReport", "ResonanceError",
                "build_effective_pair_hamiltonian", "validate_effective_model"),
    "sweep": ("Axis", "EonsiteTable", "SweepSpec", "ThresholdResult",
              "eonsite_table", "find_threshold_jp", "run_sweep"),
}
_HOME = {name: module for module, names in _DRIVERS.items() for name in names}

__all__ = [
    "Axis", "Basis", "CapacityError", "Cluster", "ConvergenceError",
    "EffectiveModelReport", "EonsiteTable", "ModelParams", "ResonanceError",
    "SparseOperator", "SpectrumResult", "SweepSpec", "ThresholdResult",
    "apply_single_hop", "basis_dimension", "bound_clusters",
    "build_effective_pair_hamiltonian",
    "build_hamiltonian", "build_single_particle_matrix", "classify_cluster",
    "cluster_spectrum", "combined_site", "correlation_ncor", "default_eps_im",
    "default_min_gap", "eigendecompose", "entanglement_entropy",
    "enumerate_basis",
    "eonsite_table", "find_threshold_jp", "is_spectrum_real",
    "label_clusters", "left_half_sites", "leg_sites", "max_imag",
    "onsite_energy", "pair_correlation", "pair_density", "polarization",
    "run_sweep", "sector_basis", "site_cell_leg", "site_density",
    "validate_effective_model", "__version__",
]


def __getattr__(name: str):
    """A driver module, or one of its exports, imported on first use
    (PEP 562); an export is then bound here like the eager ones."""
    from importlib import import_module
    if name in _DRIVERS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    """The names of the package with every driver loaded, without those of
    this loader."""
    names = set(globals()) | set(_DRIVERS) | set(_HOME)
    return sorted(names - {"_DRIVERS", "_HOME", "__getattr__", "__dir__"})
