"""Ground states of a random lattice Schroedinger operator with a weak
on-site interaction: eigensolvers, a constrained minimizer, condensation
certificates, and reproducible ensemble experiments.

The package namespace holds the names notebooks and the benchmark use;
everything else is imported from its submodule."""

from .analysis import gap_and_overlap, localization_center
from .cli import main
from .disorder import (
    DisorderSpec,
    Region,
    periodic_hamiltonian,
    provenance_stream,
    restrict_hamiltonian,
    sample_potential,
)
from .ensemble import (
    EXPERIMENTS,
    ExperimentPlan,
    ExperimentResult,
    replay_sample,
    run_plan,
)
from .gp import GPProblem, certificate, minimize_gp
from .lattice import build_lattice, dirichlet_energy, torus_distance
from .records import RunRecord, read_records, write_records
from .spectral import dense_matrix, lowest_eigenpairs

__version__ = "0.1.0"

__all__ = [
    "DisorderSpec",
    "EXPERIMENTS",
    "ExperimentPlan",
    "ExperimentResult",
    "GPProblem",
    "Region",
    "RunRecord",
    "build_lattice",
    "certificate",
    "dense_matrix",
    "dirichlet_energy",
    "gap_and_overlap",
    "localization_center",
    "lowest_eigenpairs",
    "main",
    "minimize_gp",
    "periodic_hamiltonian",
    "provenance_stream",
    "read_records",
    "replay_sample",
    "restrict_hamiltonian",
    "run_plan",
    "sample_potential",
    "torus_distance",
    "write_records",
]
