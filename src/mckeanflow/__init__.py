"""Numerics for one-dimensional McKean-Vlasov dynamics with quadratic
interaction: self-consistency analysis of the stationary states, a
positivity-preserving finite-volume solver (overdamped and kinetic),
stochastic particle simulation, and explicit convergence certificates.
"""

__version__ = "0.1.0"

from .model import (ModelConfig, ModelError, Potential, drift,
                    mean_field_energy, standard_model)
from .grid import (DensityGrid1D, GridError, PhaseGrid2D, UnderflowError,
                   entropy, equilibrium_for_mean, fisher_information,
                   free_energy, kinetic_free_energy, local_equilibrium,
                   relative_entropy, total_variation, wasserstein2)
from .meanfield import (FixedPoint, FixedPointSet, MeanFieldError,
                        SelfConsistency1D, contraction_factor,
                        critical_sigma2, degeneracy_bound,
                        find_fixed_points, localization_jacobian)
from .pde import (CflError, GranularSolver, PdeError, VfpSolver,
                  granular_run, vfp_run)
from .particles import (ParticleEnsemble, ParticleError, empirical_w2,
                        free_energy_proxy, nn_entropy, run_particles,
                        step_kinetic, step_overdamped)
from .certificates import (CertificateError, CertificateReport,
                           CoreConstants, build_certificate, lsi_eta,
                           nonlinear_lsi_eta_bar, q_t, stability_radius,
                           structural_constants)
from .analysis import (AnalysisError, RateFit, TrajectoryLog,
                       detect_sign_change, fit_exponential, fit_power)

__all__ = [
    "__version__",
    "ModelConfig", "ModelError", "Potential", "drift",
    "mean_field_energy", "standard_model",
    "DensityGrid1D", "GridError", "PhaseGrid2D", "UnderflowError",
    "entropy", "equilibrium_for_mean", "fisher_information", "free_energy",
    "kinetic_free_energy", "local_equilibrium", "relative_entropy",
    "total_variation", "wasserstein2",
    "FixedPoint", "FixedPointSet", "MeanFieldError", "SelfConsistency1D",
    "contraction_factor", "critical_sigma2", "degeneracy_bound",
    "find_fixed_points", "localization_jacobian",
    "CflError", "GranularSolver", "PdeError", "VfpSolver", "granular_run",
    "vfp_run",
    "ParticleEnsemble", "ParticleError", "empirical_w2", "free_energy_proxy",
    "nn_entropy", "run_particles", "step_kinetic", "step_overdamped",
    "CertificateError", "CertificateReport", "CoreConstants",
    "build_certificate", "lsi_eta", "nonlinear_lsi_eta_bar", "q_t",
    "stability_radius", "structural_constants",
    "AnalysisError", "RateFit", "TrajectoryLog", "detect_sign_change",
    "fit_exponential", "fit_power",
]
