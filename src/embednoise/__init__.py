"""Embedding-induced noise: chain-break laws, sampling and calibration."""

from .analytics import (CbpModel, PowerLawFit, cbf_predict, cbp, cbp_vs_m,
                        critical_chain_strength, erfc, erfc_inv, power_law_fit)
from .embedding import (ChainLengthModel, EmbeddedIsing, Embedding, ValidationReport,
                        build_embedded_ising, chain_stats, fit_linear,
                        synth_chain_lengths, validate_embedding)
from .fitting import (FitGrid, FitResult, GridRange, fit_noise_params,
                      fit_report, sse)
from .noise import NoiseModel, chain_error_sample, perturb_hamiltonian, variance_law
from .problem import (IsingModel, QuboInstance, generate_random_qubo,
                      ising_energy, qubo_energy, qubo_to_ising)
from .rng import substream
from .sampler import (AnnealSchedule, SampleSet, brute_force, detect_breaks,
                      energy_stats, margin_errors, margin_model_run, resolve_chains,
                      simulated_anneal, synthetic_hardware_run)
from .topology import ZephyrCoordinate, ZephyrGraph, build_zephyr, degree_histogram, vertex_count

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "CbpModel", "ChainLengthModel", "EmbeddedIsing",
    "Embedding", "FitGrid", "FitResult", "GridRange", "IsingModel",
    "NoiseModel", "PowerLawFit", "QuboInstance", "SampleSet",
    "ValidationReport", "ZephyrCoordinate", "ZephyrGraph",
    "brute_force", "build_embedded_ising", "build_zephyr", "cbf_predict",
    "cbp", "cbp_vs_m", "chain_error_sample", "chain_stats",
    "critical_chain_strength", "degree_histogram", "detect_breaks",
    "energy_stats", "erfc", "erfc_inv", "fit_linear", "fit_noise_params",
    "fit_report", "generate_random_qubo", "ising_energy",
    "margin_errors", "margin_model_run", "perturb_hamiltonian", "power_law_fit",
    "qubo_energy", "qubo_to_ising", "resolve_chains", "simulated_anneal",
    "sse", "substream", "synth_chain_lengths", "synthetic_hardware_run",
    "validate_embedding", "variance_law", "vertex_count",
]
