"""Embedding-induced noise: chain-break laws, sampling and calibration."""

from .analytics import (PowerLawFit, cbf_predict, cbp, critical_chain_strength, erfc_inv,
                        power_law_fit)
from .embedding import (ChainLengthModel, EmbeddedIsing, Embedding, build_embedded_ising,
                        fit_linear, synth_chain_lengths, validate_embedding)
from .fitting import FitGrid, FitResult, GridRange, fit_noise_params, fit_report
from .noise import NoiseModel, chain_error_sample, variance_law
from .problem import (IsingModel, QuboInstance, generate_random_qubo,
                      ising_energy, qubo_energy, qubo_to_ising)
from .rng import substream
from .sampler import (AnnealSchedule, SampleSet, brute_force, detect_breaks,
                      margin_errors, margin_model_run, resolve_chains,
                      simulated_anneal, synthetic_hardware_run)
from .topology import ZephyrGraph, build_zephyr, degree_histogram, vertex_count

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule", "ChainLengthModel", "EmbeddedIsing",
    "Embedding", "FitGrid", "FitResult", "GridRange", "IsingModel",
    "NoiseModel", "PowerLawFit", "QuboInstance", "SampleSet", "ZephyrGraph",
    "brute_force", "build_embedded_ising", "build_zephyr", "cbf_predict",
    "cbp", "chain_error_sample", "critical_chain_strength",
    "degree_histogram", "detect_breaks", "erfc_inv", "fit_linear",
    "fit_noise_params", "fit_report", "generate_random_qubo", "ising_energy",
    "margin_errors", "margin_model_run", "power_law_fit",
    "qubo_energy", "qubo_to_ising", "resolve_chains", "simulated_anneal",
    "substream", "synth_chain_lengths", "synthetic_hardware_run",
    "validate_embedding", "variance_law", "vertex_count",
]
