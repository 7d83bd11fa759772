"""Decoherence and geometric phase of a qubit moving parallel to an imperfect mirror.

The model: a two-level particle travels at constant velocity in front of a
dielectric plate, coupled to the vacuum field, which is itself coupled to
the plate's internal oscillators. Tracing out that composite environment
dephases the qubit; the surviving coherence (the decoherence factor) feeds
the non-unitary geometric phase acquired over the qubit's cyclic evolution.
"""

from .errors import (ConfigError, DegenerateStateError, DomainError,
                     NoDecoherenceError, QuadratureError, SweepError)
from .model import (ModelParams, decoherence_factor, decoherence_time,
                    dephasing_multiplier, friction_factor, im_influence_action,
                    im_inout_action)
from .numerics import adaptive_simpson, find_root_bracketed, gauss_legendre
from .qubit import (MixedAngles, angles_closed_form, bloch_cosine, eigenvalue_gap,
                    eigenvalues_closed_form)
from .phase import (PhaseResult, TWO_PI, circular_difference, dynamical_phase,
                    gp_exact, gp_kinematic_oracle, gp_perturbative, unitary_gp)
from .sweeps import Axis, Dataset, SweepSpec, figure_preset, run_sweep
from .sweepconfig import format_sweep_config, parse_sweep_config
from .datafiles import (dataset_to_csv, dataset_to_json, read_dataset_csv,
                        read_dataset_json, write_dataset)

__version__ = "0.1.0"

__all__ = [
    "Axis", "ConfigError", "Dataset", "DegenerateStateError", "DomainError",
    "MixedAngles", "ModelParams", "NoDecoherenceError", "PhaseResult",
    "QuadratureError", "SweepError", "SweepSpec", "TWO_PI",
    "adaptive_simpson", "angles_closed_form", "bloch_cosine",
    "circular_difference", "dataset_to_csv", "dataset_to_json",
    "decoherence_factor", "decoherence_time", "dephasing_multiplier",
    "dynamical_phase", "eigenvalue_gap", "eigenvalues_closed_form", "figure_preset",
    "find_root_bracketed", "format_sweep_config", "friction_factor",
    "gauss_legendre", "gp_exact", "gp_kinematic_oracle", "gp_perturbative",
    "im_influence_action", "im_inout_action", "parse_sweep_config",
    "read_dataset_csv", "read_dataset_json", "run_sweep", "unitary_gp",
    "write_dataset",
]
