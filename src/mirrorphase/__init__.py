"""Decoherence and geometric phase of a qubit moving parallel to an imperfect mirror.

The model: a two-level particle travels at constant velocity in front of a
dielectric plate, coupled to the vacuum field, which is itself coupled to
the plate's internal oscillators. Tracing out that composite environment
dephases the qubit; the surviving coherence (the decoherence factor) feeds
the non-unitary geometric phase acquired over the qubit's cyclic evolution.

Importing the package loads none of its modules: each public name is
imported from its home module on first use, so a caller pays only for the
modules it reaches.
"""

import importlib

__version__ = "0.1.0"

# each home module and the public names it defines
_HOMES = {
    "errors": ("ConfigError", "DegenerateStateError", "DomainError",
               "NoDecoherenceError", "QuadratureError", "SweepError"),
    "model": ("ModelParams", "decoherence_factor", "decoherence_time",
              "dephasing_multiplier", "friction_factor", "im_influence_action",
              "im_inout_action"),
    "numerics": ("adaptive_simpson", "find_root_bracketed", "gauss_legendre"),
    "qubit": ("MixedAngles", "angles_closed_form", "bloch_cosine", "eigenvalue_gap",
              "eigenvalues_closed_form"),
    "phase": ("PhaseResult", "TWO_PI", "circular_difference", "dynamical_phase",
              "gp_exact", "gp_kinematic_oracle", "gp_perturbative", "unitary_gp"),
    "sweeps": ("Axis", "Dataset", "SweepSpec", "figure_preset", "run_sweep"),
    "sweepconfig": ("format_sweep_config", "parse_sweep_config"),
    "datafiles": ("dataset_to_csv", "dataset_to_json", "read_dataset_csv",
                  "read_dataset_json", "write_dataset"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name from its home module on first use, and keep it."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
