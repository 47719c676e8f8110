"""Driven-dissipative few-level dynamics: Lindblad engine and experiment models."""

from .engine import (
    Level,
    Drive,
    Decay,
    Dephasing,
    LevelSystem,
    Trace,
    propagate,
    detuned_steady_states,
)
from .experiments import (
    SpinPumpParams,
    CptParams,
    PleEmitter,
    simulate_spin_pumping,
    simulate_t1_recovery,
    simulate_cpt_scan,
    fit_cpt_scan_forward,
    simulate_ple_scan,
    simulate_pump_probe_scan,
)

__all__ = [
    "Level", "Drive", "Decay", "Dephasing", "LevelSystem", "Trace",
    "propagate", "detuned_steady_states",
    "SpinPumpParams", "CptParams", "PleEmitter",
    "simulate_spin_pumping", "simulate_t1_recovery", "simulate_cpt_scan",
    "fit_cpt_scan_forward", "simulate_ple_scan", "simulate_pump_probe_scan",
]
