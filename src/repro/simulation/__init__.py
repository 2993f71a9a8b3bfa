"""Discrete-event simulation kernel."""

from repro.simulation.engine import EventToken, Simulation

__all__ = ["EventToken", "Simulation"]
