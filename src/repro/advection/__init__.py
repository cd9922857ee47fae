"""Particle advection: pipeline step 2 of figure 3.

Every animation frame advects all spot particles a small distance through
the flow field; bent spots additionally integrate a short streamline per
spot.  Integration is vectorised over the whole particle population.
"""

from repro.advection.integrators import (
    euler_step,
    rk2_step,
    rk4_step,
    get_integrator,
    INTEGRATORS,
)
from repro.advection.particles import ParticleSet
from repro.advection.lifecycle import LifeCyclePolicy
from repro.advection.streamline import streamline_bundle
from repro.advection.unsteady import pathline_bundle
from repro.advection.advector import Advector

__all__ = [
    "pathline_bundle",
    "euler_step",
    "rk2_step",
    "rk4_step",
    "get_integrator",
    "INTEGRATORS",
    "ParticleSet",
    "LifeCyclePolicy",
    "streamline_bundle",
    "Advector",
]
