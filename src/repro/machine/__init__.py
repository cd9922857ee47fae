"""Workstation performance model (figure 4 of the paper).

The paper's evaluation machine — an SGI Onyx2 with 8 R10000 processors,
4 InfiniteReality pipes and an 800 MB/s bus — no longer exists to run on,
so this package simulates it: a deterministic discrete-event model whose
actors are processors (master + slaves per process group), a shared bus,
graphics pipes and the sequential blend stage.  Costs are charged per
unit of *counted* work (vertices shaped, vertices scan-converted, pixels
filled, bytes moved, batches dispatched), with constants calibrated once
against the (1 processor, 1 pipe) cells of Tables 1 and 2; everything
else in the tables is *predicted* by the model.

The closed forms of the paper — eq 2.1 (sequential overlap) and eq 3.2
(divide-and-conquer bound) — are implemented in
:mod:`repro.machine.analytic` and serve as cross-checks on the simulator.
"""

from repro.machine.events import Simulator, Resource, Store, Timeout
from repro.machine.costs import CostModel
from repro.machine.workload import SpotWorkload
from repro.machine.workstation import WorkstationConfig
from repro.machine.schedule import simulate_texture, TimingResult, sweep_configurations
from repro.machine.analytic import eq21_time, eq32_time
from repro.machine.animation import AnimationTiming, simulate_animation

__all__ = [
    "Simulator",
    "Resource",
    "Store",
    "Timeout",
    "CostModel",
    "SpotWorkload",
    "WorkstationConfig",
    "simulate_texture",
    "TimingResult",
    "sweep_configurations",
    "eq21_time",
    "eq32_time",
    "AnimationTiming",
    "simulate_animation",
]
