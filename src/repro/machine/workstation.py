"""Workstation configuration (figure 4).

A :class:`WorkstationConfig` is the machine shape the paper varies in its
tables: number of general processors, number of graphics pipes, bus
bandwidth.  It also owns the processor-to-pipe assignment rule of
section 4: "the available processors are partitioned evenly over the
number of graphics pipes", each pipe getting a process group of one
master plus zero or more slaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError


@dataclass(frozen=True)
class WorkstationConfig:
    """Machine shape for one simulated run."""

    n_processors: int
    n_pipes: int
    bus_bandwidth_Bps: float = 800.0e6

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise MachineError(f"need at least 1 processor, got {self.n_processors}")
        if self.n_pipes < 1:
            raise MachineError(f"need at least 1 pipe, got {self.n_pipes}")
        if self.n_pipes > self.n_processors:
            raise MachineError(
                f"each pipe needs a master processor: {self.n_pipes} pipes > "
                f"{self.n_processors} processors"
            )
        if self.bus_bandwidth_Bps <= 0:
            raise MachineError("bus bandwidth must be positive")

    def processors_per_group(self) -> "list[int]":
        """Even partition of processors over pipes (masters included).

        The first ``n_processors % n_pipes`` groups get the extra
        processor, matching an even static partition.
        """
        base, extra = divmod(self.n_processors, self.n_pipes)
        return [base + (1 if g < extra else 0) for g in range(self.n_pipes)]

    def group_sizes(self) -> "list[tuple[int, int]]":
        """Per group: (n_masters=1, n_slaves)."""
        return [(1, k - 1) for k in self.processors_per_group()]

    def describe(self) -> str:
        """Human-readable component inventory (the figure-4 boxes)."""
        groups = self.processors_per_group()
        lines = [
            f"workstation: {self.n_processors} processors, {self.n_pipes} graphics pipes",
            f"bus: {self.bus_bandwidth_Bps / 1e6:.0f} MB/s shared",
        ]
        for g, k in enumerate(groups):
            lines.append(f"  group {g}: pipe {g} <- 1 master + {k - 1} slaves")
        return "\n".join(lines)
