"""A small deterministic discrete-event simulation engine.

Processes are Python generators that yield *events*: ``Timeout`` (advance
virtual time), a :class:`Resource` request (wait for a server), or a
:class:`Store` get (wait for an item).  The engine is a classic
time-ordered event heap; ties break on insertion order, so runs are fully
deterministic — a requirement for the performance model, whose output
feeds directly into EXPERIMENTS.md.

This is a minimal simpy-alike kept dependency-free on purpose; only the
features the workstation model needs are implemented.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.errors import MachineError


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "triggered", "callbacks", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger now; callbacks run at the current simulation time."""
        if self.triggered:
            raise MachineError("event already triggered")
        self.triggered = True
        self.value = value
        self.sim._schedule(0.0, self)
        return self


class Timeout(Event):
    """An event that triggers *delay* time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise MachineError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.triggered = True
        sim._schedule(delay, self)


class Process(Event):
    """Drives a generator; the process event triggers when the generator ends."""

    __slots__ = ("generator",)

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any]):
        super().__init__(sim)
        self.generator = generator
        # Bootstrap: resume once at the current time.
        boot = Event(sim)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def _resume(self, trigger: Event) -> None:
        try:
            target = self.generator.send(trigger.value)
        except StopIteration as stop:
            if not self.triggered:
                self.value = stop.value
                self.triggered = True
                self.sim._schedule(0.0, self)
            return
        if not isinstance(target, Event):
            raise MachineError(
                f"process yielded {type(target).__name__}; processes must yield events"
            )
        target.callbacks.append(self._resume)


class Simulator:
    """The event loop: a heap of (time, sequence, event)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List["tuple[float, int, Event]"] = []
        self._seq = 0

    def _schedule(self, delay: float, event: Event) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        return Process(self, generator)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or *until*); returns end time."""
        while self._heap:
            t, _, ev = heapq.heappop(self._heap)
            if until is not None and t > until:
                self.now = until
                return self.now
            self.now = t
            callbacks, ev.callbacks = ev.callbacks, []
            for cb in callbacks:
                cb(ev)
        return self.now


class Resource:
    """A FIFO resource with *capacity* identical servers.

    Usage inside a process::

        req = resource.request()
        yield req
        yield sim.timeout(service_time)
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise MachineError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiting: List[Event] = []
        #: accumulated busy time across all servers (utilisation accounting)
        self.busy_time = 0.0
        self._busy_since: "dict[int, float]" = {}

    def request(self) -> Event:
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise MachineError("release() without a matching request()")
        if self._waiting:
            nxt = self._waiting.pop(0)
            nxt.succeed()
        else:
            self.in_use -= 1

    def held(self, duration: float):
        """Generator helper: request, hold for *duration*, release.

        Accounts the hold into :attr:`busy_time`.
        """
        req = self.request()
        yield req
        yield self.sim.timeout(duration)
        self.busy_time += duration
        self.release()


class Store:
    """An unbounded FIFO item queue with blocking gets."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: List[Any] = []
        self._getters: List[Event] = []

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.pop(0))
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
