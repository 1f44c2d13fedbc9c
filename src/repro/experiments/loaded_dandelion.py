"""Lightweight Dandelion load model for high-throughput sweeps.

Figs 5 and 6 sweep offered load up to thousands of requests per second.
Driving the fully functional worker at those rates would execute the
same user function tens of thousands of times without changing the
modelled timing (simulated time is deterministic given the cost model),
so the sweep experiments use this reduced model:

* the function is executed **once** through the real isolation backend
  (functional verification + per-stage breakdown);
* each simulated request then replays that timing on a pool of
  dedicated compute-engine cores, run-to-completion, FIFO — exactly the
  engine discipline of the full worker;
* per-request variation (binary served from RAM cache vs loaded from
  disk) follows the experiment's cold-load fraction.

A FIFO run-to-completion pool needs no process per request:
:meth:`request` draws the service time at once (start order is arrival
order) and returns one event at its completion on
:class:`~repro.sim.resources.FifoCores`.

The fully functional worker is exercised under load by the §7.4, Fig 7
and Fig 8 experiments, where requests carry real data.
"""

from __future__ import annotations

from typing import Optional

from ..backends.base import create_backend
from ..composition.registry import FunctionBinary
from ..data.items import DataSet
from ..sim.core import Environment, Event
from ..sim.distributions import Rng
from ..sim.resources import FifoCores

__all__ = ["DandelionLoadModel"]


class DandelionLoadModel:
    """Single-function Dandelion worker model for load sweeps."""

    def __init__(
        self,
        env: Environment,
        binary: FunctionBinary,
        input_sets: list[DataSet],
        output_set_names: list[str],
        cores: int = 4,
        backend_name: str = "kvm",
        machine: str = "morello",
        cold_load_fraction: float = 1.0,
        rng: Optional[Rng] = None,
    ):
        self.env = env
        self.cores = cores
        self._pool = FifoCores(cores)
        self.backend = create_backend(backend_name, machine)
        self.cold_load_fraction = cold_load_fraction
        self.rng = rng or Rng(0)
        # Functional verification run: the user code really executes.
        uncached = self.backend.execute(binary, input_sets, output_set_names, cached=False)
        cached = self.backend.execute(binary, input_sets, output_set_names, cached=True)
        self.outputs = uncached.outputs
        self.uncached_seconds = uncached.total_seconds
        self.cached_seconds = cached.total_seconds

    def service_seconds(self) -> float:
        if self.cold_load_fraction >= 1.0 or (
            self.cold_load_fraction > 0 and self.rng.bernoulli(self.cold_load_fraction)
        ):
            return self.uncached_seconds
        return self.cached_seconds

    def request(self) -> Event:
        """Submit one request; returns the event that fires when it completes."""
        env = self.env
        return env.timeout_at(self._pool.admit(env.now, self.service_seconds()))
