"""Reference for the load-model differential in ``test_load_model_recursion``.

The ``Resource``-plus-process formulation of
:class:`~repro.experiments.loaded_dandelion.DandelionLoadModel` that
Figs 5 and 6 ran on before the model became a FIFO-core recursion: one
generator process per request, which waits for a core slot, draws its
service time once granted, and holds the slot for that long.  The
backend timing and the service draw are the product's own.
"""

from repro.experiments.loaded_dandelion import DandelionLoadModel
from repro.sim.resources import Resource


class ProcessLoadModel(DandelionLoadModel):
    """Same construction and service draw; a process per request."""

    def __init__(self, env, *args, cores=4, **kwargs):
        super().__init__(env, *args, cores=cores, **kwargs)
        self.slots = Resource(env, capacity=cores)

    def request(self):
        return self.env.process(self._serve())

    def _serve(self):
        slot = self.slots.request()
        yield slot
        yield self.env.timeout(self.service_seconds())
        self.slots.release(slot)
