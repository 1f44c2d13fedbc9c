"""Response items by reference vs. built: same simulation, no envelope built.

Every application that reads a communication function's response runs
twice: once as shipped (the comm engine emits unbuilt ``EnvelopeItem``s
and the consumer reads them by reference) and once with every response
forced through the wire form (a plain ``DataItem`` over ``item.data``,
parsed back from JSON+hex).  Outputs, virtual finish time and the whole
committed-memory series must agree; and as shipped, no response envelope
is ever built.
"""

import pytest

from repro.apps import (
    DEFAULT_TOKEN,
    register_logproc_app,
    register_text2sql_app,
    setup_log_services,
    setup_text2sql_services,
)
from repro.data import DataItem, EnvelopeItem
from repro.engines import comm_engine
from repro.net.services import ObjectStoreService
from repro.query import generate_ssb_tables, load_ssb_to_store, register_ssb_query
from repro.worker import WorkerConfig, WorkerNode

from . import memory_series


def _ssb(worker):
    store = ObjectStoreService()
    worker.network.register(store)
    load_ssb_to_store(generate_ssb_tables(scale_factor=0.002, seed=1), store, partitions=4)
    return register_ssb_query(worker, "Q2.1", partitions=4), {"query": b"Q2.1"}


def _logproc(worker):
    setup_log_services(worker, shard_count=4, lines_per_shard=30)
    return register_logproc_app(worker), {"token": DEFAULT_TOKEN.encode()}


def _text2sql(worker):
    setup_text2sql_services(worker)
    return register_text2sql_app(worker), {"prompt": b"What are the top rated movies?"}


APPS = {"ssb": _ssb, "logproc": _logproc, "text2sql": _text2sql}


@pytest.fixture
def responses_built(monkeypatch):
    """Idents of response envelopes whose bytes got built (the one writer)."""
    built = []
    original = EnvelopeItem.data.fget

    def counting(self):
        if self._data is None and "status" in self.fields:
            built.append(self.ident)
        return original(self)

    monkeypatch.setattr(EnvelopeItem, "data", property(counting))
    return built


def _plain_item(*args, **kwargs):
    envelope = EnvelopeItem(*args, **kwargs)
    return DataItem(envelope.ident, envelope.data, key=envelope.key)


def _run(app):
    with pytest.MonkeyPatch.context() as patch:
        memory_series.install(patch)
        worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))
    composition, inputs = APPS[app](worker)
    result = worker.invoke_and_run(composition, inputs)
    assert result.ok
    outputs = {
        name: [(item.ident, item.key, item.data) for item in data_set]
        for name, data_set in result.outputs.items()
    }
    memory = worker.memory
    return outputs, result.finished_at, memory.times, memory.values, memory.peak_bytes


@pytest.mark.parametrize("app", sorted(APPS))
def test_by_reference_equals_wire_form(app, monkeypatch, responses_built):
    by_reference = _run(app)
    assert responses_built == []  # accounted, never built
    monkeypatch.setattr(comm_engine, "EnvelopeItem", _plain_item)
    through_wire_form = _run(app)
    assert responses_built  # the forced run did go through the writer
    assert by_reference == through_wire_form
    assert len(by_reference[2]) > 4 and by_reference[4] > 0  # a real memory series was compared
