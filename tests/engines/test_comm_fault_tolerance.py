"""Tests for §6.1 communication-function fault tolerance.

An exchange that misses its deadline is transparently re-issued when its
HTTP method is idempotent (GET/HEAD/PUT/DELETE); non-idempotent methods
(POST) surface the failure to the user instead of risking duplicated
side effects.
"""

import pytest

from repro.data import DataItem, DataSet
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.engines.comm_engine import IDEMPOTENT_METHODS, MAX_RETRIES
from repro.functions import format_http_request, parse_http_response_item
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment

DEADLINE = 0.005


class SlowFirstEcho(EchoService):
    """An echo service whose first ``slow`` exchanges overrun the
    deadline by far; every later one is fast."""

    def __init__(self, slow: int):
        super().__init__()
        self.slow = slow
        self.calls = 0

    def service_seconds(self, request, response) -> float:
        self.calls += 1
        extra = 0.05 if self.calls <= self.slow else 0.0
        return extra + super().service_seconds(request, response)


def setup(slow):
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(SlowFirstEcho(slow))
    group = EngineGroup(
        env, "communication", lambda group, name: CommunicationEngine(env, group, network)
    )
    (engine,) = group.engines
    return env, network, group, engine


def run_one(env, group, method="GET", body=b""):
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", [
            DataItem("r", format_http_request(method, "http://echo.internal/", body=body))
        ])],
        output_set_names=["response"],
        timeout=DEADLINE,
    )
    done = env.event()
    group.submit(task, done.succeed)
    outcome = env.run(until=done)
    return parse_http_response_item(outcome.outputs[0].item("r").data)


def test_idempotent_methods_set():
    assert "GET" in IDEMPOTENT_METHODS
    assert "PUT" in IDEMPOTENT_METHODS
    assert "POST" not in IDEMPOTENT_METHODS


def test_no_failures_no_retries():
    env, _network, group, engine = setup(slow=0)
    envelope = run_one(env, group)
    assert envelope["status"] == 200
    assert engine.retries_performed == 0
    assert engine.exchange_timeouts == 0


def test_get_retried_through_transient_failures():
    # Two overdue attempts, then a fast one: within the retry budget.
    env, network, group, engine = setup(slow=MAX_RETRIES)
    envelope = run_one(env, group)
    assert envelope["status"] == 200
    assert engine.retries_performed == engine.exchange_timeouts == MAX_RETRIES
    assert network.requests_sent == MAX_RETRIES + 1


def test_post_never_retried():
    env, network, group, engine = setup(slow=1)
    envelope = run_one(env, group, method="POST", body=b"side-effect")
    assert envelope["status"] == 504
    assert envelope["idempotent"] is False
    assert envelope["retried"] == 0
    assert engine.retries_performed == 0
    # The one overdue exchange is the only one sent.
    assert network.requests_sent == 1


def test_get_gives_up_after_max_retries():
    env, _network, group, engine = setup(slow=MAX_RETRIES + 1)
    envelope = run_one(env, group)
    assert envelope["status"] == 504
    assert envelope["idempotent"] is True
    assert envelope["retried"] == MAX_RETRIES == 2
    assert engine.retries_performed == MAX_RETRIES


def test_retries_cost_time():
    env_clean, _n1, group_clean, _e1 = setup(slow=0)
    run_one(env_clean, group_clean)
    env_flaky, _n2, group_flaky, _e2 = setup(slow=1)
    run_one(env_flaky, group_flaky)
    # The overdue attempt costs its whole deadline before the re-issue.
    assert env_flaky.now == pytest.approx(env_clean.now + DEADLINE)
