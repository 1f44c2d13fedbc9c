"""Tests for the PI controller and the core allocator."""

import pytest

from repro.controlplane import PiController
from repro.backends import create_backend
from repro.controlplane.allocator import CONTROL_EPOCH_SECONDS, MIN_ENGINES, CoreAllocator
from repro.controlplane.pi_controller import DEADBAND, INTEGRAL_GAIN, INTEGRAL_LIMIT, PROPORTIONAL_GAIN
from repro.engines import CommunicationEngine, ComputeEngine, EngineGroup
from repro.net import LatencyModel, SimulatedNetwork
from repro.sim import Environment


def test_balanced_growth_no_action():
    controller = PiController()
    assert controller.update(5, 5) == 0
    assert controller.last_error == 0


def test_compute_pressure_moves_core_to_compute():
    controller = PiController()
    assert controller.update(10, 0) == +1
    assert controller.last_signal > 0


def test_comm_pressure_moves_core_to_comm():
    controller = PiController()
    assert controller.update(0, 10) == -1


def test_deadband_suppresses_small_errors():
    controller = PiController()
    assert controller.update(0.4, 0) == 0
    assert 0 < controller.last_signal <= DEADBAND
    assert controller.update(0, 0.4) == 0
    assert abs(controller.last_signal) <= DEADBAND


def test_integral_accumulates_persistent_small_error():
    controller = PiController()
    decisions = [controller.update(0.3, 0) for _ in range(10)]
    assert decisions[0] == 0  # the proportional term alone is inside the deadband
    assert +1 in decisions  # small persistent error eventually acts


def test_integral_clamped():
    # Anti-windup at the shipped gains: however large the error, the
    # integral term contributes at most INTEGRAL_GAIN * INTEGRAL_LIMIT.
    for sign in (+1, -1):
        controller = PiController()
        for _ in range(100):
            assert controller.update(sign * 1000, 0) == sign
            assert controller.last_signal == sign * (
                PROPORTIONAL_GAIN * 1000 + INTEGRAL_GAIN * INTEGRAL_LIMIT
            )
            assert abs(controller.integral) <= INTEGRAL_LIMIT


def test_acting_bleeds_integral():
    controller = PiController()
    controller.update(10, 0)
    after_first = controller.integral
    assert after_first < 10.0


def test_reset():
    controller = PiController()
    controller.update(10, 0)
    controller.reset()
    assert controller.integral == 0
    assert controller.last_signal == 0


def _make_groups(env, compute=2, comm=2):
    backend = create_backend("kvm", "linux")
    network = SimulatedNetwork(env, LatencyModel())
    compute_group = EngineGroup(
        env, "compute",
        lambda group, name: ComputeEngine(env, group, backend, name=name),
        initial_count=compute,
    )
    comm_group = EngineGroup(
        env, "communication",
        lambda group, name: CommunicationEngine(env, group, network, name=name),
        initial_count=comm,
    )
    return compute_group, comm_group


def _slow_task(env, group):
    from repro.engines import Task
    from repro.functions import compute_function

    @compute_function(name=f"slow_{id(object())}", compute_cost=0.05)
    def slow(vfs):
        pass

    task = Task(
        kind="compute",
        input_sets=[],
        output_set_names=["out"],
        binary=slow,
    )
    group.submit(task, lambda outcome: None)


def test_allocator_moves_core_under_compute_pressure():
    env = Environment()
    compute_group, comm_group = _make_groups(env, compute=1, comm=3)
    allocator = CoreAllocator(env, compute_group, comm_group)

    # Flood the single compute engine with 50ms tasks: its queue grows
    # every epoch while the comm queue stays flat.
    def pressure():
        for _ in range(200):
            _slow_task(env, compute_group)
            yield env.timeout(0.002)

    env.process(pressure())
    env.run(until=0.5)
    moves = [direction for _t, direction in allocator.reassignments]
    assert "comm->compute" in moves
    assert compute_group.engine_count > 1


def test_allocator_respects_min_engines():
    env = Environment()
    compute_group, comm_group = _make_groups(env, compute=3, comm=1)
    CoreAllocator(env, compute_group, comm_group)

    def pressure():
        for _ in range(300):
            _slow_task(env, compute_group)
            yield env.timeout(0.0005)

    env.process(pressure())
    env.run(until=0.3)
    assert comm_group.engine_count == MIN_ENGINES


def test_allocator_disabled_does_nothing():
    env = Environment()
    compute_group, comm_group = _make_groups(env)
    allocator = CoreAllocator(env, compute_group, comm_group, enabled=False)
    env.run(until=1.0)
    assert allocator.reassignments == []
    assert compute_group.engine_count == 2
    assert comm_group.engine_count == 2


def test_allocation_history_recorded():
    env = Environment()
    compute_group, comm_group = _make_groups(env)
    allocator = CoreAllocator(env, compute_group, comm_group)
    env.run(until=5.5 * CONTROL_EPOCH_SECONDS)
    assert len(allocator.allocation_history) == 5
    times = [t for t, _c, _m in allocator.allocation_history]
    assert times == sorted(times)


def test_allocator_takes_no_policy_object():
    # The PI controller is the allocator's one core policy; a static
    # split is enabled=False.
    env = Environment()
    compute_group, comm_group = _make_groups(env)
    with pytest.raises(TypeError):
        CoreAllocator(env, compute_group, comm_group, policy=object())
