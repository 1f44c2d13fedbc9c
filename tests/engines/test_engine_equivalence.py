"""The callback engines against the generator oracle, on the same runs.

`generator_engines.py` holds the former engines: processes reading a
`Store`, a `_handle` process per communication task, one more per
request item, `AnyOf` deadline races and `SHUTDOWN` retirement.  The
engines, their group and the network exchange are now callback machines
whose claim is that schedule.  This holds them to it on random task
mixes run through both:

* compute tasks (fast, slow, failing, over their timeout) and
  communication tasks with 0-4 items, including unknown hosts,
  malformed and unsanitary requests;
* transient compute faults, deadlines that do and do not bite (and
  idempotent re-issues), limp multipliers switched mid-run, and a core
  moved between
  the groups (shrink one, grow the other on retirement) or added;
* a caller continuation that submits a follow-up task in the completion
  step, so a queued task is taken after it, and submissions, completions
  and moves that share an instant.

Compared: one trace, in heap order, of every outcome handed to the
caller, every sandbox the backend builds, every fault draw and every
request a service answers, each with its virtual time; per engine,
retired ones included, `tasks_executed` and, for the communication
engines, `retries_performed`, `exchange_timeouts` and
`handler_faults`; group totals and the network's counters.
"""

from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import engines as product
from repro.backends import create_backend
from repro.data import DataItem, DataSet
from repro.engines.throttle import EngineThrottle
from repro.functions import compute_function, format_http_request
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment, Rng

from . import generator_engines as oracle


@compute_function(name="eq_fast", compute_cost=1e-4)
def _fast(vfs):
    vfs.write_bytes("/out/out/r", vfs.read_bytes("/in/in/x") + b"!")


@compute_function(name="eq_slow", compute_cost=4e-4)
def _slow(vfs):
    vfs.write_bytes("/out/out/r", b"slow")


@compute_function(name="eq_buggy")
def _buggy(vfs):
    raise ValueError("user bug")


_BINARIES = [_fast, _slow, _buggy]

_HTTP_ITEMS = [
    format_http_request("GET", "http://echo.internal/", body=b"get"),
    format_http_request("POST", "http://echo.internal/", body=b"post"),
    format_http_request("PUT", "http://echo.internal/", body=b"x" * 3000),
    format_http_request("GET", "http://ghost.internal/"),
    format_http_request("TRACE", "http://echo.internal/"),
    b"not json",
]
_TIMES = [0.0, 1e-4, 3e-4, 1e-3, 2.5e-3]
_LIMPS = [1.0, 2.5, 4.0]

_compute_tasks = st.tuples(
    st.just("compute"),
    st.sampled_from(range(len(_BINARIES))),
    st.booleans(),                                    # binary cached
    st.sampled_from([None, None, 5e-5]),              # timeout
)
_comm_tasks = st.tuples(
    st.just("comm"),
    st.lists(st.integers(0, len(_HTTP_ITEMS) - 1), max_size=4),
    st.sampled_from([None, 1e-3, 1.0]),               # timeout
)
_tasks = st.one_of(_compute_tasks, _comm_tasks)
_jobs = st.lists(
    st.tuples(st.sampled_from(_TIMES), _tasks, st.one_of(st.none(), _tasks)),
    min_size=1,
    max_size=12,
)
_moves = st.lists(
    st.tuples(
        st.sampled_from(_TIMES),
        st.one_of(
            st.tuples(st.just("limp"), st.sampled_from(_LIMPS)),
            st.tuples(st.just("move"), st.sampled_from(["compute", "comm"])),
            st.tuples(st.just("grow"), st.sampled_from(["compute", "comm"])),
        ),
    ),
    max_size=4,
)


def _task(module, spec, index):
    if spec[0] == "compute":
        _kind, binary, cached, timeout = spec
        return module.Task(
            kind="compute",
            input_sets=[DataSet("in", [DataItem("x", b"in%d" % index)])],
            output_set_names=["out"],
            binary=_BINARIES[binary],
            cached=cached,
            timeout=timeout,
        )
    _kind, items, timeout = spec
    # Fresh bytes per item, as each invocation formats its own requests:
    # the product's memo is keyed by value, the oracle parses every time.
    requests = [DataItem(f"i{n}", bytearray(_HTTP_ITEMS[k]), key=f"k{k}") for n, k in enumerate(items)]
    return module.Task(
        kind="communication",
        input_sets=[DataSet("request", requests)],
        output_set_names=["response"],
        timeout=timeout,
    )


def _summary(outcome):
    outputs = None
    if outcome.outputs is not None:
        outputs = [
            (data_set.ident, [(item.ident, item.key, bytes(item.data)) for item in data_set])
            for data_set in outcome.outputs
        ]
    return (
        outcome.success, type(outcome.error).__name__, str(outcome.error),
        outcome.transient, outcome.service_seconds, outputs,
    )


def _traced(env, trace, tag, target, method):
    """Record each call of ``target.method`` and what it returned."""
    original = getattr(target, method)

    def traced(*args, **kwargs):
        result = original(*args, **kwargs)
        # A sandbox run by its service time, an HTTP response by status.
        brief = getattr(result, "total_seconds", getattr(result, "status", result))
        trace.append((env.now, tag, method, brief))
        return result

    setattr(target, method, traced)


def _observe(jobs, moves, echo_extra, compute_faults, compute_count, comm_count, use_oracle):
    module = oracle if use_oracle else product
    env = Environment()
    trace = []
    network = SimulatedNetwork(env, LatencyModel())
    echo = EchoService(extra_seconds=echo_extra)
    network.register(echo)
    backend = create_backend("kvm", "linux")
    throttle = EngineThrottle()
    compute_rng = Rng(11)
    for tag, target, method in [
        ("echo", echo, "handle"), ("compute", compute_rng, "bernoulli"),
        ("sandbox", backend, "execute"), ("sandbox", backend, "creation_seconds"),
    ]:
        _traced(env, trace, tag, target, method)
    engines = {}

    def compute_engine(queue_or_group, name):
        engines[name] = module.ComputeEngine(
            env, queue_or_group, backend, name=name,
            failure_rng=compute_rng if compute_faults else None,
            transient_failure_rate=compute_faults, throttle=throttle,
        )
        return engines[name]

    def comm_engine(queue_or_group, name):
        engines[name] = module.CommunicationEngine(
            env, queue_or_group, network, name=name, throttle=throttle
        )
        return engines[name]

    groups = {
        "compute": module.EngineGroup(env, "compute", compute_engine, compute_count),
        "comm": module.EngineGroup(env, "communication", comm_engine, comm_count),
    }
    moving = []

    def submit(spec, index, then):
        task = _task(module, spec, index)
        group = groups[spec[0]]
        on_done = partial(finished, index, then)
        if use_oracle:
            task.completion = env.event()
            group.submit(task)
            task.completion.callbacks.append(lambda event: on_done(event.value))
        else:
            group.submit(task, on_done)

    def finished(index, then, outcome):
        trace.append((env.now, "outcome", index, _summary(outcome)))
        if then is not None:
            submit(then, index + 100, None)

    def move(source):
        group = groups[source]
        if moving or group.engine_count <= 1:
            return
        moving.append(source)
        target = groups["comm" if source == "compute" else "compute"]

        def retired(_engine):
            target.grow()
            trace.append((env.now, "moved", source))
            moving.clear()

        if use_oracle:
            group.shrink().callbacks.append(lambda event: retired(None))
        else:
            group.shrink(retired)

    for index, (at, spec, then) in enumerate(jobs):
        env.call_later(at, submit, spec, index, then)
    for at, (action, arg) in moves:
        if action == "limp":
            env.call_later(at, throttle.set, arg)
        elif action == "move":
            env.call_later(at, move, arg)
        elif len(groups[arg].engines) < 4:
            env.call_later(at, groups[arg].grow)
    env.run()

    counters = {}
    for name, engine in sorted(engines.items()):
        counters[name] = (engine.tasks_executed,) + tuple(
            getattr(engine, counter, None)
            for counter in ("retries_performed", "exchange_timeouts", "handler_faults")
        )
    return {
        "trace": trace,
        "engines": counters,
        "groups": {
            name: (group.engine_count, group.tasks_executed)
            for name, group in groups.items()
        },
        "network": (network.requests_sent, network.bytes_sent, network.bytes_received),
        "drained": env.now,
    }


def _assert_engines_agree(*args):
    observed = _observe(*args, use_oracle=False)
    assert observed == _observe(*args, use_oracle=True)
    return observed


@settings(max_examples=300, deadline=None)
@given(
    _jobs,
    _moves,
    st.sampled_from([0.0, 2e-3]),                     # echo service time: deadlines bite
    st.sampled_from([0.0, 0.3]),                      # transient compute faults
    st.integers(1, 3),                                # compute engines
    st.integers(1, 2),                                # comm engines
)
# A queued task is taken after the caller's continuation has run.
@example(
    [(0.0, ("compute", 0, False, None), None)] * 2, [], 0.0, 0.0, 1, 1,
)
# A move's continuation comes three hops after the retirement, behind a
# task submitted in the same instant.
@example(
    [(0.0, ("compute", 0, False, None), None)] * 2
    + [(0.001, ("comm", [], None), None)],
    [(0.001, ("move", "compute"))], 0.0, 0.0, 2, 1,
)
# A green thread starts one hop after its task's parse, behind a move.
@example(
    [
        (0.0, ("compute", 0, False, None), None),
        (0.0, ("comm", [], None), None),
        (1e-4, ("comm", [], None), ("compute", 0, False, None)),
    ],
    [(1e-4, ("move", "compute"))], 0.0, 0.0, 3, 1,
)
# A move while tasks queue on both groups, with follow-ups.
@example(
    [(0.0, ("compute", 1, False, None), ("compute", 0, True, None))] * 3
    + [(0.0, ("comm", [0, 1], 1e-3), ("comm", [0, 3, 5], None))],
    [(1e-4, ("move", "compute")), (1e-4, ("limp", 2.5))],
    2e-3, 0.3, 2, 1,
)
# An engine grown after a shrink takes the retirement.
@example(
    [(0.0, ("compute", 0, False, None), None)] * 2
    + [(0.0, ("compute", 0, True, None), None)]
    + [(0.0, ("comm", [], None), None)] * 3,
    [(0.0, ("move", "compute")), (1e-4, ("grow", "compute"))], 0.0, 0.0, 2, 1,
)
def test_property_engines_match_generator_oracle(
    jobs, moves, echo_extra, compute_faults, compute_count, comm_count
):
    observed = _assert_engines_agree(
        jobs, moves, echo_extra, compute_faults, compute_count, comm_count
    )
    outcomes = [entry for entry in observed["trace"] if entry[1] == "outcome"]
    assert len(outcomes) == len(jobs) + sum(then is not None for _at, _spec, then in jobs)
