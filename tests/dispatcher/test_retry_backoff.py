"""Retry backoff and deadline enforcement in the dispatcher.

Covers the §6.1 retry path: transient sandbox faults are retried with
exponential backoff (inter-attempt gaps strictly increase in virtual
time), fault-free runs take the no-retry fast path, and per-invocation
deadlines convert stuck tasks into non-retryable failures instead of
hangs.
"""

from repro.data import DataSet
from repro.errors import DeadlineExceeded, InvocationError
from repro.functions import compute_function
from repro.net import EchoService
from repro.worker import WorkerConfig, WorkerNode


def make_worker(**config_kwargs):
    config_kwargs.setdefault("total_cores", 4)
    config_kwargs.setdefault("control_plane_enabled", False)
    worker = WorkerNode(WorkerConfig(**config_kwargs))
    worker.network.register(EchoService())
    return worker


@compute_function(name="bk_upper", compute_cost=1e-4)
def bk_upper(vfs):
    vfs.write_text("/out/result/text", vfs.read_text("/in/text/text").upper())


SINGLE_NODE = """
composition bk_single {
    compute up uses bk_upper in(text) out(result);
    input text -> up.text;
    output up.result -> result;
}
"""


def prepare(worker):
    worker.frontend.register_function(bk_upper)
    worker.frontend.register_composition(SINGLE_NODE)


def spy_on_submissions(worker):
    """Record the virtual time of every compute-task submission."""
    times = []
    original = worker.compute_group.submit

    def recording_submit(task):
        times.append(worker.env.now)
        return original(task)

    worker.compute_group.submit = recording_submit
    return times


def test_exhausted_retries_use_strictly_increasing_backoff():
    worker = make_worker(transient_failure_rate=1.0, max_retries=4)
    prepare(worker)
    times = spy_on_submissions(worker)
    result = worker.invoke_and_run("bk_single", {"text": b"x"})
    assert not result.ok
    # One initial attempt plus max_retries re-submissions.
    assert len(times) == 5
    assert worker.dispatcher.retries_performed == 4
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap > 0 for gap in gaps), gaps
    # Exponential backoff: each wait strictly dominates the previous
    # one even after jitter (10% max) and the constant service time.
    assert all(later > earlier for earlier, later in zip(gaps, gaps[1:])), gaps


def test_backoff_jitter_is_deterministic_per_seed():
    def run(seed):
        worker = make_worker(transient_failure_rate=1.0, max_retries=3, seed=seed)
        prepare(worker)
        times = spy_on_submissions(worker)
        worker.invoke_and_run("bk_single", {"text": b"x"})
        return times

    assert run(7) == run(7)
    assert run(7) != run(8)  # jitter actually depends on the seed


def test_zero_fault_run_takes_no_retry_fast_path():
    worker = make_worker(transient_failure_rate=0.0)
    prepare(worker)
    times = spy_on_submissions(worker)
    result = worker.invoke_and_run("bk_single", {"text": b"fast"})
    assert result.ok
    assert len(times) == 1  # exactly one submission, no retry machinery
    assert worker.dispatcher.retries_performed == 0
    assert worker.stats()["retries_performed"] == 0
    assert worker.stats()["deadline_expirations"] == 0


def test_transient_faults_eventually_succeed_and_count_retries():
    worker = make_worker(transient_failure_rate=0.5, max_retries=8, seed=3)
    prepare(worker)
    for _ in range(10):
        result = worker.invoke_and_run("bk_single", {"text": b"r"})
        assert result.ok
    assert worker.dispatcher.retries_performed > 0


def test_backoff_never_sleeps_past_the_deadline():
    # Regression: each backoff sleep used to be taken unconditionally,
    # so a transient-fault retry chain could keep sleeping long after
    # the invocation's deadline — the caller had already been promised a
    # DeadlineExceeded but the dispatcher burned virtual time (and
    # retries) on a corpse.  Every inter-attempt gap must now fit inside
    # the remaining deadline budget, and the chain must surface
    # DeadlineExceeded the moment the next backoff alone would overrun.
    deadline = 0.004
    worker = make_worker(
        transient_failure_rate=1.0, max_retries=20, default_timeout=deadline
    )
    prepare(worker)
    times = spy_on_submissions(worker)
    started = worker.env.now
    result = worker.invoke_and_run("bk_single", {"text": b"x"})
    assert not result.ok
    assert "deadline" in str(result.error)
    # Every attempt was submitted inside the deadline window: the chain
    # stopped instead of sleeping past it.
    assert times, "at least the initial attempt must submit"
    assert all(t - started <= deadline for t in times), times
    # The retry budget was NOT exhausted — the deadline cut the chain.
    assert worker.dispatcher.retries_performed < 20
    assert worker.dispatcher.deadline_expirations >= 1
    # And the dispatcher gave up no later than the deadline itself.
    assert worker.env.now - started <= deadline + 1e-9


def test_deadline_cut_releases_memory_context():
    # The early DeadlineExceeded return path must release the node's
    # memory context like every other exit path does.
    worker = make_worker(
        transient_failure_rate=1.0, max_retries=20, default_timeout=0.004
    )
    prepare(worker)
    worker.invoke_and_run("bk_single", {"text": b"x"})
    assert worker.memory.current_bytes == 0
    assert worker.memory.live_context_count == 0


def _register_slow_fetch(worker, host="slowecho"):
    from repro.functions import (
        format_http_request,
        parse_http_response_item,
        read_items,
        write_item,
    )

    @compute_function(name="bk_gen", compute_cost=1e-5)
    def gen(vfs):
        write_item(vfs, "request", "r", format_http_request("GET", f"http://{host}/"))

    @compute_function(name="bk_check", compute_cost=1e-5)
    def check(vfs):
        envelope = parse_http_response_item(read_items(vfs, "response")[0].data)
        write_item(vfs, "out", "status", str(envelope["status"]).encode())

    worker.frontend.register_function(gen)
    worker.frontend.register_function(check)
    worker.frontend.register_composition(
        """
        composition bk_fetch {
            compute g uses bk_gen in(seed) out(request);
            comm c;
            compute k uses bk_check in(response) out(out);
            input seed -> g.seed;
            g.request -> c.request [all];
            c.response -> k.response [all];
            output k.out -> out;
        }
        """
    )


def test_deadline_expiration_is_not_retried():
    # A communication node against a slow backend: the exchange cannot
    # finish inside the deadline, so the dispatcher must fail the task
    # with DeadlineExceeded and must NOT burn retries on it.
    worker = make_worker(default_timeout=0.005, max_retries=3)
    worker.network.register(EchoService(host="slowecho", extra_seconds=1.0))
    _register_slow_fetch(worker)
    result = worker.invoke_and_run("bk_fetch", {"seed": b""})
    assert not result.ok
    assert "deadline" in str(result.error)
    assert worker.dispatcher.deadline_expirations >= 1
    assert worker.dispatcher.retries_performed == 0


def test_deadline_failure_carries_deadline_exceeded_cause():
    # The structured outcome of a missed deadline, as a caller of the
    # dispatcher sees it: the failing node's DeadlineExceeded is the
    # cause of the invocation's error, and it is not retried (it is not
    # transient).
    worker = make_worker(default_timeout=0.005, max_retries=2)
    worker.network.register(EchoService(host="slowecho", extra_seconds=1.0))
    _register_slow_fetch(worker)
    dispatcher = worker.dispatcher

    result = worker.env.run(
        until=dispatcher.invoke("bk_fetch", {"seed": DataSet("seed", [])})
    )
    assert not result.ok
    assert isinstance(result.error, InvocationError)
    assert isinstance(result.error.__cause__, DeadlineExceeded)
    assert dispatcher.retries_performed == 0
    assert dispatcher.deadline_expirations == 1
    assert worker.memory.current_bytes == 0
