"""End-to-end tests for the three paper applications on a worker node."""

import os
import subprocess
import sys

import pytest

from repro.apps import (
    DEFAULT_TOKEN,
    PAPER_STEP_SECONDS,
    extract_sql,
    generate_test_image,
    register_compression_app,
    register_logproc_app,
    register_text2sql_app,
    sample_movie_database,
    setup_log_services,
    setup_text2sql_services,
)
from repro.apps.png import png_decode
from repro.data import DataItem, DataSet
from repro.worker import WorkerConfig, WorkerNode


def make_worker():
    return WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))


# -- image compression ---------------------------------------------------------


def test_compression_app_produces_valid_png():
    worker = make_worker()
    register_compression_app(worker)
    image = generate_test_image()
    result = worker.invoke_and_run(
        "image_compress", {"image": DataSet("image", [DataItem("photo", image)])}
    )
    assert result.ok
    png = result.output("png").item("photo.png").data
    pixels, width, height, _channels = png_decode(png)
    assert width == height == 76


def test_compression_latency_near_paper():
    worker = make_worker()
    register_compression_app(worker)
    image = generate_test_image()
    result = worker.invoke_and_run(
        "image_compress", {"image": DataSet("image", [DataItem("photo", image)])}
    )
    # Paper Fig 8: 18.23 ms average on Dandelion.
    assert 0.014 < result.latency < 0.025


def test_compression_multiple_images_one_invocation():
    worker = make_worker()
    register_compression_app(worker)
    items = [DataItem(f"img{i}", generate_test_image(seed=i)) for i in range(3)]
    result = worker.invoke_and_run("image_compress", {"image": DataSet("image", items)})
    assert result.ok
    assert len(result.output("png")) == 3


# -- log processing --------------------------------------------------------------


def test_logproc_end_to_end():
    worker = make_worker()
    setup_log_services(worker, shard_count=4, lines_per_shard=30)
    register_logproc_app(worker)
    result = worker.invoke_and_run("logproc", {"token": DEFAULT_TOKEN.encode()})
    assert result.ok
    report = result.output("report").item("report").text()
    assert "total_lines=120" in report
    assert report.count("<section") == 4


def test_logproc_counts_errors():
    worker = make_worker()
    setup_log_services(worker, shard_count=2, lines_per_shard=34)
    register_logproc_app(worker)
    result = worker.invoke_and_run("logproc", {"token": DEFAULT_TOKEN.encode()})
    report = result.output("report").item("report").text()
    # Lines 0, 17 are ERROR in each shard of 34 lines.
    assert "errors=4" in report


def test_logproc_invalid_token_fails_invocation():
    worker = make_worker()
    setup_log_services(worker)
    register_logproc_app(worker)
    result = worker.invoke_and_run("logproc", {"token": b"wrong-token"})
    assert not result.ok
    assert "authorization failed" in str(result.error)


def test_logproc_shard_fanout_parallel():
    worker = make_worker()
    setup_log_services(worker, shard_count=6)
    register_logproc_app(worker)
    result = worker.invoke_and_run("logproc", {"token": DEFAULT_TOKEN.encode()})
    assert result.ok
    # access + fanout + render = 3 compute tasks; 1 auth + 6 shard
    # fetches = 7 comm tasks.
    assert worker.compute_group.tasks_executed == 3
    assert worker.comm_group.tasks_executed == 7


def test_logproc_loads_neither_numpy_nor_the_query_engine():
    # Only Text2SQL's sample database needs repro.query (and numpy
    # with it, about 12 MiB of RSS); a fresh interpreter running the
    # log-processing app must not pay for them.
    script = (
        "import sys\n"
        "from repro.apps import register_logproc_app, setup_log_services\n"
        "from repro.worker import WorkerConfig, WorkerNode\n"
        "worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))\n"
        "setup_log_services(worker)\n"
        "register_logproc_app(worker)\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('repro.query')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


# -- Text2SQL ----------------------------------------------------------------------


def test_extract_sql_variants():
    assert extract_sql("```sql\nSELECT 1\n```") == "SELECT 1"
    assert extract_sql("Sure!\nSELECT a FROM t\n") == "SELECT a FROM t"
    with pytest.raises(ValueError):
        extract_sql("no sql here")


def test_text2sql_end_to_end():
    worker = make_worker()
    setup_text2sql_services(worker)
    register_text2sql_app(worker)
    result = worker.invoke_and_run("text2sql", {"prompt": b"What are the top rated movies?"})
    assert result.ok
    answer = result.output("answer").item("text").text()
    assert "The Last Ledger" in answer  # rating 9.1, must rank first
    assert answer.splitlines()[1].startswith("The Last Ledger")


def test_text2sql_count_query():
    worker = make_worker()
    setup_text2sql_services(worker)
    register_text2sql_app(worker)
    result = worker.invoke_and_run("text2sql", {"prompt": b"How many movies are there?"})
    answer = result.output("answer").item("text").text()
    assert "8" in answer


def test_text2sql_latency_matches_paper_breakdown():
    worker = make_worker()
    setup_text2sql_services(worker)
    register_text2sql_app(worker)
    result = worker.invoke_and_run("text2sql", {"prompt": b"average rating of movies?"})
    total = sum(PAPER_STEP_SECONDS.values())  # ~2.015 s
    assert result.latency == pytest.approx(total, rel=0.05)
    # LLM step dominates: ~61% of end-to-end latency.
    assert 0.55 < PAPER_STEP_SECONDS["llm_request"] / result.latency < 0.68


def test_text2sql_empty_prompt_fails():
    worker = make_worker()
    setup_text2sql_services(worker)
    register_text2sql_app(worker)
    result = worker.invoke_and_run("text2sql", {"prompt": b"   "})
    assert not result.ok


def test_sample_database_contents():
    db = sample_movie_database()
    rows = db.execute_rows("SELECT COUNT(*) AS n FROM movies")
    assert rows == [{"n": 8}]
