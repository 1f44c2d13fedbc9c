"""Text2SQL agentic AI workflow (§7.7).

The paper ports a Text2SQL workflow from the TAG benchmark suite: five
steps over ~2 s, with the LLM call dominating (61%):

1. parse the input prompt (221 ms, compute),
2. request an LLM with the prompt via HTTP (1238 ms, communication),
3. extract the SQL query from the LLM's response (207 ms, compute),
4. issue the SQL query via HTTP to a SQLite database (136 ms,
   communication),
5. format the database response (213 ms, compute).

The compute steps are Dandelion Python compute functions; the LLM and
database are reached through communication functions.  Here the LLM is
the deterministic mock in :class:`~repro.net.services.LlmService` and
the database is the mini SQL engine behind
:class:`~repro.net.services.SqlDatabaseService` — the pipeline runs for
real end to end.
"""

from __future__ import annotations

import json
import re

from ..functions.sdk import (
    compute_function,
    format_http_request,
    parse_http_response_item,
    read_items,
    write_item,
)
from ..net.services import LlmService, SqlDatabaseService
from ..query.columnar import Table
from ..query.sql import SqlDatabase
from ..worker import WorkerNode

__all__ = [
    "PAPER_STEP_SECONDS",
    "setup_text2sql_services",
    "register_text2sql_app",
    "sample_movie_database",
    "extract_sql",
]

# The paper's measured per-step latencies (seconds).
PAPER_STEP_SECONDS = {
    "parse_prompt": 0.221,
    "llm_request": 1.238,
    "extract_sql": 0.207,
    "db_query": 0.136,
    "format_response": 0.213,
}

_SQL_BLOCK = re.compile(r"```sql\s*(.+?)\s*```", re.DOTALL | re.IGNORECASE)


def extract_sql(completion: str) -> str:
    """Pull the SQL statement out of an LLM completion."""
    match = _SQL_BLOCK.search(completion)
    if match:
        return match.group(1).strip()
    for line in completion.splitlines():
        if line.strip().lower().startswith("select"):
            return line.strip()
    raise ValueError("no SQL found in LLM completion")


def sample_movie_database() -> SqlDatabase:
    """The toy database the example workflow queries."""
    db = SqlDatabase()
    db.add_table(Table("movies", {
        "title": [
            "The Arrival", "Night Train", "Paper Cranes", "Silent Harbor",
            "Golden Hour", "The Last Ledger", "Cloud Atlas 2", "Morning Tide",
        ],
        "rating": [8.4, 6.9, 7.8, 8.9, 7.2, 9.1, 6.5, 8.0],
        "year": [2016, 2009, 2018, 2021, 2014, 2022, 2011, 2019],
    }))
    return db


def setup_text2sql_services(
    worker: WorkerNode,
    database: "SqlDatabase | None" = None,
    llm_latency_seconds: float = PAPER_STEP_SECONDS["llm_request"],
) -> SqlDatabase:
    """Provision the mock LLM and SQL database services."""
    database = database or sample_movie_database()
    worker.network.register(LlmService(latency_seconds=llm_latency_seconds))
    worker.network.register(SqlDatabaseService(executor=database.execute_rows))
    return database


@compute_function(name="t2s_parse", compute_cost=PAPER_STEP_SECONDS["parse_prompt"])
def parse_prompt(vfs):
    prompt = vfs.read_text("/in/prompt/prompt").strip()
    if not prompt:
        raise ValueError("empty prompt")
    payload = json.dumps({
        "prompt": prompt,
        "system": "You translate questions to SQL over the given schema.",
        "schema": "movies(title TEXT, rating REAL, year INTEGER)",
    })
    write_item(
        vfs, "llm_request", "r",
        format_http_request("POST", "http://llm.internal/v1/generate", body=payload.encode()),
    )


@compute_function(name="t2s_extract", compute_cost=PAPER_STEP_SECONDS["extract_sql"])
def extract(vfs):
    response = parse_http_response_item(read_items(vfs, "llm_response")[0])
    if response["status"] != 200:
        raise RuntimeError(f"LLM call failed: {response}")
    completion = json.loads(response["body"])["completion"]
    sql = extract_sql(completion)
    write_item(
        vfs, "db_request", "q",
        format_http_request("POST", "http://db.internal/query", body=sql.encode()),
    )


@compute_function(name="t2s_format", compute_cost=PAPER_STEP_SECONDS["format_response"])
def format_response(vfs):
    response = parse_http_response_item(read_items(vfs, "db_response")[0])
    if response["status"] != 200:
        raise RuntimeError(f"database query failed: {response}")
    rows = json.loads(response["body"])
    if not rows:
        text = "No results."
    else:
        columns = list(rows[0])
        lines = [" | ".join(columns)]
        lines += [" | ".join(str(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines)
    write_item(vfs, "answer", "text", text.encode())


TEXT2SQL_DSL = """
composition text2sql {
    compute parse uses t2s_parse in(prompt) out(llm_request);
    comm llm;
    compute extract uses t2s_extract in(llm_response) out(db_request);
    comm db;
    compute format uses t2s_format in(db_response) out(answer);

    input prompt -> parse.prompt;
    parse.llm_request -> llm.request [all];
    llm.response -> extract.llm_response [all];
    extract.db_request -> db.request [all];
    db.response -> format.db_response [all];
    output format.answer -> answer;
}
"""


def register_text2sql_app(worker: WorkerNode) -> str:
    """Register the workflow on a worker; returns the composition name."""
    for binary in (parse_prompt, extract, format_response):
        worker.frontend.register_function(binary)
    worker.frontend.register_composition(TEXT2SQL_DSL)
    return "text2sql"
