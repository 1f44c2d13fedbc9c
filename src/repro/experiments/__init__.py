"""Experiment harnesses: one module per paper table/figure."""

from .common import ExperimentResult, ascii_chart, render_table
from .fig01_fig10_azure import run_fig01, run_fig10
from .fig02_hot_ratio import run_fig02
from .fig05_creation_throughput import run_fig05
from .fig06_matmul_throughput import matmul_128_binary, run_fig06
from .fig07_split_benefit import run_fig07
from .fig08_multiplexing import run_fig08
from .fig09_scaling import dandelion_query_seconds, run_fig09_scaling
from .fig09_ssb_athena import run_fig09
from .fig10_full import full_trace, run_fig10_full
from .loaded_dandelion import DandelionLoadModel
from .sec61_fault_tolerance import run_sec61
from .sec62_scheduling import run_sec62
from .sec63_gray_failures import run_sec63
from .sec74_composition_chain import run_sec74
from .sec77_text2sql import run_sec77
from .sec8_security import run_sec8_enforcement, run_sec8_static, run_sec8_tcb
from .table1_breakdown import matmul_1x1_binary, run_table1

__all__ = [
    "ExperimentResult",
    "ascii_chart",
    "render_table",
    "run_fig01",
    "run_fig10",
    "run_fig10_full",
    "full_trace",
    "run_fig02",
    "run_fig05",
    "matmul_128_binary",
    "run_fig06",
    "run_fig07",
    "run_fig08",
    "run_fig09",
    "run_fig09_scaling",
    "dandelion_query_seconds",
    "DandelionLoadModel",
    "run_sec61",
    "run_sec62",
    "run_sec63",
    "run_sec74",
    "run_sec77",
    "run_sec8_enforcement",
    "run_sec8_static",
    "run_sec8_tcb",
    "matmul_1x1_binary",
    "run_table1",
]
