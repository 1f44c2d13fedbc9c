"""Experiment harnesses: one module per paper table/figure."""

from .. import _lazy_exports

_EXPORTS = {
    "ExperimentResult": ".common",
    "ascii_chart": ".common",
    "render_table": ".common",
    "run_fig01": ".fig01_fig10_azure",
    "run_fig10": ".fig01_fig10_azure",
    "run_fig10_full": ".fig10_full",
    "run_fig02": ".fig02_hot_ratio",
    "run_fig05": ".fig05_creation_throughput",
    "matmul_128_binary": ".fig06_matmul_throughput",
    "run_fig06": ".fig06_matmul_throughput",
    "run_fig07": ".fig07_split_benefit",
    "run_fig08": ".fig08_multiplexing",
    "run_fig09": ".fig09_ssb_athena",
    "run_fig09_scaling": ".fig09_scaling",
    "dandelion_query_seconds": ".fig09_scaling",
    "DandelionLoadModel": ".loaded_dandelion",
    "run_sec61": ".sec61_fault_tolerance",
    "run_sec62": ".sec62_scheduling",
    "run_sec63": ".sec63_gray_failures",
    "run_sec74": ".sec74_composition_chain",
    "run_sec77": ".sec77_text2sql",
    "run_sec8_enforcement": ".sec8_security",
    "run_sec8_static": ".sec8_security",
    "run_sec8_tcb": ".sec8_security",
    "matmul_1x1_binary": ".table1_breakdown",
    "run_table1": ".table1_breakdown",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
