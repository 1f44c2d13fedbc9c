"""The lazy package boundaries (PEP 562): `repro`, `repro.backends`,
`repro.baselines`, `repro.cluster`, `repro.dispatcher` and
`repro.experiments` resolve their public names on first use, and a
fresh interpreter loads only what it touches."""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro", "repro.backends", "repro.baselines", "repro.cluster", "repro.dispatcher",
    "repro.experiments",
]

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _fresh(script: str) -> str:
    """Run ``script`` in a new interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_the_defining_modules_object(name):
    package = importlib.import_module(name)
    assert set(package._EXPORTS) <= set(package.__all__)
    for export, module in package._EXPORTS.items():
        defining = importlib.import_module(module, name)
        assert getattr(package, export) is getattr(defining, export), export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    assert not hasattr(package, "__no_such_dunder__")


def test_import_repro_loads_the_package_alone_and_subpackages_on_use():
    out = _fresh(
        "import sys\n"
        "import repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
        "print(repro.scenario.run_scenario.__module__)\n"
    )
    assert out.splitlines() == ["['repro']", "repro.scenario.engine"]


def test_a_trace_replay_loads_no_part_of_the_worker_node():
    # Both arms of the streamed Fig 10 replay run to completion, so this
    # pins that the node's import cost is gone from the replay, not just
    # moved to a later point of it.
    out = _fresh(
        "import sys\n"
        "from repro.scenario import bundled_specs, load_spec, run_scenario\n"
        "spec = load_spec(bundled_specs()['fig10_full']).with_overrides(\n"
        "    {'trace.scale': 1, 'trace.duration_seconds': 10.0})\n"
        "for platform in ('dandelion', 'faas'):\n"
        "    run = run_scenario(spec.with_overrides({'fleet.platform': platform}))\n"
        "    assert run.kpis.completed > 0\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = set(out.splitlines())
    node = {f"repro.{package}" for package in (
        "worker", "engines", "functions", "composition", "data", "net", "frontend")}
    assert not {m for m in loaded if ".".join(m.split(".")[:2]) in node}
    for module in (
        "repro.dispatcher.dispatcher", "repro.cluster.manager", "numpy",
        "repro.baselines.base", "repro.baselines.dhybrid",
    ):
        assert module not in loaded
    # The workers charge their costs from the registries.
    for module in ("repro.sim.sharded.shard", "repro.baselines.specs", "repro.backends.costs"):
        assert module in loaded


def test_the_fig1_harness_loads_neither_numpy_nor_the_query_engine():
    # `repro run fig1` imports this module; its siblings in
    # repro.experiments (Fig 9's SSB queries, the node) stay unloaded.
    out = _fresh(
        "import sys\n"
        "import repro.experiments.fig01_fig10_azure\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = set(out.splitlines())
    assert "numpy" not in loaded
    assert not {m for m in loaded if m == "repro.query" or m.startswith("repro.query.")}
