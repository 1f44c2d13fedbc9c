"""Tests for the determinism self-lint (DET codes)."""

from repro.analysis.determinism_lint import HOT_PATH_MODULES, lint_self, lint_source


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def test_syntax_error_is_det000():
    diagnostics = lint_source("def broken(:\n", "bad.py")
    assert _codes(diagnostics) == {"DET000"}


def test_wallclock_module_attribute_call():
    source = "import time\n\ndef tick():\n    return time.perf_counter()\n"
    diagnostics = lint_source(source, "x.py")
    assert _codes(diagnostics) == {"DET001"}
    assert diagnostics[0].symbol == "tick"
    assert diagnostics[0].line == 4


def test_wallclock_bare_import_call():
    source = "from time import monotonic\n\ndef tick():\n    return monotonic()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET001"}


def test_wallclock_aliased_module():
    source = "import time as clock\n\ndef tick():\n    return clock.time()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET001"}


def test_datetime_now_flagged():
    source = "import datetime\n\ndef stamp():\n    return datetime.now()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET001"}


def test_module_level_random_flagged():
    source = "import random\n\ndef draw():\n    return random.random()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET002"}


def test_unseeded_random_constructor_flagged():
    source = "import random\n\ndef make():\n    return random.Random()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET002"}


def test_seeded_random_constructor_clean():
    source = "import random\n\ndef make(seed):\n    return random.Random(seed)\n"
    assert lint_source(source, "x.py") == []


def test_bare_random_function_flagged():
    source = "from random import shuffle\n\ndef mix(xs):\n    shuffle(xs)\n"
    assert _codes(lint_source(source, "x.py")) == {"DET002"}


def test_set_literal_iteration_flagged():
    source = "def walk():\n    for x in {1, 2, 3}:\n        pass\n"
    assert _codes(lint_source(source, "x.py")) == {"DET003"}


def test_set_call_iteration_flagged():
    source = "def walk(xs):\n    return [x for x in set(xs)]\n"
    assert _codes(lint_source(source, "x.py")) == {"DET003"}


def test_sorted_set_iteration_clean():
    source = "def walk(xs):\n    return [x for x in sorted(set(xs))]\n"
    assert lint_source(source, "x.py") == []


def test_id_keyed_sort_flagged():
    source = "def order(xs):\n    return sorted(xs, key=id)\n"
    assert _codes(lint_source(source, "x.py")) == {"DET003"}


def test_builtin_hash_call_flagged():
    # str hashes are salted per process (PYTHONHASHSEED): a value
    # derived from one leaks into RNG salts and event order.
    source = "def salt(app):\n    return hash(app) % 1000\n"
    assert _codes(lint_source(source, "x.py")) == {"DET003"}
    # A method named hash is somebody else's function.
    assert lint_source("def f(h):\n    return h.hash()\n", "x.py") == []


def test_hot_path_class_without_slots():
    source = (
        "class Tracker:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
    )
    diagnostics = lint_source(source, "x.py", hot_path=True)
    assert _codes(diagnostics) == {"DET004"}
    assert diagnostics[0].severity == "warning"
    # The same class outside a hot-path module is fine.
    assert lint_source(source, "x.py", hot_path=False) == []


def test_hot_path_class_with_slots_clean():
    source = (
        "class Tracker:\n"
        "    __slots__ = ('count',)\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
    )
    assert lint_source(source, "x.py", hot_path=True) == []


def test_hot_path_exemptions():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "class MyError(Exception):\n"
        "    def __init__(self):\n"
        "        super().__init__('x')\n"
    )
    assert lint_source(source, "x.py", hot_path=True) == []


def test_lint_self_reports_package_relative_paths():
    diagnostics = lint_self()
    assert diagnostics, "CLI/coordinator wall clocks should be found"
    assert all(d.file.startswith("src/repro/") for d in diagnostics)


def test_lint_self_finds_no_unbaselined_errors_outside_harness():
    # Everything lint_self finds today is grandfathered in the shipped
    # baseline; this keeps the two in sync.
    from repro.analysis.diagnostics import Baseline
    from repro.analysis.runner import DEFAULT_BASELINE_PATH

    baseline = Baseline.load(DEFAULT_BASELINE_PATH)
    new, _suppressed = baseline.filter(lint_self())
    assert new == []


def test_hot_path_modules_exist():
    import os

    import repro

    package_root = os.path.dirname(repro.__file__)
    for module in HOT_PATH_MODULES:
        assert os.path.exists(os.path.join(package_root, module)), module


# -- DET005: environment reads -------------------------------------------------


def test_environ_subscript_flagged():
    source = "import os\n\ndef cfg():\n    return os.environ['MODE']\n"
    assert _codes(lint_source(source, "x.py")) == {"DET005"}


def test_getenv_call_flagged():
    source = "import os\n\ndef cfg():\n    return os.getenv('MODE')\n"
    assert _codes(lint_source(source, "x.py")) == {"DET005"}


def test_bare_environ_import_flagged():
    source = "from os import environ\n\ndef cfg():\n    return environ.get('MODE')\n"
    assert _codes(lint_source(source, "x.py")) == {"DET005"}


def test_bare_getenv_import_flagged():
    source = "from os import getenv\n\ndef cfg():\n    return getenv('MODE', '1')\n"
    assert _codes(lint_source(source, "x.py")) == {"DET005"}


def test_aliased_os_module_environ_flagged():
    source = "import os as host\n\ndef cfg():\n    return host.environ['MODE']\n"
    assert _codes(lint_source(source, "x.py")) == {"DET005"}


# -- DET006: wall-clock function objects smuggled as values --------------------


def test_wallclock_as_sort_key_flagged():
    source = (
        "import time\n\ndef newest(items):\n"
        "    return sorted(items, key=time.time)\n"
    )
    assert _codes(lint_source(source, "x.py")) == {"DET006"}


def test_bare_wallclock_as_value_flagged():
    source = (
        "from time import perf_counter\n\ndef hooks():\n"
        "    return {'clock': perf_counter}\n"
    )
    assert _codes(lint_source(source, "x.py")) == {"DET006"}


def test_wallclock_call_is_det001_not_det006():
    source = "import time\n\ndef tick():\n    return time.time()\n"
    assert _codes(lint_source(source, "x.py")) == {"DET001"}


def test_wallclock_default_argument_flagged():
    source = (
        "import time\n\ndef sample(clock=time.perf_counter):\n"
        "    return clock()\n"
    )
    assert _codes(lint_source(source, "x.py")) == {"DET006"}
