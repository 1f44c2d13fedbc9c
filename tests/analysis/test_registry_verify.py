"""Registration-time purity verification (Registry verify= modes)."""

import os

import pytest

from repro.analysis.purity_check import PurityWarning
from repro.composition import PurityVerificationError, Registry
from repro.composition.registry import FunctionBinary, RegistryError
from repro.functions.sdk import write_item


def pure_fn(vfs):
    write_item(vfs, "out", "item", b"ok")


def impure_fn(vfs):
    os.system("true")


def nondeterministic_fn(vfs):
    import time
    write_item(vfs, "out", "stamp", str(time.time()).encode())


def test_default_registration_skips_verification():
    registry = Registry()
    registry.register_function(FunctionBinary(name="f", entry_point=impure_fn))
    assert registry.has_function("f")


def test_strict_rejects_impure_function():
    registry = Registry()
    with pytest.raises(PurityVerificationError) as excinfo:
        registry.register_function(
            FunctionBinary(name="f", entry_point=impure_fn), verify="strict"
        )
    assert not registry.has_function("f")
    assert excinfo.value.diagnostics  # findings travel with the error
    assert any(d.code == "PUR002" for d in excinfo.value.diagnostics)


def test_strict_accepts_pure_function():
    registry = Registry()
    registry.register_function(
        FunctionBinary(name="f", entry_point=pure_fn), verify="strict"
    )
    assert registry.has_function("f")


def test_warn_mode_registers_with_warning():
    registry = Registry()
    with pytest.warns(PurityWarning):
        registry.register_function(
            FunctionBinary(name="f", entry_point=impure_fn), verify="warn"
        )
    assert registry.has_function("f")


def test_strict_allows_warning_level_findings():
    # Nondeterminism is warning severity: strict verification still
    # registers, but surfaces the finding as a PurityWarning.
    registry = Registry()
    with pytest.warns(PurityWarning):
        registry.register_function(
            FunctionBinary(name="f", entry_point=nondeterministic_fn),
            verify="strict",
        )
    assert registry.has_function("f")


def test_unknown_verify_mode_rejected():
    registry = Registry()
    with pytest.raises(RegistryError):
        registry.register_function(
            FunctionBinary(name="f", entry_point=pure_fn), verify="always"
        )


def test_frontend_passes_verify_through():
    from repro.worker import WorkerConfig, WorkerNode

    worker = WorkerNode(WorkerConfig(total_cores=2, control_plane_enabled=False))
    with pytest.raises(PurityVerificationError):
        worker.frontend.register_function(
            FunctionBinary(name="f", entry_point=impure_fn), verify="strict"
        )


# -- composition-level verification (the composition analyzer) ------------------


def _corpus_registry():
    from .dataflow_corpus import build_registry

    return build_registry()


def _racy_composition(registry):
    from repro.composition import parse_composition

    return parse_composition(
        """
        composition fresh_racy {
            compute left uses df_sneaky_writer in(src) out(dst);
            compute right uses df_sneaky_writer in(src) out(dst);
            input a -> left.src;
            input b -> right.src;
            output left.dst -> out_l;
            output right.dst -> out_r;
        }
        """,
        registry.compositions,
    )


def test_composition_strict_rejects_racy_graph():
    from repro.composition import CompositionVerificationError

    registry = _corpus_registry()
    composition = _racy_composition(registry)
    with pytest.raises(CompositionVerificationError) as excinfo:
        registry.register_composition(composition, verify="strict")
    assert not registry.has_composition("fresh_racy")
    assert any(d.code == "RACE001" for d in excinfo.value.diagnostics)


def test_composition_warn_registers_with_warning():
    registry = _corpus_registry()
    composition = _racy_composition(registry)
    with pytest.warns(PurityWarning):
        registry.register_composition(composition, verify="warn")
    assert registry.has_composition("fresh_racy")


def test_composition_default_skips_verification():
    registry = _corpus_registry()
    registry.register_composition(_racy_composition(registry))
    assert registry.has_composition("fresh_racy")


def test_composition_strict_accepts_clean_graph():
    from repro.composition import parse_composition

    registry = _corpus_registry()
    composition = parse_composition(
        """
        composition fresh_clean {
            compute work uses df_copy in(src) out(dst);
            input start -> work.src;
            output work.dst -> result;
        }
        """,
        registry.compositions,
    )
    registry.register_composition(composition, verify="strict")
    assert registry.has_composition("fresh_clean")


def test_composition_invalid_verify_mode_rejected():
    registry = _corpus_registry()
    with pytest.raises(RegistryError):
        registry.register_composition(
            _racy_composition(registry), verify="paranoid"
        )


def test_frontend_register_composition_verify_strict():
    from .dataflow_corpus import _FUNCTIONS
    from repro.composition import CompositionVerificationError
    from repro.worker import WorkerConfig, WorkerNode

    worker = WorkerNode(WorkerConfig(total_cores=2, control_plane_enabled=False))
    for binary in _FUNCTIONS:
        worker.frontend.register_function(binary)
    racy = """
    composition frontend_racy {
        compute left uses df_sneaky_writer in(src) out(dst);
        compute right uses df_sneaky_writer in(src) out(dst);
        input a -> left.src;
        input b -> right.src;
        output left.dst -> out_l;
        output right.dst -> out_r;
    }
    """
    with pytest.raises(CompositionVerificationError):
        worker.frontend.register_composition(racy, verify="strict")
    worker.frontend.register_composition(racy)  # default still permissive
    assert worker.frontend.registry.has_composition("frontend_racy")


def test_frontend_http_verify_query_param():
    from .dataflow_corpus import _FUNCTIONS
    from repro.net import HttpRequest
    from repro.worker import WorkerConfig, WorkerNode

    worker = WorkerNode(WorkerConfig(total_cores=2, control_plane_enabled=False))
    for binary in _FUNCTIONS:
        worker.frontend.register_function(binary)
    racy = (
        "composition http_racy {"
        " compute left uses df_sneaky_writer in(src) out(dst);"
        " compute right uses df_sneaky_writer in(src) out(dst);"
        " input a -> left.src; input b -> right.src;"
        " output left.dst -> out_l; output right.dst -> out_r; }"
    )
    response = worker.frontend.handle(HttpRequest(
        method="POST",
        url="http://worker/v1/compositions?verify=strict",
        body=racy.encode(),
    ))
    assert response.status == 400
    response = worker.frontend.handle(HttpRequest(
        method="POST", url="http://worker/v1/compositions", body=racy.encode(),
    ))
    assert response.status == 201
