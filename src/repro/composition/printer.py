"""Serializing compositions back to composition-language source.

The inverse of :func:`repro.composition.dsl.parse_composition`: useful
for registering a programmatically built composition over the HTTP
interface, for debugging, and for round-trip testing of the parser.
"""

from __future__ import annotations

from .graph import Composition, Distribution

__all__ = ["composition_to_dsl"]


def composition_to_dsl(composition: Composition) -> str:
    """Render a composition as parseable composition-language source.

    Nested composition nodes are emitted as ``compose`` statements; the
    caller must supply the nested compositions via the parser's
    ``library`` argument when re-parsing.
    """
    lines: list[str] = [f"composition {composition.name} {{"]
    if composition.deadline_seconds is not None:
        # Render in microseconds when that is exact-ish, else seconds;
        # "%g" keeps round-trips stable for the values the DSL accepts.
        micros = composition.deadline_seconds * 1e6
        if micros == int(micros):
            lines.append(f"    deadline {int(micros)}us;")
        else:
            lines.append(f"    deadline {composition.deadline_seconds:g}s;")
    for node in composition.nodes.values():
        if node.kind == "compute":
            inputs = ", ".join(node.input_sets)
            outputs = ", ".join(node.output_sets)
            lines.append(
                f"    compute {node.name} uses {node.function} "
                f"in({inputs}) out({outputs});"
            )
        elif node.kind == "communication":
            lines.append(f"    comm {node.name} protocol http;")
        else:
            lines.append(f"    compose {node.name} uses {node.composition.name};")
    for binding in composition.inputs:
        lines.append(f"    input {binding.external} -> {binding.node}.{binding.node_set};")
    for edge in composition.edges:
        suffix = "" if edge.distribution is Distribution.ALL else f" [{edge.distribution.value}]"
        lines.append(
            f"    {edge.source}.{edge.source_set} -> "
            f"{edge.target}.{edge.target_set}{suffix};"
        )
    for binding in composition.outputs:
        lines.append(f"    output {binding.node}.{binding.node_set} -> {binding.external};")
    lines.append("}")
    return "\n".join(lines)
