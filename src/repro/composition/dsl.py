"""The composition language — a small DSL for declaring DAGs (§4.1).

Dandelion "provides a composition language to help users express DAGs
of compute functions and communication functions in a more
developer-friendly syntax", inspired by the DSLs of dataflow systems
like Spark and Timely.  This module implements the reproduction's
concrete syntax:

.. code-block:: text

    composition logproc {
        compute access uses access_fn in(token) out(request);
        comm auth protocol http;
        compute fanout uses fanout_fn in(endpoints) out(requests);
        comm fetch protocol http;
        compute render uses render_fn in(pages) out(html);

        input token -> access.token;
        access.request -> auth.request [all];
        auth.response -> fanout.endpoints [all];
        fanout.requests -> fetch.request [each];
        fetch.response -> render.pages [all];
        output render.html -> result;
    }

``comm <node>;`` and ``comm <node> protocol http;`` are the same node:
HTTP is the one protocol, and any other name is a :class:`DslError`.
``# ...`` comments run to end of line.  Nested compositions are
declared with ``compose <node> uses <composition-name>;`` and resolved
against the ``library`` mapping passed to :func:`parse_composition`.

A composition may declare an end-to-end latency target with
``deadline 500ms;`` (units ``us``/``ms``/``s``); the static cost
analysis checks the critical path against it (COST001) and the
dispatcher admission path can consult it.
"""

from __future__ import annotations

import re
from typing import Optional

from .graph import (
    CommunicationNode,
    Composition,
    CompositionError,
    CompositionNode,
    ComputeNode,
    Distribution,
    Edge,
    InputBinding,
    OutputBinding,
)

__all__ = ["parse_composition", "DslError"]


class DslError(CompositionError):
    """Syntax or semantic error in composition-language source."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PUNCTUATION = {"{", "}", "(", ")", "[", "]", ",", ";", "."}

_DEADLINE_RE = re.compile(r"^([0-9]+(?:\.[0-9]+)?)(us|ms|s)$")
_DEADLINE_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


class _Token:
    __slots__ = ("text", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.text!r}@{self.line})"


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            index += 1
        elif char.isspace():
            index += 1
        elif char == "#":
            while index < length and source[index] != "\n":
                index += 1
        elif source.startswith("->", index):
            tokens.append(_Token("->", line))
            index += 2
        elif char in _PUNCTUATION:
            tokens.append(_Token(char, line))
            index += 1
        elif char.isalnum() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            tokens.append(_Token(source[start:index], line))
        else:
            raise DslError(f"unexpected character {char!r}", line)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], library: dict[str, Composition]):
        self._tokens = tokens
        self._position = 0
        self._library = library

    # -- token helpers ----------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _line(self) -> int:
        token = self._peek()
        if token is not None:
            return token.line
        return self._tokens[-1].line if self._tokens else 1

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise DslError("unexpected end of input", self._line())
        self._position += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise DslError(f"expected {text!r}, got {token.text!r}", token.line)
        return token

    def _identifier(self) -> str:
        token = self._next()
        if not (token.text[0].isalpha() or token.text[0] == "_"):
            raise DslError(f"expected identifier, got {token.text!r}", token.line)
        return token.text

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Composition:
        self._expect("composition")
        name = self._identifier()
        self._expect("{")
        nodes: list = []
        edges: list[Edge] = []
        inputs: list[InputBinding] = []
        outputs: list[OutputBinding] = []
        deadline_seconds: Optional[float] = None
        while True:
            token = self._peek()
            if token is None:
                raise DslError("missing closing '}'", self._line())
            if token.text == "}":
                self._next()
                break
            if token.text == "compute":
                nodes.append(self._parse_compute())
            elif token.text == "comm":
                nodes.append(self._parse_comm())
            elif token.text == "compose":
                nodes.append(self._parse_compose())
            elif token.text == "input":
                inputs.append(self._parse_input())
            elif token.text == "output":
                outputs.append(self._parse_output())
            elif token.text == "deadline":
                if deadline_seconds is not None:
                    raise DslError("duplicate deadline statement", token.line)
                deadline_seconds = self._parse_deadline()
            else:
                edges.append(self._parse_edge())
        trailing = self._peek()
        if trailing is not None:
            raise DslError(f"unexpected trailing token {trailing.text!r}", trailing.line)
        try:
            return Composition(
                name, nodes, edges, inputs, outputs,
                deadline_seconds=deadline_seconds,
            )
        except CompositionError as exc:
            raise DslError(str(exc), self._tokens[-1].line) from exc

    def _parse_compute(self) -> ComputeNode:
        self._expect("compute")
        node_name = self._identifier()
        self._expect("uses")
        function_name = self._identifier()
        self._expect("in")
        input_sets = self._parse_name_list()
        self._expect("out")
        output_sets = self._parse_name_list()
        self._expect(";")
        return ComputeNode(node_name, function_name, input_sets, output_sets)

    def _parse_comm(self) -> CommunicationNode:
        self._expect("comm")
        node_name = self._identifier()
        if self._peek() is not None and self._peek().text == "protocol":
            self._next()
            line = self._line()
            protocol = self._identifier()
            if protocol != "http":
                raise DslError(f"unsupported protocol {protocol!r}", line)
        self._expect(";")
        return CommunicationNode(node_name)

    def _parse_compose(self) -> CompositionNode:
        token = self._expect("compose")
        node_name = self._identifier()
        self._expect("uses")
        composition_name = self._identifier()
        self._expect(";")
        nested = self._library.get(composition_name)
        if nested is None:
            raise DslError(f"unknown composition {composition_name!r}", token.line)
        return CompositionNode(node_name, nested)

    def _parse_deadline(self) -> float:
        keyword = self._expect("deadline")
        # "500ms" is one token; "0.5s" tokenizes as "0" "." "5s" — join
        # every token up to the ";" and parse the magnitude+unit whole.
        pieces: list[str] = []
        while True:
            token = self._peek()
            if token is None:
                raise DslError("unterminated deadline statement", self._line())
            if token.text == ";":
                self._next()
                break
            pieces.append(self._next().text)
        match = _DEADLINE_RE.match("".join(pieces))
        if match is None:
            raise DslError(
                f"invalid deadline {''.join(pieces)!r}; expected e.g. "
                "'deadline 500ms;' (units us/ms/s)",
                keyword.line,
            )
        return float(match.group(1)) * _DEADLINE_UNITS[match.group(2)]

    def _parse_name_list(self) -> tuple[str, ...]:
        self._expect("(")
        names: list[str] = []
        while True:
            token = self._peek()
            if token is None:
                raise DslError("unterminated name list", self._line())
            if token.text == ")":
                self._next()
                break
            if names:
                self._expect(",")
            names.append(self._identifier())
        return tuple(names)

    def _parse_input(self) -> InputBinding:
        self._expect("input")
        external = self._identifier()
        self._expect("->")
        node, node_set = self._parse_set_ref()
        self._expect(";")
        return InputBinding(external, node, node_set)

    def _parse_output(self) -> OutputBinding:
        self._expect("output")
        node, node_set = self._parse_set_ref()
        self._expect("->")
        external = self._identifier()
        self._expect(";")
        return OutputBinding(external, node, node_set)

    def _parse_edge(self) -> Edge:
        source, source_set = self._parse_set_ref()
        self._expect("->")
        target, target_set = self._parse_set_ref()
        distribution = Distribution.ALL
        token = self._peek()
        if token is not None and token.text == "[":
            opener = self._next()
            word = self._identifier()
            try:
                distribution = Distribution.parse(word)
            except CompositionError as exc:
                raise DslError(str(exc), opener.line) from exc
            self._expect("]")
        self._expect(";")
        return Edge(source, source_set, target, target_set, distribution)

    def _parse_set_ref(self) -> tuple[str, str]:
        node = self._identifier()
        self._expect(".")
        set_name = self._identifier()
        return node, set_name


def parse_composition(source: str, library: Optional[dict[str, Composition]] = None) -> Composition:
    """Parse composition-language source into a validated Composition.

    ``library`` supplies previously registered compositions for
    ``compose ... uses ...`` nesting.
    """
    tokens = _tokenize(source)
    if not tokens:
        raise DslError("empty composition source", 1)
    return _Parser(tokens, library or {}).parse()
