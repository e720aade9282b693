"""A minimal autoescaping template processor.

Templates contain literal text and ``{{ path }}`` or
``{{ path | filter | filter }}`` expansions.  Every expansion resolves a
value from the environment, applies its filters in order, HTML-escapes
the result unless a filter already marked it safe, and writes it to the
output as a sink.  There is no control flow; the language exists so that
source-to-sink pipelines can run end to end without a web framework.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Any, NamedTuple, Union

from .annotations import SinkId, SinkRegistry, emit_to_sink
from .sanitizers import html_escape, js_escape, mark_safe, url_encode
from .taint import (
    TaintedText,
    TrackingMode,
    make_source,
    number_source,
    number_to_text,
    untainted,
)

# Nested mappings of request parameters and database records; every
# string or numeric leaf is a taint source named by its dotted path.
Environment = Mapping[str, Any]

FILTERS = {
    "escape": html_escape,
    "escapejs": js_escape,
    "urlencode": url_encode,
    "safe": mark_safe,
}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TemplateSyntaxError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# Nodes are tuples, built with tuple.__new__ as RegistryEntry is.
class Literal(NamedTuple):
    text: str


class Expansion(NamedTuple):
    path: tuple[str, ...]
    filters: tuple[str, ...]
    site: SinkId
    raw: str


Node = Union[Literal, Expansion]


class Template(NamedTuple):
    nodes: tuple[Node, ...]

    def source(self) -> str:
        return "".join(
            node.text if isinstance(node, Literal) else node.raw
            for node in self.nodes
        )


def parse_template(source: str) -> Template:
    """Split template source into literals and expansions.

    Each expansion gets a sink id of the form ``template:<ordinal>``.
    """
    nodes: list[Node] = []
    # Expansion text -> (path, filters).  Templates repeat a few
    # expansions many times, so each distinct text is validated once;
    # a bad one raises before it is stored, at its first offset.
    parsed: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    ordinal = 0
    i = 0
    n = len(source)
    while i < n:
        start = source.find("{{", i)
        if start == -1:
            nodes.append(tuple.__new__(Literal, (source[i:],)))
            break
        if start > i:
            nodes.append(tuple.__new__(Literal, (source[i:start],)))
        end = source.find("}}", start + 2)
        if end == -1:
            raise TemplateSyntaxError("unterminated expansion", offset=start)
        raw = source[start:end + 2]
        spec = parsed.get(raw)
        if spec is None:
            parts = [part.strip() for part in raw[2:-2].split("|")]
            dotted = parts[0]
            segments = tuple(dotted.split("."))
            if not dotted or not all(_IDENT_RE.fullmatch(s) for s in segments):
                raise TemplateSyntaxError(f"invalid value path {dotted!r}",
                                          offset=start)
            filters = tuple(parts[1:])
            for name in filters:
                if name not in FILTERS:
                    raise TemplateSyntaxError(f"unknown filter {name!r}",
                                              offset=start)
            spec = parsed[raw] = (segments, filters)
        nodes.append(tuple.__new__(
            Expansion, (*spec, f"template:{ordinal}", raw)))
        ordinal += 1
        i = end + 2
    return Template(tuple(nodes))


def resolve_path(env: Environment, path, *,
                 mode: TrackingMode = TrackingMode.FULL) -> TaintedText:
    """Look up a dotted path and wrap the leaf as a taint source.

    Missing paths resolve to an empty untainted string.  Numeric leaves
    become tainted numbers first and are then stringified, so the
    tracking mode decides whether their taint survives.
    """
    segments = tuple(path.split(".")) if isinstance(path, str) else tuple(path)
    node: Any = env
    for segment in segments:
        if isinstance(node, Mapping) and segment in node:
            node = node[segment]
        else:
            return untainted("")
    origin = ".".join(segments)
    if isinstance(node, str):
        return make_source(node, origin)
    if isinstance(node, (int, float)):
        return number_to_text(number_source(node, origin, mode=mode))
    return untainted("")


def render(template: Template, env: Environment, *,
           seed: int | None = None,
           mode: TrackingMode = TrackingMode.FULL,
           annotate: bool = True) -> tuple[str, SinkRegistry]:
    """Expand a template against an environment.

    Filters run in written order; if none of them marked the value safe,
    the HTML escape runs last as the autoescape.  With ``annotate`` off
    the output skips annotation tokens entirely, which is the reference
    for stripping them later.
    """
    registry = SinkRegistry(seed=seed)
    out: list[str] = []
    # (path, filters) -> the escaped value.  Values are immutable, so
    # each distinct expansion is resolved and filtered once per call;
    # every sink still gets its own token and registry entry.
    values: dict[tuple[tuple[str, ...], tuple[str, ...]], TaintedText] = {}
    for node in template.nodes:
        if isinstance(node, Literal):
            out.append(node.text)
            continue
        key = (node.path, node.filters)
        value = values.get(key)
        if value is None:
            value = resolve_path(env, node.path, mode=mode)
            for name in node.filters:
                value = FILTERS[name](value)
            if not value.safe_marked:
                value = html_escape(value)
            values[key] = value
        if annotate:
            emit_to_sink(value, node.site, out, registry)
        else:
            out.append(value.text)
    return "".join(out), registry
