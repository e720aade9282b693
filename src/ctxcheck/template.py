"""A minimal autoescaping template processor.

Templates contain literal text and ``{{ path }}`` or
``{{ path | filter | filter }}`` expansions.  Every expansion resolves a
value from the environment, applies its filters in order, HTML-escapes
the result unless a filter already marked it safe, and writes it to the
output as a sink.  There is no control flow; the language exists so that
source-to-sink pipelines can run end to end without a web framework.

Pages repeat a few expansions many times, so a parsed ``Template`` holds
each distinct expansion text once and each occurrence as an index into
them.  Parsing validates, and rendering resolves and filters, once per
distinct expansion; the work per occurrence is one pattern split at
parse time and ``map`` and slice assignment at render time.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from itertools import compress, islice
from typing import Any, NamedTuple

from .annotations import SinkRegistry
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


class Expansion(NamedTuple):
    """One distinct expansion text, with the value path and filters it
    names."""

    path: tuple[str, ...]
    filters: tuple[str, ...]
    raw: str


class Template(NamedTuple):
    """A parsed template: ``literals[i]`` comes before occurrence ``i``,
    ``expansions`` holds each distinct expansion text once, in the order
    of its first occurrence, and ``occurrences[i]`` indexes the expansion
    written at occurrence ``i``.  There is one literal more than there
    are occurrences; literals may be empty."""

    literals: tuple[str, ...]
    expansions: tuple[Expansion, ...]
    occurrences: tuple[int, ...]


# One split gives each literal, then each expansion's text between its
# braces (group 1), or, for a "{{" with no "}}" after it, the rest of the
# source (group 2), so no search for "}}" runs more than once to the end.
_EXPANSION_RE = re.compile(r"\{\{(?:(.*?)\}\}|(.*))", re.S)


def parse_template(source: str) -> Template:
    """Split template source into literals and expansions.

    Each distinct expansion text is validated once, in the order of its
    first occurrence; a bad one raises ``TemplateSyntaxError`` at the
    offset of that occurrence.
    """
    pieces = _EXPANSION_RE.split(source)
    texts = pieces[1::3]
    # Text -> its number among the distinct texts.  An unterminated
    # expansion is the last occurrence, so its None comes last.
    numbers = dict.fromkeys(texts)
    expansions = []
    for number, text in enumerate(numbers):
        numbers[text] = number
        if text is None:
            raise TemplateSyntaxError("unterminated expansion",
                                      _offset(source, len(texts) - 1))
        parts = [part.strip() for part in text.split("|")]
        dotted = parts[0]
        segments = tuple(dotted.split("."))
        if not dotted or not all(_IDENT_RE.fullmatch(s) for s in segments):
            raise TemplateSyntaxError(f"invalid value path {dotted!r}",
                                      _offset(source, texts.index(text)))
        filters = tuple(parts[1:])
        for name in filters:
            if name not in FILTERS:
                raise TemplateSyntaxError(f"unknown filter {name!r}",
                                          _offset(source, texts.index(text)))
        expansions.append(Expansion(segments, filters, "{{" + text + "}}"))
    return Template(tuple(pieces[::3]), tuple(expansions),
                    tuple(map(numbers.__getitem__, texts)))


def _offset(source: str, occurrence: int) -> int:
    """Where the expansion at ``occurrence`` starts in ``source``."""
    return next(islice(_EXPANSION_RE.finditer(source), occurrence,
                       None)).start()


def resolve_path(env: Environment, path: tuple[str, ...], *,
                 mode: TrackingMode = TrackingMode.FULL) -> TaintedText:
    """Look up a path of keys and wrap the leaf as a taint source, named
    by the dotted path.

    Missing paths resolve to an empty untainted string.  Numeric leaves
    become tainted numbers first and are then stringified, so the
    tracking mode decides whether their taint survives.
    """
    node: Any = env
    for segment in path:
        if isinstance(node, Mapping) and segment in node:
            node = node[segment]
        else:
            return untainted("")
    origin = ".".join(path)
    if isinstance(node, str):
        return make_source(node, origin)
    if isinstance(node, (int, float)):
        return number_to_text(number_source(node, origin, mode=mode))
    return untainted("")


def render(template: Template, env: Environment, *,
           seed: int | None = None,
           mode: TrackingMode = TrackingMode.FULL
           ) -> tuple[str, SinkRegistry, str]:
    """Expand a template against an environment.

    Filters run in written order; if none of them marked the value safe,
    the HTML escape runs last as the autoescape.  Each tainted
    occurrence ``i`` is a sink ``template:<i>`` with its own token.
    Returns the annotated document, its registry and the clean document:
    the same expansion with no annotation token, built in the same pass,
    so a value that spells a token keeps it.
    """
    # Values are immutable, so each distinct path is resolved, and each
    # distinct (path, filters) filtered, once per call; occurrences only
    # index the results.
    leaves, values, texts, taints = {}, {}, [], []
    for path, filters, _ in template.expansions:
        if (value := values.get(key := (path, filters))) is None:
            if (value := leaves.get(path)) is None:
                value = leaves[path] = resolve_path(env, path, mode=mode)
            for name in filters:
                value = FILTERS[name](value)
            if not value.safe_marked:
                value = html_escape(value)
            values[key] = value
        texts.append(value.text)
        taints.append(value.taint)
    occurrences = template.occurrences
    clean = [""] * (2 * len(occurrences) + 1)
    clean[::2] = template.literals
    clean[1::2] = map(texts.__getitem__, occurrences)
    # The taint of each occurrence, and where the tainted ones are.
    tainted = list(map(taints.__getitem__, occurrences))
    sites = list(compress(range(len(occurrences)), tainted))
    registry = SinkRegistry(seed=seed)
    tokens = registry.register_all(list(filter(None, tainted)),
                                   [f"template:{i}" for i in sites])
    out = clean.copy()
    for i, token in zip(sites, tokens):
        out[2 * i + 1] = token + out[2 * i + 1]
    return "".join(out), registry, "".join(clean)
