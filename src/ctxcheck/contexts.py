"""Browser contexts and the nested context sequences values land in.

A context names the syntactic position where a browser interprets a
piece of output.  Languages nest, so a located value gets a sequence of
contexts, outermost parser first: a value inside a quoted string inside a
script element resolves to (HtmlScriptData, JsStringDq).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class BrowserContext(enum.Enum):
    HtmlText = "HtmlText"
    HtmlComment = "HtmlComment"
    HtmlAttrDq = "HtmlAttrDq"
    HtmlAttrSq = "HtmlAttrSq"
    HtmlAttrUnq = "HtmlAttrUnq"
    HtmlScriptData = "HtmlScriptData"
    HtmlStyleData = "HtmlStyleData"
    JsCode = "JsCode"
    JsStringDq = "JsStringDq"
    JsStringSq = "JsStringSq"
    JsComment = "JsComment"
    CssDeclValue = "CssDeclValue"
    CssString = "CssString"
    CssComment = "CssComment"
    Uri = "Uri"
    UriScriptSrc = "UriScriptSrc"
    Unknown = "Unknown"

    # Members are singletons, so identity is equality.  Enum's own hash
    # is a Python-level hash of the name, paid on every context tuple
    # used as a dict key.
    __hash__ = object.__hash__


# Ordered list of contexts, one per nested parser invocation.
ContextSequence = tuple[BrowserContext, ...]


def sequence_from_names(names) -> ContextSequence:
    """Build a sequence from context names, e.g. from a config file."""
    for name in names:
        if not isinstance(name, str) or name not in BrowserContext.__members__:
            raise ValueError(f"unknown browser context {name!r}")
    return tuple(BrowserContext[name] for name in names)


def sequence_names(sequence: ContextSequence) -> list[str]:
    return [ctx.value for ctx in sequence]


def format_sequence(sequence: ContextSequence) -> str:
    return "(" + ", ".join(sequence_names(sequence)) + ")"


# The scanners build these with tuple.__new__, as RegistryEntry is.
class Finding(NamedTuple):
    """One located annotation token and its resolved context sequence."""

    token: str
    context: ContextSequence
    excerpt: str = ""
