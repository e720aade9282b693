"""Decides whether applied sanitizer chains match resolved contexts.

A context map lists, for every sanitizer, the context sequences it
handles correctly.  A chain is sufficient for a context sequence when the
sequence factors into consecutive segments, one per sanitizer, with the
first-applied sanitizer covering the innermost segment.  Browsers decode
outer layers first, so encodings must have been applied innermost-first;
fixing the factorization order this way is what makes chain order
checkable.

Membership is decided by one iterative walk over the chain, last-applied
sanitizer first, that keeps the set of context positions reached so far:
no concatenation product is built, and no recursion limit bounds a chain.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Mapping, NamedTuple

from .annotations import SinkId, SinkRegistry
from .bundle import read_json
from .contexts import BrowserContext, ContextSequence, Finding, sequence_from_names
from .sanitizers import HTML_ESCAPE_ID, JS_ESCAPE_ID, SAFE_ID, URL_ENCODE_ID
from .taint import SanitizerChain, SanitizerId, SourceId

# sanitizer id -> set of correctly handled context sequences
ContextMap = dict


class UnknownSanitizer(Exception):
    """A chain references a sanitizer the context map does not know."""

    def __init__(self, sanitizer: SanitizerId):
        super().__init__(f"no context map entry for sanitizer {sanitizer!r}")
        self.sanitizer = sanitizer


class ContextMapError(ValueError):
    """A context map violates the map invariants."""


class BugPattern(enum.Enum):
    NoSanitization = "NoSanitization"
    HtmlInJsCode = "HtmlInJsCode"
    HtmlInJsString = "HtmlInJsString"
    HtmlInUri = "HtmlInUri"
    HtmlInUnquotedAttr = "HtmlInUnquotedAttr"
    HtmlInCssValue = "HtmlInCssValue"
    OtherMismatch = "OtherMismatch"

    # Singletons, hashed by identity as BrowserContext is.
    __hash__ = object.__hash__


# verify builds these with tuple.__new__, as RegistryEntry is.
class SanitizationTriple(NamedTuple):
    """Deduplication key for counting distinct sanitization instances."""

    origin: SourceId
    chain: SanitizerChain
    sink: SinkId


class Verdict(NamedTuple):
    token: str
    triple: SanitizationTriple
    context: ContextSequence
    pattern: BugPattern | None = None

    @property
    def sufficient(self) -> bool:
        """A verdict is sufficient exactly when it names no bug pattern."""
        return self.pattern is None


def default_context_map() -> ContextMap:
    """The map for the built-in sanitizer suite.

    The empty sequence in an entry means the sanitizer never breaks the
    protection of a later one, which is what lets an inner HTML escape
    combine with an outer JavaScript escape.  There is deliberately no
    entry covering CSS values or unquoted attribute values: no sanitizer
    in the suite makes those contexts safe.
    """
    ctx = BrowserContext
    return {
        HTML_ESCAPE_ID: frozenset({
            (),
            (ctx.HtmlText,),
            (ctx.HtmlAttrDq,),
            (ctx.HtmlAttrSq,),
        }),
        JS_ESCAPE_ID: frozenset({
            (ctx.JsStringDq,),
            (ctx.JsStringSq,),
            (ctx.HtmlScriptData, ctx.JsStringDq),
            (ctx.HtmlScriptData, ctx.JsStringSq),
        }),
        URL_ENCODE_ID: frozenset({(ctx.Uri,)}),
        SAFE_ID: frozenset({()}),
    }


def validate_context_map(cmap: ContextMap) -> ContextMap:
    for sanitizer, sequences in cmap.items():
        if not sanitizer or not isinstance(sanitizer, str):
            raise ContextMapError(f"invalid sanitizer id {sanitizer!r}")
        for sequence in sequences:
            for ctx in sequence:
                if not isinstance(ctx, BrowserContext):
                    raise ContextMapError(f"not a browser context: {ctx!r}")
                if ctx in (BrowserContext.Unknown, BrowserContext.UriScriptSrc):
                    raise ContextMapError(
                        f"{sanitizer}: {ctx.value} cannot be a handled context")
    return cmap


def load_context_map(path) -> ContextMap:
    """Load a map from a JSON file: sanitizer id -> list of name lists."""
    data = read_json(path, ContextMapError, "context map")
    if not isinstance(data, dict):
        raise ContextMapError("context map file must hold an object")
    cmap: ContextMap = {}
    for sanitizer, sequences in data.items():
        if not isinstance(sequences, list):
            raise ContextMapError(f"{sanitizer}: expected a list of sequences")
        handled = set()
        for names in sequences:
            if not isinstance(names, list):
                raise ContextMapError(f"{sanitizer}: expected a list of names")
            try:
                handled.add(sequence_from_names(names))
            except ValueError as exc:
                raise ContextMapError(f"{sanitizer}: {exc}") from None
        cmap[sanitizer] = frozenset(handled)
    return validate_context_map(cmap)


def sufficient(chain: SanitizerChain, context: ContextSequence,
               cmap: ContextMap) -> bool:
    """True iff the chain covers the context sequence.

    The sequence must factor as one segment per chain element, outermost
    segment covered by the last-applied sanitizer, innermost by the
    first-applied.  The empty chain handles only the empty sequence.
    """
    chain = tuple(chain)
    context = tuple(context)
    for sanitizer in chain:
        if sanitizer not in cmap:
            raise UnknownSanitizer(sanitizer)
    # Positions of context the sanitizers walked so far cover up to; the
    # next sanitizer (applied earlier) takes a segment starting at one.
    reached = {0}
    for sanitizer in reversed(chain):
        reached = {pos + len(segment) for pos in reached
                   for segment in cmap[sanitizer]
                   if context[pos:pos + len(segment)] == segment}
    return len(context) in reached


_INNERMOST_PATTERNS = {
    BrowserContext.JsCode: BugPattern.HtmlInJsCode,
    BrowserContext.JsStringDq: BugPattern.HtmlInJsString,
    BrowserContext.JsStringSq: BugPattern.HtmlInJsString,
    BrowserContext.Uri: BugPattern.HtmlInUri,
    BrowserContext.UriScriptSrc: BugPattern.HtmlInUri,
    BrowserContext.HtmlAttrUnq: BugPattern.HtmlInUnquotedAttr,
    BrowserContext.CssDeclValue: BugPattern.HtmlInCssValue,
    BrowserContext.CssString: BugPattern.HtmlInCssValue,
}


def classify(chain: SanitizerChain, context: ContextSequence) -> BugPattern:
    """Name the bug pattern of an insufficient sanitization.

    Total on insufficient inputs: anything that does not match a known
    pattern is OtherMismatch.
    """
    if set(chain) <= {SAFE_ID}:
        return BugPattern.NoSanitization
    if HTML_ESCAPE_ID in chain and context:
        return _INNERMOST_PATTERNS.get(context[-1], BugPattern.OtherMismatch)
    return BugPattern.OtherMismatch


def verify(findings: list[Finding], registry: SinkRegistry,
           cmap: ContextMap) -> list[Verdict]:
    """One verdict per (finding, taint entry), deduplicated.

    Two verdicts are the same when they share the sanitization triple and
    the context sequence.  A value is flawed when any of its chains is
    insufficient for the context it landed in.  Sufficiency and the bug
    pattern depend only on the chain and the context, so each distinct
    pair is decided once.
    """
    verdicts: dict[tuple[SanitizationTriple, ContextSequence], Verdict] = {}
    decided: dict[tuple[SanitizerChain, ContextSequence],
                  BugPattern | None] = {}
    for token, context, _ in findings:
        taint, sink = registry[token]
        # A set's order follows string hashes, which differ between
        # runs; one entry, the common case, has no order to fix.
        for origin, chain in (sorted(taint) if len(taint) > 1 else taint):
            triple = tuple.__new__(SanitizationTriple, (origin, chain, sink))
            key = (triple, context)
            if key in verdicts:
                continue
            pair = (chain, context)
            try:
                pattern = decided[pair]
            except KeyError:
                pattern = decided[pair] = (
                    None if sufficient(chain, context, cmap)
                    else classify(chain, context))
            verdicts[key] = tuple.__new__(
                Verdict, (token, triple, context, pattern))
    return list(verdicts.values())


class ReportSummary(NamedTuple):
    """Counts over unique sanitization triples, patterns in report order."""

    sanitizations: int
    correct: int
    incorrect: int
    pattern_counts: Mapping[BugPattern, int]


def aggregate(verdicts: list[Verdict]) -> ReportSummary:
    """Count unique triples, partitioned by whether any verdict flags them."""
    triples = {v.triple for v in verdicts}
    pattern_pairs = {(v.triple, v.pattern) for v in verdicts if not v.sufficient}
    flawed = {triple for triple, _ in pattern_pairs}
    counts = Counter(pattern for _, pattern in pattern_pairs)
    return ReportSummary(
        sanitizations=len(triples),
        correct=len(triples) - len(flawed),
        incorrect=len(flawed),
        pattern_counts=dict(sorted(counts.items(), key=lambda i: i[0].value)),
    )
