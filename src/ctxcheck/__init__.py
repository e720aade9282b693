"""Context-sensitive XSS analysis toolkit.

Tracks which sanitizer chains were applied to untrusted values, resolves
the nested browser context every value lands in by recursively parsing
the rendered output, and verifies that each chain is sufficient for its
context, classifying the mismatches.
"""

from .annotations import (
    SinkRegistry,
    UnknownResidue,
    emit_to_sink,
    strip_annotations,
)
from .browser import MissingToken, ModelBrowser, analyze
from .bundle import Bundle, BundleError, dump_bundle, load_bundle
from .contexts import BrowserContext, ContextSequence, Finding
from .decoders import css_unescape, entity_decode, js_string_decode, percent_decode
from .sanitizers import html_escape, js_escape, mark_safe, url_encode
from .taint import (
    EMPTY_TAINT,
    TaintedNumber,
    TaintedText,
    TrackingMode,
    char_roundtrip,
    concat,
    make_source,
    mark_sanitized,
    merge_taint,
    split,
    untainted,
)
from .template import Environment, Template, TemplateSyntaxError, parse_template, render
from .verifier import (
    BugPattern,
    ContextMap,
    ReportSummary,
    SanitizationTriple,
    UnknownSanitizer,
    Verdict,
    aggregate,
    classify,
    default_context_map,
    load_context_map,
    sufficient,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BrowserContext",
    "BugPattern",
    "Bundle",
    "BundleError",
    "ContextMap",
    "ContextSequence",
    "EMPTY_TAINT",
    "Environment",
    "Finding",
    "MissingToken",
    "ModelBrowser",
    "ReportSummary",
    "SanitizationTriple",
    "SinkRegistry",
    "TaintedNumber",
    "TaintedText",
    "Template",
    "TemplateSyntaxError",
    "TrackingMode",
    "UnknownResidue",
    "UnknownSanitizer",
    "Verdict",
    "aggregate",
    "analyze",
    "char_roundtrip",
    "classify",
    "concat",
    "css_unescape",
    "default_context_map",
    "dump_bundle",
    "emit_to_sink",
    "entity_decode",
    "html_escape",
    "js_escape",
    "js_string_decode",
    "load_bundle",
    "load_context_map",
    "make_source",
    "mark_safe",
    "mark_sanitized",
    "merge_taint",
    "parse_template",
    "percent_decode",
    "render",
    "split",
    "strip_annotations",
    "sufficient",
    "untainted",
    "url_encode",
    "verify",
]
