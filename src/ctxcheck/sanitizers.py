"""Canonical sanitizer implementations with exact escape tables.

Each sanitizer transforms the text, appends its id to every chain in the
record, and sets the autoescape-suppression flag where the corresponding
template filter would.  The tables are applied in a single pass, so no
replacement is ever re-escaped.
"""

from __future__ import annotations

from urllib.parse import quote

from .taint import SanitizerId, TaintedText, append_sanitizer

HTML_ESCAPE_ID: SanitizerId = "html_escape"
JS_ESCAPE_ID: SanitizerId = "js_escape"
URL_ENCODE_ID: SanitizerId = "url_encode"
SAFE_ID: SanitizerId = "safe"

# Ampersand first, so the other entities are never double-escaped.
HTML_ESCAPES: dict[str, str] = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "'": "&#x27;",
}

# String breakout, tag breakout inside script data, and line separators.
_JS_ESCAPE_CHARS = (
    "\\'\"`<>&=-;"
    + "".join(chr(cp) for cp in range(0x20))
    + "\u2028\u2029"
)
JS_ESCAPES: dict[str, str] = {ch: "\\u%04X" % ord(ch) for ch in _JS_ESCAPE_CHARS}

_HTML_TRANSLATION = {ord(ch): repl for ch, repl in HTML_ESCAPES.items()}
_JS_TRANSLATION = {ord(ch): repl for ch, repl in JS_ESCAPES.items()}


def _emit(value: TaintedText, text: str, sanitizer: SanitizerId,
          safe_marked: bool) -> TaintedText:
    return TaintedText(text, append_sanitizer(value.taint, sanitizer), safe_marked)


def html_escape(value: TaintedText) -> TaintedText:
    """Replace HTML-special characters with entity escapes."""
    return _emit(value, value.text.translate(_HTML_TRANSLATION),
                 HTML_ESCAPE_ID, True)


def js_escape(value: TaintedText) -> TaintedText:
    """Replace JavaScript-special characters with \\uXXXX escapes."""
    return _emit(value, value.text.translate(_JS_TRANSLATION),
                 JS_ESCAPE_ID, True)


def url_encode(value: TaintedText) -> TaintedText:
    """Percent-encode everything except unreserved characters and the slash.

    The slash survives so path-valued inputs stay usable; values meant as
    a single URI component should not contain one.
    """
    return _emit(value, quote(value.text, safe="/"),
                 URL_ENCODE_ID, value.safe_marked)


def mark_safe(value: TaintedText) -> TaintedText:
    """Leave the text alone but suppress automatic escaping downstream."""
    return _emit(value, value.text, SAFE_ID, True)
