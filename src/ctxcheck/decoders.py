"""Decoding for the layers the scanners peel off.

All four decoders are forgiving: malformed escape sequences pass through
verbatim instead of raising.  Annotation tokens are purely alphanumeric,
so every decoder leaves them untouched.
"""

from __future__ import annotations

import html
import html.entities
import re
from urllib.parse import unquote


# One character reference, as html.unescape reads it.
_REFERENCE = re.compile(
    r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")


def _resolve(match: re.Match) -> str:
    ref = match[1]
    if ref[0] != "#":
        names = html.entities.html5
        if ref in names:
            return names[ref]
        # The longest name it starts with, one of those that may go
        # without ";", unless an ASCII alphanumeric or "=" follows it.
        for end in range(len(ref) - 1, 1, -1):
            if ref[:end] in names:
                after = ref[end]
                if after == "=" or after.isascii() and after.isalnum():
                    break
                return names[ref[:end]] + ref[end:]
        return match[0]
    hexadecimal = ref[1] in "xX"
    digits = ref[1 + hexadecimal:].rstrip(";").lstrip("0")
    # More than seven digits are past U+10FFFF, and int() refuses more
    # than 4,300 decimal ones.
    code = (int(digits or "0", 16 if hexadecimal else 10)
            if len(digits) <= 7 else 0x110000)
    if (code == 0 or 0x80 <= code <= 0x9F or 0xD800 <= code <= 0xDFFF
            or code > 0x10FFFF):
        # NUL, the Windows-1252 table, surrogates and numbers past
        # U+10FFFF, replaced as html.unescape replaces them.
        return html.unescape(f"&#{code};")
    return chr(code)


def entity_decode(text: str) -> str:
    """Resolve HTML character references (named, decimal and hex).

    As html.unescape does, except where the HTML tokenizer differs: a
    numeric reference to a control or a noncharacter yields that
    character (html.unescape deletes it), a number of any length is
    read (one past U+10FFFF yields U+FFFD), and a named reference
    without its ";" that an ASCII alphanumeric or "=" follows, such as
    ``&quotx`` or ``&lt3``, stays as written.  The tokenizer keeps such
    a reference only inside an attribute value; the model decodes
    nothing else, so this rule always applies.
    """
    if "&" not in text:
        return text
    return _REFERENCE.sub(_resolve, text)


def percent_decode(text: str) -> str:
    """Resolve percent-encoded bytes as UTF-8."""
    return unquote(text)


_CSS_ESCAPE_RE = re.compile(r"\\([0-9a-fA-F]{1,6})[ \t\n\r\f]?|\\(.)", re.S)


def _css_escape(match: re.Match) -> str:
    digits, literal = match.groups()
    if digits is None:
        return literal
    code = int(digits, 16)
    if code == 0 or 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
        return "\ufffd"
    return chr(code)


def css_unescape(text: str) -> str:
    """Resolve CSS backslash escapes, hex and literal, as CSS Syntax
    (4.3.7) consumes them: a hex escape of zero, of a surrogate or of a
    number past U+10FFFF is U+FFFD."""
    return _CSS_ESCAPE_RE.sub(_css_escape, text)


_JS_ESCAPE_RE = re.compile(
    r"\\u\{([0-9a-fA-F]{1,6})\}|\\u([0-9a-fA-F]{4})|\\x([0-9a-fA-F]{2})|\\(.)",
    re.S,
)

_JS_SIMPLE_ESCAPES = {
    "n": "\n", "r": "\r", "t": "\t", "b": "\b",
    "f": "\f", "v": "\v", "0": "\0",
}


def _js_escape(match: re.Match) -> str:
    braced, u4, x2, literal = match.groups()
    digits = braced or u4 or x2
    if digits is not None:
        # At most six hex digits: chr refuses only a number past
        # U+10FFFF, which stays as written.
        try:
            return chr(int(digits, 16))
        except ValueError:
            return match.group(0)
    if literal in ("u", "x"):
        # Incomplete hex escape; leave it verbatim.
        return match.group(0)
    return _JS_SIMPLE_ESCAPES.get(literal, literal)


def js_string_decode(text: str) -> str:
    """Resolve JavaScript string escapes (\\xHH, \\uHHHH, \\u{...}, simple)."""
    return _JS_ESCAPE_RE.sub(_js_escape, text)
