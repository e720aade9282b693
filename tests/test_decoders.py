from __future__ import annotations

import html
import html.entities
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcheck.decoders import (
    css_unescape,
    entity_decode,
    js_string_decode,
    percent_decode,
)

from oracles import random_token

DECODERS = (entity_decode, percent_decode, css_unescape, js_string_decode)


def test_entity_decode():
    assert entity_decode("&lt;") == "<"
    assert entity_decode("&quot;a&#x27;b&amp;c") == "\"a'b&c"
    assert entity_decode("&#60;") == "<"


def test_entity_decode_forgiving():
    assert entity_decode("&nosuch; &") == "&nosuch; &"


def test_entity_decode_keeps_a_legacy_reference_before_alphanumerics():
    # As the HTML tokenizer reads an attribute value: a reference
    # without ";" stays as written before an ASCII letter, digit or "=",
    # and is decoded before anything else.
    for kept in ("&quotx", "&quot=", "&lt3", "&notit;", "&ampx;"):
        assert entity_decode(kept) == kept, kept
    assert entity_decode("&quot ") == '" '
    assert entity_decode("&amp;x") == "&x"
    assert entity_decode("&lt&gt") == "<>"
    assert entity_decode("&quot\u00e9") == '"\u00e9'


# Code points html.unescape deletes where the HTML tokenizer keeps them.
_KEPT = [*range(0x01, 0x09), 0x0B, *range(0x0E, 0x20), 0x7F,
         *range(0xFDD0, 0xFDF0),
         *(plane | low for plane in range(0, 0x110000, 0x10000)
           for low in (0xFFFE, 0xFFFF))]


def test_entity_decode_keeps_controls_and_noncharacters():
    for code in _KEPT:
        assert html.unescape("&#%d;" % code) == ""
        for spelled in ("&#%d;", "&#x%x;", "&#X%X", "&#000%d"):
            assert entity_decode("a" + spelled % code + ";b") in (
                f"a{chr(code)};b", f"a{chr(code)}b"), spelled % code


def test_entity_decode_replaces_as_html_unescape_does():
    # NUL, surrogates, numbers past U+10FFFF and the Windows-1252 table
    for ref, decoded in [("&#0;", "\ufffd"), ("&#xD800;", "\ufffd"),
                         ("&#x110000;", "\ufffd"), ("&#128;", "\u20ac"),
                         ("&#x9f;", "\u0178"), ("&#x81;", "\x81"),
                         ("&#13;", "\r")]:
        assert entity_decode(ref) == html.unescape(ref) == decoded, ref


def test_entity_decode_reads_a_number_of_any_length():
    # int() refuses more than 4,300 decimal digits; html.unescape raises.
    assert entity_decode("&#" + "1" * 5000 + ";x") == "\ufffdx"
    assert entity_decode("&#" + "0" * 5000 + "65;") == "A"
    assert entity_decode("&#x" + "0" * 5000 + "41") == "A"


# One character reference, as html.unescape reads it.
_CHARREF = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")


def _unescape_in_an_attribute(match):
    """html.unescape of one reference, unless it is a named one that is
    no name itself, and whose longest leading name an ASCII alphanumeric
    or "=" follows: the HTML tokenizer keeps that one as written in an
    attribute value."""
    ref = match[1]
    if ref[0] != "#" and ref not in html.entities.html5:
        names = [name for name in html.entities.html5
                 if len(name) < len(ref) and ref.startswith(name)]
        if names and re.match(r"[0-9A-Za-z=]", ref[len(max(names, key=len))]):
            return match[0]
    return html.unescape(match[0])


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="&#xX;0127fFaAmpltquoNnb <\t9", max_size=24))
def test_entity_decode_is_html_unescape_but_for_kept_code_points(text):
    decoded = entity_decode(text)
    if not any(chr(code) in decoded for code in _KEPT):
        assert decoded == _CHARREF.sub(_unescape_in_an_attribute, text)


def test_percent_decode():
    assert percent_decode("%3C") == "<"
    assert percent_decode("a%20b%2Fc") == "a b/c"


def test_percent_decode_forgiving():
    assert percent_decode("100% sure%") == "100% sure%"


def test_css_unescape_hex_and_literal():
    assert css_unescape("\\3C ") == "<"
    assert css_unescape("\\00003C") == "<"
    assert css_unescape("\\'") == "'"
    # The single optional whitespace after a hex escape is consumed.
    assert css_unescape("\\41 b") == "Ab"


def test_css_unescape_forgiving():
    assert css_unescape("\\FFFFFF") == "\\FFFFFF"  # beyond the last code point
    assert css_unescape("trailing\\") == "trailing\\"


def test_js_string_decode():
    assert js_string_decode("\\x3c") == "<"
    assert js_string_decode("\\u0022") == '"'
    assert js_string_decode("\\u{1F600}") == "\U0001F600"
    assert js_string_decode("\\n\\t\\0") == "\n\t\0"
    assert js_string_decode("\\q") == "q"


def test_js_string_decode_forgiving():
    assert js_string_decode("\\u12") == "\\u12"
    assert js_string_decode("\\x9") == "\\x9"
    assert js_string_decode("\\u{110000}") == "\\u{110000}"


def test_js_string_decode_on_attack_shape():
    payload = "\\x3cimg src=\\x22N/A\\x22 onerror=\\x22alert(1)\\x22 /\\x3e"
    assert js_string_decode(payload) == '<img src="N/A" onerror="alert(1)" />'


def test_decoders_fix_tokens():
    rng = random.Random(11)
    for _ in range(1000):
        token = random_token(rng)
        for decode in DECODERS:
            assert decode(token) == token
