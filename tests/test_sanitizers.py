from __future__ import annotations

import re

from hypothesis import given
from hypothesis import strategies as st

from ctxcheck.sanitizers import (
    HTML_ESCAPE_ID,
    HTML_ESCAPES,
    JS_ESCAPE_ID,
    JS_ESCAPES,
    SAFE_ID,
    URL_ENCODE_ID,
    html_escape,
    js_escape,
    mark_safe,
    url_encode,
)
from ctxcheck.taint import EMPTY_TAINT, TaintedText, make_source, untainted

SANITIZERS = ((HTML_ESCAPE_ID, html_escape), (JS_ESCAPE_ID, js_escape),
              (URL_ENCODE_ID, url_encode), (SAFE_ID, mark_safe))


def test_html_escape_angle_brackets():
    assert html_escape(untainted("<img>")).text == "&lt;img&gt;"


def test_html_escape_quotes():
    assert html_escape(untainted('"')).text == "&quot;"
    assert html_escape(untainted("'")).text == "&#x27;"


def test_html_escape_ampersand_never_double_escaped():
    assert html_escape(untainted("&lt;")).text == "&amp;lt;"


def test_html_escape_appends_chain_even_without_special_chars():
    out = html_escape(make_source("abc", "o"))
    assert out.text == "abc"
    assert out.taint == frozenset({("o", ("html_escape",))})
    assert out.safe_marked is True


def test_js_escape_quote():
    assert js_escape(untainted('"')).text == "\\u0022"


def test_js_escape_script_close():
    assert js_escape(untainted("</script>")).text == "\\u003C/script\\u003E"


def test_js_escape_plain_text_unchanged():
    assert js_escape(untainted("plain")).text == "plain"


def test_url_encode_space_and_colon():
    assert url_encode(untainted("a b")).text == "a%20b"
    assert url_encode(untainted("javascript:x")).text == "javascript%3Ax"


def test_url_encode_keeps_slash():
    assert url_encode(untainted("a/b")).text == "a/b"


def test_mark_safe_keeps_text_and_flags():
    tainted = make_source("x", "o")
    out = mark_safe(tainted)
    assert out.text == "x"
    assert out.taint == frozenset({("o", ("safe",))})
    assert out.safe_marked is True

    clean = mark_safe(untainted("x"))
    assert clean.taint == EMPTY_TAINT
    assert clean.safe_marked is True


def test_mark_safe_appends_after_existing_chain():
    value = html_escape(make_source("x", "o"))
    assert mark_safe(value).taint == frozenset({("o", ("html_escape", "safe"))})


def test_html_escape_idempotent_only_without_specials():
    plain = untainted("no specials here")
    assert html_escape(html_escape(plain)).text == html_escape(plain).text

    with_amp = untainted("a&b")
    assert html_escape(html_escape(with_amp)).text != html_escape(with_amp).text


@given(st.text(max_size=50))
def test_second_html_pass_only_touches_ampersands(text):
    once = html_escape(untainted(text)).text
    twice = html_escape(untainted(once)).text
    assert twice == once.replace("&", "&amp;")


@given(st.text(max_size=50))
def test_js_escape_output_free_of_escape_set(text):
    out = js_escape(untainted(text)).text
    remainder = re.sub(r"\\u[0-9A-F]{4}", "", out)
    assert not set(remainder) & set(JS_ESCAPES)


@given(st.text(max_size=50))
def test_url_encode_output_shape(text):
    out = url_encode(untainted(text)).text
    assert re.fullmatch(r"(?:[A-Za-z0-9._~/-]|%[0-9A-F]{2})*", out)


def test_replacements_never_reescaped_in_one_pass():
    # One-pass application means a replacement is final; the only key
    # a replacement may contain is the ampersand it starts with.
    for char, replacement in HTML_ESCAPES.items():
        assert not set(replacement[1:]) & set(HTML_ESCAPES)
    for char, replacement in JS_ESCAPES.items():
        assert not set(replacement[1:]) & set(JS_ESCAPES)


@given(st.frozensets(st.tuples(st.sampled_from("abc"), st.just(())), min_size=1))
def test_every_sanitizer_appends_exactly_one_id(record):
    value = TaintedText("x", record)
    for sanitizer_id, fn in SANITIZERS:
        out = fn(value)
        assert len(out.taint) == len(record)
        for origin, chain in out.taint:
            assert chain == (sanitizer_id,)


def test_sanitizer_ids_are_fixed_strings():
    assert (HTML_ESCAPE_ID, JS_ESCAPE_ID, URL_ENCODE_ID, SAFE_ID) == (
        "html_escape", "js_escape", "url_encode", "safe")
