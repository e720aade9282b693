from __future__ import annotations

import base64
import contextlib
import random
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxcheck import browser as browser_module
from ctxcheck.annotations import SinkRegistry
from ctxcheck.browser import MAX_NESTING, MissingToken, ModelBrowser, analyze
from ctxcheck.contexts import BrowserContext as C

from corpus import SNIPPETS, build_snippet
from oracles import URI_ATTRIBUTES, ReferenceBrowser


def _registry_with_token(seed=0):
    registry = SinkRegistry(seed=seed)
    token = registry.register(frozenset({("o", ())}), "s")
    return registry, token


@contextlib.contextmanager
def _scan_calls(cls):
    """Record, in order, the name of each scanner method called on a
    ``cls`` while the context is open, by wrapping the four scanners as
    the benchmark's tracer hooks them."""
    calls = []

    def counted(name):
        scan = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return scan(self, *args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for name in ("html_scan", "js_scan", "css_scan", "uri_scan"):
            stack.enter_context(mock.patch.object(cls, name, counted(name)))
        yield calls


def _scan(kind, text, registry, prefix=()):
    """Findings of one ModelBrowser scanner run on its own; kind "js"
    runs js_scan."""
    browser = ModelBrowser(registry)
    getattr(browser, f"{kind}_scan")(text, prefix)
    return browser.findings


@pytest.mark.parametrize("case", SNIPPETS, ids=lambda c: c.name)
def test_snippet_contexts(case):
    document, registry, token = build_snippet(case)
    findings = analyze(document, registry)
    assert len(findings) == 1
    assert findings[0].token == token
    assert tuple(ctx.value for ctx in findings[0].context) == case.expected


def test_analyze_one_finding_per_occurrence():
    registry, token = _registry_with_token()
    findings = analyze(f"<p>{token}</p><div>{token}</div>", registry)
    assert [f.context for f in findings] == [(C.HtmlText,), (C.HtmlText,)]


def test_analyze_missing_token():
    registry, token = _registry_with_token()
    with pytest.raises(MissingToken) as err:
        analyze("<p>no annotations here</p>", registry)
    assert err.value.token == token


def test_analyze_is_deterministic():
    registry, token = _registry_with_token()
    document = f"<a href='javascript:f(\"{token}\")'>x</a>"
    first = analyze(document, registry)
    second = analyze(document, registry)
    assert first == second


def test_unregistered_token_shapes_are_plain_text():
    registry, token = _registry_with_token()
    stranger = SinkRegistry(seed=99).new_token()
    findings = analyze(f"<p>{token} {stranger}</p>", registry)
    assert [f.token for f in findings] == [token]


def test_finding_excerpt_surrounds_token():
    registry, token = _registry_with_token()
    findings = analyze(f"<p>left margin {token} right margin</p>", registry)
    assert token in findings[0].excerpt
    assert "left margin" in findings[0].excerpt


def test_html_scan_event_handler():
    registry, token = _registry_with_token()
    findings = _scan("html", f"<div onclick=\"f('{token}')\">", registry)
    assert findings[0].context == (C.HtmlAttrDq, C.JsStringSq)


def test_html_scan_comment_and_script_src():
    registry, token = _registry_with_token()
    assert _scan("html", f"<!-- {token} -->", registry)[0].context == \
        (C.HtmlComment,)
    assert _scan("html", f'<script src="{token}">', registry)[0].context == \
        (C.HtmlAttrDq, C.UriScriptSrc)


def test_html_scan_attribute_values_are_entity_decoded():
    registry, token = _registry_with_token()
    value = f"javascript:alert(&#x27;{token}&#x27;)"
    findings = _scan("html", f'<a href="{value}">', registry)
    assert findings[0].context == (C.HtmlAttrDq, C.Uri, C.JsStringSq)


# The contexts that a value of each kind adds after HtmlAttrDq.
_KIND_CONTEXTS = {"onclick": (C.JsStringSq,), "style": (C.CssString,),
                  "srcdoc": (C.HtmlText,),
                  **dict.fromkeys(URI_ATTRIBUTES, (C.Uri, C.JsStringSq))}


@pytest.mark.parametrize("name", [
    spelling for name in sorted(URI_ATTRIBUTES | {
        "style", "srcdoc", "onclick", "title", "poster", "cite"})
    for spelling in (name, name.upper())])
def test_each_attribute_kind_hands_its_value_to_its_scanner(name):
    """Every URI name, one name of each other kind and three plain ones,
    in either case, read a javascript: value as the reference does: the
    random reference properties rarely spell one name before a token."""
    registry, token = _registry_with_token()
    document = f"""<p {name}="javascript:'{token}'">x</p>"""
    findings = _scan("html", document, registry)
    reference = ReferenceBrowser(registry)
    reference.html_scan(document)
    assert findings == reference.findings
    assert [finding.context for finding in findings] == [
        (C.HtmlAttrDq, *_KIND_CONTEXTS.get(name.lower(), ()))]


@pytest.mark.parametrize("value, contexts", [
    ("javascript:f(&quot;a&quot@T@&quot;)", [C.JsStringDq, C.JsCode]),
    ("javascript:f(&quot@T@&quot)", [C.JsCode, C.JsStringDq]),
    ("&lt@T@", [C.HtmlAttrDq]),
    # "&not" reads as written before "in" either way
    ("javascript:f(&quot;&notin@T@&quot;)", [C.JsStringDq]),
])
def test_a_reference_before_a_token_is_read_both_ways(value, contexts):
    """A named reference without ";" right before a token stays as
    written, before the token's letter, but the value the token stands
    for may start with any character: the value is read with the
    reference kept and decoded, and a context that both readings give
    is reported once, as ReferenceBrowser reports it."""
    registry, token = _registry_with_token()
    name = "title" if value.startswith("&") else "href"
    document = f'<a {name}="{value.replace("@T@", token)}">x</a>'
    findings = _scan("html", document, registry)
    assert [finding.context[-1] for finding in findings] == contexts
    reference = ReferenceBrowser(registry)
    reference.html_scan(document)
    assert findings == reference.findings


def test_script_content_is_not_entity_decoded():
    registry, token = _registry_with_token()
    # &quot; must not open a string inside script data.
    findings = _scan("html", f"<script>f(&quot;{token});</script>", registry)
    assert findings[0].context == (C.HtmlScriptData, C.JsCode)


def test_js_scan_positions():
    registry, token = _registry_with_token()
    assert _scan("js", f'page.open("x", {token});', registry)[0].context == \
        (C.JsCode,)
    assert _scan("js", f"var l = '{token}';", registry)[0].context == \
        (C.JsStringSq,)
    assert _scan("js", f"/* {token} */", registry)[0].context == (C.JsComment,)


def test_js_scan_strings_are_terminal():
    registry, token = _registry_with_token()
    findings = _scan("js", f'var html = "<b>{token}</b>";', registry)
    assert findings[0].context == (C.JsStringDq,)


def test_js_scan_escaped_quote_stays_in_string():
    registry, token = _registry_with_token()
    findings = _scan("js", f'var s = "a\\"b {token}";', registry)
    assert findings[0].context == (C.JsStringDq,)


def test_css_scan_positions():
    registry, token = _registry_with_token()
    assert _scan("css", f"color: {token}", registry)[0].context == \
        (C.CssDeclValue,)
    assert _scan("css", f"background: url({token})", registry)[0].context == \
        (C.Uri,)
    assert _scan("css", f'content: "{token}"', registry)[0].context == \
        (C.CssString,)


def test_css_scan_selector_position_is_unknown():
    registry, token = _registry_with_token()
    findings = _scan("css", f"{token} {{ color: red }}".replace("{{", "{"), registry)
    assert findings[0].context == (C.Unknown,)


def test_css_url_quoted_and_escaped():
    registry, token = _registry_with_token()
    findings = _scan("css", f'background: url("{token}")', registry)
    assert findings[0].context == (C.Uri,)


def test_a_css_escape_of_zero_or_a_surrogate_is_a_replacement_character():
    # A URL that starts with U+FFFD, as CSS reads "\0", is relative, not
    # a javascript: one; and no lone surrogate reaches an excerpt.
    registry, token = _registry_with_token()
    findings = analyze(
        f"<p style=\"background:url(\\0javascript:f('{token}'))\">", registry)
    assert [f.context for f in findings] == [(C.HtmlAttrDq, C.Uri)]
    findings = analyze(f'<p style="background:url(\\D800 {token})">',
                       registry)
    assert [(f.context, f.excerpt) for f in findings] == \
        [((C.HtmlAttrDq, C.Uri), "\ufffd" + token)]


def test_css_colon_inside_value_stays_in_the_value():
    registry, token = _registry_with_token()
    findings = analyze(f"<style>a{{background: x:y {token} z}}</style>", registry)
    assert findings[0].context == (C.HtmlStyleData, C.CssDeclValue)
    assert findings[0].excerpt == f" x:y {token} z"


def test_tokens_revealed_only_by_decoding_are_found():
    # The raw text never spells the token, so the scanners that decode
    # must walk all of it, not only the ranges holding the token prefix.
    registry, token = _registry_with_token()
    rest = token[1:]
    js = (C.Uri, C.JsStringSq)
    markup = [
        (f'<a title="&#x78;{rest}">', (C.HtmlAttrDq,)),
        (f"<a title=&#120;{rest}>", (C.HtmlAttrUnq,)),
        # read as a valueless attribute and one named by the quoted
        # value, the value would hand nothing on
        (f'<a title = "&#x78;{rest}">', (C.HtmlAttrDq,)),
        # read from its quote as an unquoted one, the value would end at
        # the space and hand nothing on
        (f'<a title="a &#x78;{rest}">', (C.HtmlAttrDq,)),
        (f"<a title =\t&#x78;{rest}>", (C.HtmlAttrUnq,)),
        (f"<a onclick='f(\"&#x78;{rest}\")'>", (C.HtmlAttrSq, C.JsStringDq)),
        (f'<a href="javascript:f(%27%78{rest}%27)">', (C.HtmlAttrDq, *js)),
        (f'<a href="javascript&colon;f(%27%78{rest}%27)">', (C.HtmlAttrDq, *js)),
        (f'<a HREF="javascript&#58;f(%27%78{rest}%27)">', (C.HtmlAttrDq, *js)),
        (f"<object data=javascript:f(%27%78{rest}%27)>", (C.HtmlAttrUnq, *js)),
        # str.lower() turns the Kelvin sign into "k"
        (f'<a bac\u212aground="javascript:f(%27%78{rest}%27)">',
         (C.HtmlAttrDq, *js)),
        (f'<b style="background:url(\\78 {rest})">', (C.HtmlAttrDq, C.Uri)),
        (f'<b style="background:URL(\\78 {rest})">', (C.HtmlAttrDq, C.Uri)),
        (f'<b style="background:u&#114;l(\\78 {rest})">', (C.HtmlAttrDq, C.Uri)),
        # decoded, &quot; opens a url() payload that runs past the ")"
        # the raw value closes it with
        (f'<b style="background:url(&quot;)\\78 {rest}&quot;)">',
         (C.HtmlAttrDq, C.Uri)),
        # a url() that css_scan reads starts inside another's payload
        (f"<b style='\"url(\" url(\"a)\\78 {rest}\")'>", (C.HtmlAttrSq, C.Uri)),
        # srcdoc is a document whose entities decode once more, and
        # whose URLs and styles decode as the page's do
        (f'<iframe srcdoc="<a title=&quot;&amp;#x78;{rest}&quot;>">',
         (C.HtmlAttrDq, C.HtmlAttrDq)),
        (f"<iframe SRCDOC='<a href=javascript:%78{rest}>'>",
         (C.HtmlAttrSq, C.HtmlAttrUnq, C.Uri, C.JsCode)),
        (f'<iframe srcdoc="<b style=\'url(\\78 {rest})\'>">',
         (C.HtmlAttrDq, C.HtmlAttrSq, C.Uri)),
        # a javascript: URL in any case is inert only without "%", and
        # without a tab or newline, which the URL parser removes
        (f'<a href="JaVaScRiPt:f(%27%78{rest}%27)">', (C.HtmlAttrDq, *js)),
        (f"<a href=\"javascript:f('x\t{rest}')\">", (C.HtmlAttrDq, *js)),
        (f"<a href=\"javascript:f('xt\n{rest[1:]}')\">", (C.HtmlAttrDq, *js)),
        # a data: URL without "%" can still decode to a token
        (f'<a href="data:text/html,<b title=&amp;#x78;{rest}>">',
         (C.HtmlAttrDq, C.Uri, C.HtmlAttrUnq)),
    ]
    # Every URI name, whatever letter it starts with, quoted or not.
    for name in sorted(URI_ATTRIBUTES):
        markup += [
            (f"<a {name}='javascript:f(%27%78{rest}%27)'>",
             (C.HtmlAttrSq, *js)),
            (f"<a {name}=javascript:f(%27%78{rest}%27)>",
             (C.HtmlAttrUnq, *js)),
        ]
    # Each tag, alone or behind and before enough inert markup for the
    # HTML stride to run, must stop it.
    padding = '<div class="c" data-x=1>&amp; x</div><br/>' * 4
    cases = [(before + document + after, expected)
             for document, expected in markup
             for before, after in (("", ""), (padding, padding))]
    # A url() payload is handed on only when it holds the prefix, a
    # backslash or a ":"; after a long enough rule, a stride runs up to
    # the url() and must not consume it.
    encoded = base64.b64encode(f"<i>{token}</i>".encode()).decode()
    for rule in ("", "p { margin: 0 } " * 6):
        cases += [
            (f"<style>{rule}a{{background:url(javascript:%27%78{rest}%27)}}"
             "</style>", (C.HtmlStyleData, C.Uri, C.JsStringSq)),
            (f"<style>{rule}a{{background:url('data:text/html;base64,"
             f"{encoded}')}}</style>", (C.HtmlStyleData, C.Uri, C.HtmlText)),
            (f'<style>{rule}a{{background:url("\\78 {rest}")}}</style>',
             (C.HtmlStyleData, C.Uri)),
        ]
    # As in Fetch, a data: body is base64 only when ";base64" ends the
    # MIME type, and it is percent-decoded before base64 decoding.
    cases += [
        ('<iframe src="data:text/html;base64;charset=utf-8,'
         f'<script>var s=%27%78{rest}%27</script>">',
         (C.HtmlAttrDq, C.Uri, C.HtmlScriptData, C.JsStringSq)),
        (f'<iframe src="data:text/html;base64,%{ord(encoded[0]):02X}'
         f'{encoded[1:]}">', (C.HtmlAttrDq, C.Uri, C.HtmlText)),
    ]
    for document, expected in cases:
        assert "xtnt" not in document
        findings = analyze(document, registry)
        assert [f.context for f in findings] == [expected], document


def test_last_js_token_keeps_its_trailing_excerpt():
    # Lexing stops after the last token; its string or comment is still
    # read to its end, and the excerpt is clipped to it.
    registry, token = _registry_with_token()
    tail = "b" * 60
    findings = _scan("js", f"x = '{token}{tail}'; y(); // more", registry)
    assert findings[0].excerpt == token + tail[:40]
    findings = _scan("js", f"f(); /* {token} end */ g('{tail}');", registry)
    assert findings[0].context == (C.JsComment,)
    assert findings[0].excerpt == f" {token} end "


def test_uri_scan_positions():
    registry, token = _registry_with_token()
    assert _scan("uri", f"https://x/?q={token}", registry)[0].context == (C.Uri,)
    assert _scan("uri", f"javascript:alert('{token}')", registry)[0].context == \
        (C.Uri, C.JsStringSq)
    assert _scan("uri", f"data:text/html,<i>{token}</i>", registry)[0].context == \
        (C.Uri, C.HtmlText)
    # ";base64" must end the MIME type, after spaces only (a tab would
    # be removed from the URL before the MIME type is read)
    for header in ("text/html;base64;charset=utf-8", "text/html;\fbase64"):
        findings = _scan("uri", f"data:{header},<i>{token}</i>", registry)
        assert findings[0].context == (C.Uri, C.HtmlText), header


@pytest.mark.parametrize("uri, context", [
    *[(uri, (C.Uri, C.HtmlText)) for uri in (
        "DATA:TEXT/HTML,<i>{}</i>",
        "data: text/html ;charset=x,<i>{}</i>",
        "data:text/html;a=b;base64;c=d,<i>{}</i>",
        "data:text/html,a,<i>{}</i>")],
    *[(uri, (C.Uri,)) for uri in (
        "data:text/plain;text/html,<i>{}</i>",
        "data:text/htmlx,<i>{}</i>",
        "data:text/html<i>{}</i>",
        "data:,text/html<i>{}</i>",
        "data:\xa0text/html\xa0,<i>{}</i>",
        "\xa0javascript:f('{}')")],
    ("JavaScript:f('{}')", (C.Uri, C.JsStringSq)),
])
def test_uri_scan_reads_a_scheme_as_the_reference_browser(uri, context):
    # The MIME type is text/html in any case, between ASCII whitespace
    # only, before the first "," and any parameters; a leading space
    # that is not a C0 one starts no scheme.
    registry, token = _registry_with_token()
    reference = ReferenceBrowser(registry)
    reference.uri_scan(uri.format(token), ())
    findings = _scan("uri", uri.format(token), registry)
    assert findings == reference.findings
    assert [f.context for f in findings] == [context]


def test_script_src_is_terminal():
    registry, token = _registry_with_token()
    findings = _scan("html", f'<script src="javascript:{token}()">', registry)
    assert findings[0].context == (C.HtmlAttrDq, C.UriScriptSrc)


@pytest.mark.parametrize("value", [
    "java\tscript:f('{}')",
    "java\nscript:f('{}')",
    "javascript\r:f('{}')",
    "java&Tab;script:f('{}')",
    "javascript&NewLine;:f('{}')",
    "\x01javascript:f('{}')",
    "\x0e \x10javascript:f('{}')",
], ids=["tab", "newline", "return", "tab-entity", "newline-entity",
        "leading-control", "leading-controls-and-spaces"])
def test_a_url_scheme_is_read_after_url_preprocessing(value):
    # The URL parser removes every ASCII tab and newline from a URL and
    # skips leading C0 controls and spaces before it reads the scheme,
    # so each value is a javascript: URL, alone or where the HTML
    # stride runs up to it.
    registry, token = _registry_with_token()
    padding = '<div class="c" data-x=1>&amp; x</div><br/>' * 4
    for before in ("", padding):
        document = f'{before}<a href="{value.format(token)}">x</a>{before}'
        findings = analyze(document, registry)
        assert [f.context for f in findings] == \
            [(C.HtmlAttrDq, C.Uri, C.JsStringSq)], document


def test_a_long_run_of_leading_spaces_is_skipped_in_linear_time():
    # Both skips before a scheme match a space: were the first one not
    # possessive, a failed match would try every split of the run, which
    # takes about 14 s for these 30,000 spaces.
    registry, token = _registry_with_token()
    started = time.monotonic()
    findings = analyze(f'<a href="{" " * 30000}x:{token}">', registry)
    assert time.monotonic() - started < 1
    assert [f.context for f in findings] == [(C.HtmlAttrDq, C.Uri)]


# As the HTML tokenizer reads it, "&#x01;" is U+0001, which
# html.unescape would delete.
def test_a_control_reference_in_a_scheme_makes_a_relative_url():
    registry, token = _registry_with_token()
    findings = analyze(f"<a href=\"java&#x01;script:f('{token}')\">x</a>",
                       registry)
    assert [f.context for f in findings] == [(C.HtmlAttrDq, C.Uri)]


def test_a_control_reference_in_a_token_spells_no_token():
    registry, token = _registry_with_token()
    with pytest.raises(MissingToken):
        analyze(f'<a title="xt&#x01;{token[2:]}">x</a>', registry)


def test_url_preprocessing_hands_on_the_preprocessed_body():
    registry, token = _registry_with_token()
    # A data: URL whose scheme and body hold tabs and newlines: the
    # HTML document is the body without them.
    findings = analyze(f'<iframe src="da\tta:text/html,<b\n>{token}</b>">',
                       registry)
    assert [f.context for f in findings] == [(C.HtmlAttrDq, C.Uri, C.HtmlText)]
    assert findings[0].excerpt == token
    # A tab between ";" and "base64" is gone before the MIME type is
    # read, and Fetch allows spaces there, so either way the body is
    # base64.
    encoded = base64.b64encode(f"<i>{token}</i>".encode()).decode()
    for header in ("text/html;\tbase64", "text/html; base64"):
        findings = _scan("uri", f"data:{header},{encoded}", registry)
        assert [f.context for f in findings] == [(C.Uri, C.HtmlText)], header
    # A plain URI is classified as written, tab and all.
    findings = _scan("uri", f"/a?q=\t{token}", registry)
    assert [(f.context, f.excerpt) for f in findings] == \
        [((C.Uri,), f"/a?q=\t{token}")]


def test_a_percent_encoded_token_in_a_base64_payload_is_found():
    # Base64 decoding destroys the token that percent-decoding spells,
    # so the percent-decoded payload keeps the URI classification.
    registry, token = _registry_with_token()
    for payload in (f"%78{token[1:]}", f"aGk%78{token[1:]}="):
        document = f'<a href="data:text/html;base64,{payload}">'
        findings = analyze(document, registry)
        assert [(f.context, f.excerpt) for f in findings] == \
            [((C.HtmlAttrDq, C.Uri), payload.replace("%78", "x"))]


def test_token_literally_inside_base64_payload_stays_uri():
    # The decoded document cannot contain the token, so the raw payload
    # position must still be resolved instead of reported missing.
    registry, token = _registry_with_token()
    document = f'<a href="data:text/html;base64,aGk{token}=">'
    findings = analyze(document, registry)
    assert len(findings) == 1
    assert findings[0].context == (C.HtmlAttrDq, C.Uri)


def test_uri_scan_percent_decodes_javascript_body():
    registry, token = _registry_with_token()
    findings = _scan("uri", f"javascript:alert(%27{token}%27)", registry)
    assert findings[0].context == (C.Uri, C.JsStringSq)


def test_prefix_is_prepended():
    registry, token = _registry_with_token()
    findings = _scan("js", f"'{token}'", registry, (C.HtmlScriptData,))
    assert findings[0].context == (C.HtmlScriptData, C.JsStringSq)


def test_depth_equals_scan_invocations_on_single_token_paths():
    cases = [
        ("<p>@T@</p>", 1),
        ('<script>var q = "@T@";</script>', 2),
        ('<li style="color: @T@">', 2),
        ("<a href=\"javascript:alert('@T@')\">", 3),
        ('<iframe src="data:text/html,<b>@T@</b>">', 3),
    ]
    for doc, depth in cases:
        registry, token = _registry_with_token()
        browser = ModelBrowser(registry)
        with _scan_calls(ModelBrowser) as calls:
            browser.html_scan(doc.replace("@T@", token), ())
        assert len(calls) == depth
        assert len(browser.findings[0].context) == depth
    # A script source is fetched, not scanned; the script's empty body
    # is scanned, and holds no token.
    registry, token = _registry_with_token()
    browser = ModelBrowser(registry)
    with _scan_calls(ModelBrowser) as calls:
        browser.html_scan(f'<script src="{token}">', ())
    assert calls == ["html_scan", "js_scan"]
    assert len(browser.findings[0].context) == 2


def test_every_lexer_group_has_exactly_one_handler():
    # _lex looks each group up in _CONTEXT, _READER or _NEXT (through
    # css_punct): a group in none of them is a KeyError.
    b = browser_module
    tables = (b._HTML, b._JS, b._CSS, b._CSS_IN_VALUE, b._CSS_TAIL[0])
    groups = {name for table in tables for name in table.groupindex}
    for name in groups:
        handlers = (b._CONTEXT, b._READER, {"css_punct"})
        assert sum(name in handler for handler in handlers) == 1, name
    assert set(b._CONTEXT) | set(b._READER) <= \
        groups | set(b._ATTR_RE.groupindex)
    assert b._FROM_LT <= set(b._HTML.groupindex)
    assert set(b._NEXT) == set(":;{}")
    strides = (b._HTML_STRIDE, b._JS_STRIDE, b._CSS_STRIDE,
               b._CSS_VALUE_STRIDE, b._CSS_TAIL[1])
    assert [stride.groups for stride in strides] == [0] * 5


def _nested_data_doc(token: str, depth: int) -> str:
    # A token in the innermost text of k nested data:text/html payloads
    # resolves through 2k+1 contexts.  Quotes alternate between levels;
    # the innermost pair is percent-encoded so it survives one decode.
    innermost = f"<b>{token}</b>"
    if depth == 1:
        return f'<iframe src="data:text/html,{innermost}">'
    level2 = f'<iframe src="data:text/html,{innermost}">'
    if depth == 2:
        payload = level2.replace('"', "&quot;")
        return f'<iframe src="data:text/html,{payload}">'
    level2 = f"<iframe src=%22data:text/html,{innermost}%22>"
    level1 = f"<iframe src='data:text/html,{level2}'>"
    return f'<iframe src="data:text/html,{level1}">'


def test_nested_data_documents_grow_by_two_per_level():
    for depth in (1, 2, 3):
        registry, token = _registry_with_token()
        findings = analyze(_nested_data_doc(token, depth), registry)
        assert len(findings) == 1
        assert len(findings[0].context) == 2 * depth + 1


def test_nesting_past_the_cap_resolves_to_unknown():
    # 300 levels (8 KB) of unquoted data: URIs once exhausted the
    # recursion limit; past the cap the rest is one Unknown region.
    registry, token = _registry_with_token()
    document = "<iframe/src=data:text/html," * 300 + token
    findings = analyze(document, registry)
    assert len(findings) == 1
    assert findings[0].context[-1] == C.Unknown
    assert len(findings[0].context) == MAX_NESTING + 1


@given(
    st.lists(
        st.text(alphabet="<>\"'`=/ \n\tabc:;(){},.!-&%#", max_size=12),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=8),
)
def test_forgiving_scan_always_locates_the_token(pieces, at):
    # Arbitrary markup soup around one token: the scan must neither
    # crash nor lose the token, whatever broken construct surrounds it.
    registry = SinkRegistry(seed=1)
    token = registry.register(frozenset({("o", ())}), "s")
    pieces = list(pieces)
    pieces.insert(min(at, len(pieces)), token)
    document = "".join(pieces)
    findings = analyze(document, registry)
    assert [f.token for f in findings] == [token]
    assert len(findings[0].context) >= 1


def test_forgiving_on_malformed_markup():
    registry, token = _registry_with_token()
    for document, expected in [
        (f"<{token}>", (C.Unknown,)),
        (f"<p {token}=1>", (C.Unknown,)),
        (f"<p class='{token}", (C.Unknown,)),
        (f"stray < here {token}", (C.HtmlText,)),
        (f"<p><b>{token}", (C.HtmlText,)),
    ]:
        findings = analyze(document, registry)
        assert findings[0].context == expected, document


def test_attribute_free_tags_and_raw_text_tags_of_any_case():
    # Attribute-free tags end as tags, and those that open script or
    # style content do so whatever their case.
    registry, token = _registry_with_token()
    for document, expected in [
        (f"<SCRIPT>var s='{token}'</SCRIPT>", (C.HtmlScriptData, C.JsStringSq)),
        (f"<Style >a{{color: {token}}}</style>", (C.HtmlStyleData, C.CssDeclValue)),
        (f"<p>{token}", (C.HtmlText,)),
        (f"<br/>{token}", (C.HtmlText,)),
        (f"<p/>{token}", (C.HtmlText,)),
    ]:
        findings = analyze(document, registry)
        assert [f.context for f in findings] == [expected], document


@pytest.mark.parametrize("document, expected", [
    ('<script>var s="</\u017fcript><b>{}</b>";</script>',
     (C.HtmlScriptData, C.JsStringDq)),
    ('<script>var s="</scr\u0131pt><b>{}</b>";</script>',
     (C.HtmlScriptData, C.JsStringDq)),
    ('<SCRIPT>var s="</SCR\u0130PT><b>{}</b>";</SCRIPT>',
     (C.HtmlScriptData, C.JsStringDq)),
    ('<style>a{{content:"</\u017ftyle><b>{}</b>"}}</style>',
     (C.HtmlStyleData, C.CssString)),
], ids=["long-s-script", "dotless-i-script", "dotted-I-script",
        "long-s-style"])
def test_raw_text_ends_only_at_an_ascii_end_tag_name(document, expected):
    # The HTML tokenizer matches an end tag's name in ASCII case only,
    # so a name that only Unicode case folding turns into "script" or
    # "style" leaves the element open.
    registry, token = _registry_with_token()
    document = document.format(token)
    reference = ReferenceBrowser(registry)
    reference.html_scan(document, ())
    for findings in (analyze(document, registry), reference.findings):
        assert [f.context for f in findings] == [expected]


@pytest.mark.parametrize("markup", [
    "<!DOCTYPE html {}>", "<!DOCTYPE html {}", "<?xml version='1.0' {}?>",
    "<?xml {}", "</p {}", "</{}",
], ids=["doctype", "unclosed-doctype", "xml", "unclosed-xml",
        "unclosed-end-tag", "unclosed-end-tag-name"])
def test_a_token_in_a_declaration_or_unclosed_end_tag_is_unknown_from_its_lt(
        markup):
    # These groups are classified from their "<", so a token near it
    # has an excerpt that starts there, as the reference's does.
    registry, token = _registry_with_token()
    document = "<p>some text before the markup</p>" + markup.format(token)
    reference = ReferenceBrowser(registry)
    reference.html_scan(document, ())
    findings = analyze(document, registry)
    assert findings == reference.findings
    assert [f.context for f in findings] == [(C.Unknown,)]
    assert findings[0].excerpt.startswith(markup[:2])


_CLASSIFY_REGISTRY = SinkRegistry(seed=6)
_A, _B = (_CLASSIFY_REGISTRY.register(frozenset({("o", ())}), f"s{i}")
          for i in range(2))
_STRANGER = SinkRegistry(seed=99).new_token()


@pytest.mark.parametrize("text, lo, hi, expected", [
    # a token that ends exactly at the range end, and one a character
    # longer than the range
    (f"ab {_A} cd", 0, 39, [_A]),
    (f"ab {_A} cd", 0, 38, []),
    # a range that starts at a token, and one a character into it
    (f"ab {_A} cd", 3, 42, [_A]),
    (f"ab {_A} cd", 4, 42, []),
    # an unregistered well-formed token directly before a registered one
    (f"{_STRANGER}{_A}", 0, 72, [_A]),
    # a prefix directly before a token, and a prefix that a token's
    # hex digits break off
    (f"xtnt{_A}", 0, 40, [_A]),
    (f"xtnt{_A[4:20]}{_B}", 0, 56, [_B]),
    # two registered tokens back to back, the same one twice, and a
    # prefix left at the range end
    (f"{_A}{_B}{_A}xtnt", 0, 112, [_A, _B, _A]),
], ids=["ends-at-hi", "straddles-hi", "starts-at-lo", "inside-lo",
        "after-unregistered", "after-prefix", "after-broken-token",
        "back-to-back"])
def test_classify_walks_the_prefixes_as_the_reference_matches_tokens(
        text, lo, hi, expected):
    browser = ModelBrowser(_CLASSIFY_REGISTRY)
    reference = ReferenceBrowser(_CLASSIFY_REGISTRY)
    browser._classify(text, lo, hi, (C.HtmlText,), C.Uri)
    reference._classify(text[lo:hi], (C.HtmlText,), C.Uri)
    assert browser.findings == reference.findings
    assert [f.token for f in browser.findings] == expected


def test_a_long_text_without_markup_finds_its_last_token():
    # The HTML table's search skips text without "<" by its literal
    # prefix; each scanner still finds the token at the very end.
    registry, token = _registry_with_token()
    text = ("plain words and no markup, " * 7500)[:200_000 - len(token)] + token
    assert len(text) == 200_000 and "<" not in text
    for kind in ("html", "js", "css", "uri"):
        browser = ModelBrowser(registry)
        reference = ReferenceBrowser(registry)
        getattr(browser, f"{kind}_scan")(text, ())
        getattr(reference, f"{kind}_scan")(text, ())
        assert browser.findings == reference.findings, kind
        assert [f.token for f in browser.findings] == [token], kind
        assert browser.findings[0].excerpt == text[-76:], kind


_REFERENCE_REGISTRY = SinkRegistry(seed=4)
_REFERENCE_TOKENS = tuple(
    _REFERENCE_REGISTRY.register(frozenset({("o", ())}), f"s{i}") for i in range(2))
FRAGMENTS = (
    # tags, quoted and unquoted attributes
    "<", ">", "</", "/>", "<p>", "<P>", "<br/>", "<p/>", "<a ", "<a href=",
    "<div onclick=", "<b style=", "<iframe src=", "<script src=",
    "<iframe srcdoc=", "<script>",
    "<SCRIPT>", "</script", "</script>", "<style>", "<Style >", "</style>",
    "<!", "<?", " x=", "=", '"v"', "'v'",
    # quotes, escapes, comments (empty ones, and one that "--!>"
    # ends), raw-text ends, CSS
    '"', "'", "`", "\\", "//", "/*", "*/", "<!--", "-->", "<!-->", "<!--->",
    "--!>", "url(", "URL(", ")", ":", ";", "{", "}",
    # closed constructs, a ":" inside a value, a division, a whole url()
    "'s'", '"s"', "`t`", "/*c*/", "//c\n", "'\\''", "a:b", "1/2", "url(x)",
    "x;", "'s''t'",
    # declarations whose values hold ";" or "}" inside a construct, and
    # ":" or text after one
    "a:\"x;y\":z;", "b:url(x) 's'}", "c:/*;*/d",
    # url() payloads handed on and not, in any case, and one whose
    # quote never closes; a lone "u"
    "url(a:b)", "url(\\3a b)", 'url("a:b")', "URL(x)", "uRl( 'y' )",
    'url("a" b)', "url( 'y)", "u",
    # attributes the HTML stride must tell apart: entities that decode
    # to "&" or ":", names of any case that pick a scanner or none, an
    # unquoted value, style url()s that hand nothing on, a tag that
    # only starts like a raw text one, and a value whose quote never
    # closes
    "&amp;", "&colon;", "&#x3a;", "ONCLICK=", "HREF=", "Src=", "SrcDoc=", "data=",
    "formaction=", "data-x=", " x=y", 'style="a:url(/b)"', "style='u:url(\"a\")'",
    "<scripts>", ' x="v',
    # schemes, encodings (in the last header, "base64" does not end the
    # MIME type), whitespace
    "javascript:", "data:text/html,", "data:text/html;base64,", "aGk=",
    "data:text/html;base64;x,", "DATA:TEXT/HTML,", "data: text/html ;x=y,",
    "&quot;", "&#39;", "%27", "%22", "\n", "\r", "\u2028", "\t", " ", "a",
    # references without ";", which a token's letter keeps as written
    "&quot", "&lt", "&notin",
    # registered tokens, and an unregistered one
    *_REFERENCE_TOKENS, SinkRegistry(seed=99).new_token(),
    # a registered token that only entity, percent or CSS-escape
    # decoding spells
    "&#x78;" + _REFERENCE_TOKENS[0][1:], "%78" + _REFERENCE_TOKENS[0][1:],
    "\\78 " + _REFERENCE_TOKENS[0][1:],
)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), min_size=20, max_size=60),
       st.integers(min_value=0, max_value=64))
def test_scanners_match_the_reference_browser(pieces, short):
    """Each scan entry point gives the findings of ReferenceBrowser, the
    hand-written scanners the lexer tables replaced, and scans no more
    often: the reference scans every value and url() payload that the
    model skips as one that could reveal no token.  A JavaScript, CSS or
    HTML stride ends only where a table match ends, so whether a range
    is strode over changes nothing: no stride runs over a range of at
    most ``short`` characters, and 0 strides over every range.

    A ROADMAP item 4 fix that changes behaviour on purpose updates the
    reference with it.
    """
    text = "".join(pieces)
    for kind in ("html", "js", "css", "uri"):
        browser = ModelBrowser(_REFERENCE_REGISTRY)
        reference = ReferenceBrowser(_REFERENCE_REGISTRY)
        with mock.patch.object(browser_module, "_SHORT_RANGE", short), \
                _scan_calls(ModelBrowser) as calls:
            getattr(browser, f"{kind}_scan")(text, ())
        with _scan_calls(ReferenceBrowser) as reference_calls:
            getattr(reference, f"{kind}_scan")(text, ())
        assert browser.findings == reference.findings, kind
        assert len(calls) <= len(reference_calls), kind


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS)
                | st.sampled_from(_REFERENCE_TOKENS), min_size=1, max_size=60),
       st.data(), st.integers(min_value=0, max_value=64))
def test_a_handed_position_scans_as_a_search(pieces, data, short):
    """js_scan and css_scan give a body ``text[start:end]`` the same
    findings, excerpts included, and the same scanner calls whether
    they are handed the HTML level's next token prefix, made relative
    to the body, or search for it themselves.  That position is the
    first prefix at or after a point at or before ``start``, as where a
    start tag opens: it may lie before the body (a negative position),
    in it, straddle its end or lie past it.  Half the pieces are
    registered tokens, so that a body past a prefix often holds one.
    The bounds fall anywhere, inside a construct or a token too.  No
    stride runs over a range of at most ``short`` characters."""
    text = "".join(pieces)
    start = data.draw(st.integers(min_value=0, max_value=len(text)))
    end = data.draw(st.integers(min_value=start, max_value=len(text)))
    point = data.draw(st.integers(min_value=0, max_value=start))
    if (nxt := text.find("xtnt", point)) < 0:
        nxt = len(text)
    body = text[start:end]
    for kind in ("js", "css"):
        handed = ModelBrowser(_REFERENCE_REGISTRY)
        searched = ModelBrowser(_REFERENCE_REGISTRY)
        with mock.patch.object(browser_module, "_SHORT_RANGE", short):
            with _scan_calls(ModelBrowser) as handed_calls:
                getattr(handed, f"{kind}_scan")(body, (), nxt - start)
            with _scan_calls(ModelBrowser) as searched_calls:
                getattr(searched, f"{kind}_scan")(body, ())
        assert handed.findings == searched.findings, kind
        assert handed_calls == searched_calls, kind


# Script and style text like that of the benchmark's script-heavy pages;
# $N is replaced by a number.
_JS_STATEMENTS = (
    "function fn$N(a, b) {\n  var t = a * $N + b / 3;\n"
    "  return t > $N ? \"big\" : 'small';\n}\n",
    "// helper $N: normalise the input\n",
    'var label$N = "Item \\"$N\\" in \\\\ list";\n',
    "/* block $N\n   spans two lines */\n",
    "list$N.push({ id: $N, name: 'n$N', tags: [\"a\", \"b\"] });\n",
    "if (x$N < $N && y$N > 2) { call$N(x$N); }\n",
    "var tpl$N = `row-$N`;\n",
)
_CSS_RULES = (
    ".c$N { color: #a$N; margin: 0 $Npx; "
    "font-family: \"Helvetica Neue\", sans-serif; }\n",
    "/* section $N */\n",
    "#id$N > a:hover { background: url(\"/img/$N.png\") no-repeat; }\n",
    "@media (max-width: $Npx) { .c$N { display: none; } }\n",
    ".i$N::before { content: \"\\201C\"; }\n",
)


# Markup like that of the benchmark's bundle-stream pages: tags whose
# attributes hand nothing on, and some whose attributes do.
_MARKUP = (
    '<div class="card c$N" id="item-$N" data-rank="$N">\n',
    '<a href="/item/$N?ref=list&amp;page=$N" title="Item $N &amp; more">'
    "Item $N</a>\n",
    '<img src=/img/$N.png alt="Picture $N" width=64 HEIGHT=\'64\'>\n',
    '<span style="color:#$N;margin:$Npx">Tag &lt;$N&gt;</span>\n',
    '<button type="button" onclick="toggle($N); return false;">More'
    "</button>\n",
    '<a href="javascript:void(0)" onclick="open($N)">Open</a>\n',
    '<div style="background:url(/bg/$N.png) no-repeat">x</div>\n',
    "<p>Lorem ipsum $N &mdash; dolor &#39;sit&#39; amet, $N% off.</p>\n",
    "<!-- row $N --><!DOCTYPE x><?pi $N?>\n",
    "<ul><li>One</li><li>Two &amp; three</li></ul> 1 < 2\n",
    '<b title="&#$N;" style=\'x:url("/$N")\'>b</b></div>\n',
)


def _pieces(rng, pool, count):
    return [rng.choice(pool).replace("$N", str(rng.randrange(10**4)))
            for _ in range(count)]


# Each input is a list of pieces; tokens go between pieces.
_AT_SCALE = {
    "sq-strings": lambda rng: ["'a';"] * 20000,
    "dq-strings": lambda rng: ['"a";'] * 20000,
    "line-comments": lambda rng: ["//c\n"] * 20000,
    "slashes": lambda rng: ["/"] * 40000,
    "colon-semicolon": lambda rng: [":;"] * 20000,
    "unclosed-urls": lambda rng: ["url("] * 20000,
    "adjacent-strings": lambda rng: ["'a'"] * 20000,
    "inert-urls": lambda rng: ["url(x)"] * 20000,
    "colon-urls": lambda rng: ["url(a:b)"] * 20000,
    # a url() handed on stops a stride in every value, whose rest, long
    # enough to stride over, a value's stride reads
    "live-url-values":
        lambda rng: ["x:url(a:b) c;d/*" + "e" * 64 + "*/"] * 2000,
    "letter-u": lambda rng: ["u"] * 40000,
    "colons": lambda rng: [":"] * 40000,
    "backslash-pairs": lambda rng: ["'"] + ["\\\\"] * 20000,
    "unclosed-template": lambda rng: ["`"] + ["a "] * 20000,
    "css-rules": lambda rng: _pieces(rng, _CSS_RULES, 5000),
    "js-statements": lambda rng: _pieces(rng, _JS_STATEMENTS, 5000),
    # markup, lexed by html_scan
    "markup": lambda rng: _pieces(rng, _MARKUP, 3000),
    "inert-tags": lambda rng: ['<div class="c" data-x=1>x</div>'] * 5000,
    "live-tags": lambda rng: ['<a href="javascript:f(%27x%27)">x</a>'] * 5000,
    "inert-js-urls": lambda rng: ['<a href="javascript:f()">x</a>'] * 5000,
    "long-values": lambda rng: (["<p>x</p>"] * 2000
                                + ['<b title="' + "a" * 40000 + '">']
                                + ["<p>x</p>"] * 2000
                                + ['<a href="javascript:' + "a" * 40000 + '">']
                                + ["<p>x</p>"] * 2000),
    "stray-lts": lambda rng: ["<"] * 20000,
}
_MARKUP_INPUTS = {"markup", "inert-tags", "live-tags", "inert-js-urls",
                  "long-values", "stray-lts"}


@pytest.mark.parametrize("name", sorted(_AT_SCALE))
def test_scanners_match_the_reference_browser_at_scale(name):
    """Fifty tokens spread through long and hostile script, style and
    markup text: js_scan and css_scan, or html_scan for markup, give the
    findings of ReferenceBrowser and scan no more often.  Each input
    repeats one construct that a stride or a CSS plain range must step
    over or stop at, leaves one open to the end of the text, or holds a
    value longer than a stride may cover."""
    rng = random.Random(name)
    registry = SinkRegistry(seed=5)
    tokens = [registry.register(frozenset({("o", ())}), f"s{i}")
              for i in range(50)]
    pieces = _AT_SCALE[name](rng)
    places = sorted(rng.sample(range(len(pieces) + 1), len(tokens)),
                    reverse=True)
    for token, at in zip(tokens, places):
        pieces.insert(at, token)
    text = "".join(pieces)
    for kind in ("html",) if name in _MARKUP_INPUTS else ("js", "css"):
        browser = ModelBrowser(registry)
        reference = ReferenceBrowser(registry)
        with _scan_calls(ModelBrowser) as calls:
            getattr(browser, f"{kind}_scan")(text, ())
        with _scan_calls(ReferenceBrowser) as reference_calls:
            getattr(reference, f"{kind}_scan")(text, ())
        assert browser.findings == reference.findings, kind
        assert len(calls) <= len(reference_calls), kind


# Text of one long construct: a lexer repeat that keeps backtracking
# state costs 50 to 120 bytes per character of it.
_LONG_CONSTRUCTS = {
    "js-string-of-backslash-pairs":
        lambda token: "x='" + "\\\\" * (1 << 17) + token + "'",
    "css-string-of-backslash-pairs":
        lambda token: "a{b:'" + "\\\\" * (1 << 17) + token + "'}",
    "comment-of-dash-pairs":
        lambda token: "<!--" + "-a" * (1 << 17) + token + "-->",
    "entities-in-a-title":
        lambda token: '<a title="' + "&amp;" * 50000 + '">' + token,
    "entities-in-a-title-beside-a-live-value":
        lambda token: ('<a title="' + "&amp;" * 50000
                       + '" href="javascript:f(%27x%27)">x</a>' + token),
    "inert-tags":
        lambda token: '<div class="c" data-x=1>x</div>' * 8000 + token,
    "inert-js-urls":
        lambda token: '<a href="javascript:void(0)">x</a>' * 8000 + token,
}


@pytest.mark.parametrize("name", sorted(_LONG_CONSTRUCTS))
def test_scanner_memory_stays_within_twice_the_input(name):
    """Every scanner reads 250 KB or more of one construct, holding less
    than twice its size at the peak (tracemalloc): no lexer repeat keeps
    state for each character, so hostile input cannot exhaust memory."""
    registry, token = _registry_with_token()
    text = _LONG_CONSTRUCTS[name](token)
    for kind in ("html", "js", "css", "uri"):
        browser = ModelBrowser(registry)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            getattr(browser, f"{kind}_scan")(text, ())
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [f.token for f in browser.findings] == [token], kind
        assert peak < 2 * len(text), kind


@pytest.mark.parametrize("tag, code", [("script", "var a = 1;\n"),
                                       ("style", "a{b:c}\n")])
@pytest.mark.parametrize("wide", [False, True], ids=["ascii", "wide"])
def test_raw_text_costs_one_copy(tag, code, wide):
    """html_scan reads a <script> or <style> of 250 KB or more, with a
    token at its end, holding less than twice the input's size in bytes
    at the peak (tracemalloc): the body's copy is the one allocation in
    proportion to it.  A copy takes the text's width, so a body with one
    character outside Latin-1 costs two bytes a character."""
    registry, token = _registry_with_token()
    body = code * (250_000 // len(code) + 1) + ("\u2192" if wide else "")
    text = f"<{tag}>{body}{token}</{tag}>"
    browser = ModelBrowser(registry)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        browser.html_scan(text, ())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [f.token for f in browser.findings] == [token]
    assert peak < 2 * sys.getsizeof(text)


def test_a_stride_reads_a_long_inert_tag_whole():
    """A stride runs up to the next token prefix, however far, so the
    start-tag reader never reads, nor entity-decodes, a 250 KB tag whose
    values hand nothing on."""
    registry, token = _registry_with_token()
    text = '<a title="' + "&amp;" * 50000 + '">' + token
    reader = mock.Mock(wraps=ModelBrowser._start_tag)
    browser = ModelBrowser(registry)
    with mock.patch.dict(browser_module._READER, start_tag=reader):
        browser.html_scan(text, ())
    assert reader.call_count == 0
    assert [f.context for f in browser.findings] == [(C.HtmlText,)]


def test_a_stride_reads_javascript_urls_that_reveal_nothing():
    """A javascript: URL whose body holds no "%", tab or newline decodes
    to no token, so a stride consumes the links that hold one, and the
    start-tag reader never reads them."""
    registry, token = _registry_with_token()
    text = '<a href="javascript:void(0)" onclick="f()">x</a>' * 5000 + token
    reader = mock.Mock(wraps=ModelBrowser._start_tag)
    browser = ModelBrowser(registry)
    with mock.patch.dict(browser_module._READER, start_tag=reader):
        browser.html_scan(text, ())
    assert reader.call_count == 0
    assert [f.context for f in browser.findings] == [(C.HtmlText,)]


@pytest.mark.parametrize("name", dict.fromkeys(
    spelling for name in sorted(URI_ATTRIBUTES)
    for spelling in (name, name.upper(), name.replace("s", "\u017f"))))
def test_a_stride_stops_at_every_spelling_of_a_uri_name(name):
    """A name that matches a URI name in any case, U+017F for "s"
    included, gets the URI rule in a stride, so a value with ":" that
    is no javascript: URL stops it, whatever letter the name starts
    with."""
    assert browser_module._HTML_STRIDE.match(f'<a {name}="a:b">').end() == 0


def test_a_css_stride_reads_whole_declarations():
    """Outside a declaration value, a CSS stride reads whole values, so
    a declaration list without a comment, string or url() is one
    stride."""
    text = "a{b:c;d:e}" * 1000
    assert browser_module._CSS_STRIDE.match(text).end() == len(text)


@pytest.mark.parametrize("piece", ["u", "a:b;", "a/b/c/d:"])
@pytest.mark.parametrize("name", ["_JS_STRIDE", "_CSS_STRIDE", "_CSS_VALUE_STRIDE",
                                  "_CSS_TAIL", "_HTML_STRIDE"])
def test_a_stride_keeps_no_state_per_character(name, piece):
    """Every stride pattern, matched with no cap over 1 MB of one short
    piece, holds less than 1 MiB at the peak (tracemalloc): no repeat in
    it keeps state for each character it reads."""
    stride = getattr(browser_module, name)
    if name == "_CSS_TAIL":
        stride = stride[1]
    text = piece * (1_000_000 // len(piece))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stride.match(text)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Quote-free values, text that opens no tag either, and names that pick
# each row of the element and attribute tables or only start like one.
_QUOTE_FREE = tuple(f for f in FRAGMENTS if not {"'", '"'} & set(f))
_TEXT = tuple(f for f in _QUOTE_FREE if "<" not in f)
_TAG_NAMES = ("a", "b", "iframe", "script", "style", "scripts")
_ATTRIBUTE_NAMES = ("href", "src", "data", "action", "formaction", "poster",
                    "cite", "background", "style", "onclick", "srcdoc",
                    "title", "data-x", "hrefs", "xlink:href")
_ELEMENT_LISTS = st.lists(st.tuples(
    st.sampled_from(_TAG_NAMES),
    st.lists(st.tuples(st.sampled_from(_ATTRIBUTE_NAMES),
                       st.lists(st.sampled_from(_QUOTE_FREE), max_size=4)),
             max_size=3),
    st.lists(st.sampled_from(_TEXT), max_size=6)), min_size=1, max_size=8)


def _render(elements, quote='"', case=str):
    """Each element with its attributes, its text and its end tag."""
    return "".join(
        f"<{case(tag)}"
        + "".join(f" {case(name)}={quote}{''.join(value)}{quote}"
                  for name, value in attributes)
        + f">{''.join(text)}</{case(tag)}>" for tag, attributes, text in elements)


def _findings(document):
    browser = ModelBrowser(_REFERENCE_REGISTRY)
    browser.html_scan(document, ())
    return browser.findings


@settings(max_examples=300, deadline=None)
@given(_ELEMENT_LISTS, st.randoms(use_true_random=False))
def test_name_case_changes_no_finding(elements, rnd):
    """Tag and attribute names pick their table rows in any ASCII case."""
    def case(name):
        return "".join(rnd.choice((char, char.upper())) for char in name)
    assert _findings(_render(elements, case=case)) == _findings(_render(elements))


@settings(max_examples=300, deadline=None)
@given(_ELEMENT_LISTS)
def test_quote_style_changes_only_the_attribute_context(elements):
    """Single-quoting values that hold neither quote, instead of
    double-quoting them, turns HtmlAttrDq into HtmlAttrSq where a
    finding's context starts, and changes nothing else."""
    swap = {C.HtmlAttrDq: C.HtmlAttrSq}
    expected = [f._replace(context=(swap.get(f.context[0], f.context[0]),
                                    *f.context[1:]))
                for f in _findings(_render(elements))]
    assert _findings(_render(elements, "'")) == expected


def _pairs(document):
    """Each finding's token and context: an insertion moves excerpts."""
    return [(f.token, f.context) for f in _findings(document)]


# Token-free filler that hands nothing on, by where it goes: markup
# between elements (text, entities, a stray "<", comments, declarations,
# end tags and start tags with inert attributes), and script or style
# text at the start of an element's content, where it leaves the lexer
# in its default state.  Quotes and comment openers sit inside closed
# constructs, where a stride that misread one would end elsewhere.
_FILLER = {
    "markup": ("lorem ipsum ", "&amp; ", "1 < 2 ", "\n", "<!-- it's -->",
               "<!DOCTYPE html>", "<br/>", "<p>", "</p>", "</div>",
               '<div class="c" data-x=1>', "<a href='/x?a=1&amp;b=2' title=t>",
               '<b title="a\'b /* c">'),
    "script": ("var a = 1 / 2;\n", "/* it's */", "// don't\n", "'a\\'b';",
               '"/*";', "`x'y`;", "f(x);\n"),
    "style": ("/* it's */", "a { content: 'x;y' } ", "b{c:d}",
              "p { background: url(a.png) } ", "i{quotes:\"'\" \"'\"}"),
}


@settings(max_examples=200, deadline=None)
@given(_ELEMENT_LISTS,
       st.lists(st.tuples(st.integers(min_value=0, max_value=8), st.booleans(),
                          st.integers(min_value=65, max_value=17408)),
                min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_inert_filler_changes_no_finding(elements, insertions, rnd):
    """Filler long enough to stride over, up to 17,408 characters,
    inserted between elements or at the start of an element's content,
    changes no finding's token or context."""
    before, inside = {}, {}
    for at, within, length in insertions:
        at = min(at, len(elements) - within)
        kind = elements[at][0] if within else "markup"
        pool = _FILLER.get(kind, _FILLER["markup"])
        filler = []
        while length > 0:
            filler.append(rnd.choice(pool))
            length -= len(filler[-1])
        (inside if within else before)[at] = "".join(filler)
    document = "".join(
        before.get(i, "") + _render([(tag, attributes,
                                      [inside.get(i, ""), *text])])
        for i, (tag, attributes, text) in enumerate(elements))
    document += before.get(len(elements), "")
    assert _pairs(document) == _pairs(_render(elements))


@settings(max_examples=300, deadline=None)
@given(_ELEMENT_LISTS, st.data())
def test_a_numeric_entity_in_a_token_free_value_changes_no_finding(elements,
                                                                   data):
    """Spelling one character of a value that spells no registered token,
    raw or decoded, as a decimal or hex character reference takes the
    value off the inert path and changes no finding."""
    values = [(e, a) for e, (_, attributes, _) in enumerate(elements)
              for a, (_, value) in enumerate(attributes)
              if value and not any(token[1:] in "".join(value)
                                   for token in _REFERENCE_TOKENS)]
    assume(values)
    e, a = data.draw(st.sampled_from(values))
    tag, attributes, text = elements[e]
    name, value = attributes[a]
    value = "".join(value)
    i = data.draw(st.integers(min_value=0, max_value=len(value) - 1))
    spelled = data.draw(st.sampled_from(("&#%d;", "&#x%x;", "&#X%X;")))
    attributes = [*attributes[:a],
                  (name, [value[:i], spelled % ord(value[i]), value[i + 1:]]),
                  *attributes[a + 1:]]
    changed = [*elements[:e], (tag, attributes, text), *elements[e + 1:]]
    assert _pairs(_render(changed)) == _pairs(_render(elements))


# Fuzz documents: at most 80 pieces, each a fragment above (at most 41
# characters) or arbitrary text of at most 24, so at most 3,280
# characters besides the one to three registered tokens placed among
# them.  analyze finds exactly the registered tokens or raises
# MissingToken; no other exception escapes.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=24)),
                max_size=80),
       st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=3))
def test_analyze_finds_the_registered_tokens_or_reports_one_missing(pieces, places):
    registry = SinkRegistry(seed=7)
    tokens = [registry.register(frozenset({("o", ())}), f"s{i}")
              for i in range(len(places))]
    pieces = list(pieces)
    for token, at in zip(tokens, places):
        pieces.insert(min(at, len(pieces)), token)
    try:
        findings = analyze("".join(pieces), registry)
    except MissingToken as missing:
        assert missing.token in tokens
        return
    assert {f.token for f in findings} == set(tokens)
