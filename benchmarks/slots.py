"""The hand-written correctness reference: where a value lands and the
verdict a browser-correct checker gives for it.

Each row is written from the context list, the default context map and
the bug patterns described in the project README, not by running
ctxcheck.  A slot is a self-contained snippet: the markup before the
value, the template filters applied to it, the markup after it, the
sanitizer chain those filters produce, and the expected context
sequence, sufficiency and bug pattern.

Rows marked ``gap`` are known gaps of the model browser.  Their expected
verdict is what a real browser implies, which the model does not give
yet, so they are compared on sufficiency only and counted apart from
the regular rows.
"""

from __future__ import annotations

import html
from typing import NamedTuple
from urllib.parse import quote


class Slot(NamedTuple):
    name: str
    before: str
    filters: tuple[str, ...]
    after: str
    chain: tuple[str, ...]
    context: tuple[str, ...]
    sufficient: bool
    pattern: str | None
    gap: bool = False


H = ("html_escape",)
S = ("HtmlScriptData",)

REGULAR_SLOTS = (
    Slot("text", "<p>", (), "</p>", H, ("HtmlText",), True, None),
    Slot("text-safe", "<b>", ("safe",), "</b>", ("safe",), ("HtmlText",),
         False, "NoSanitization"),
    Slot("attr-dq", '<input value="', (), '">', H, ("HtmlAttrDq",),
         True, None),
    Slot("attr-sq", "<abbr title='", (), "'>a</abbr>", H, ("HtmlAttrSq",),
         True, None),
    Slot("attr-unq", "<td width=", (), ">t</td>", H, ("HtmlAttrUnq",),
         False, "HtmlInUnquotedAttr"),
    Slot("attr-name", "<i data-", (), '="1">i</i>', H, ("Unknown",),
         False, "OtherMismatch"),
    Slot("script-dq-js", '<script>var s = "', ("escapejs",), '";</script>',
         ("js_escape",), S + ("JsStringDq",), True, None),
    Slot("script-sq-js", "<script>var t = '", ("escapejs",), "';</script>",
         ("js_escape",), S + ("JsStringSq",), True, None),
    Slot("script-dq-html", '<script>var s = "', (), '";</script>', H,
         S + ("JsStringDq",), False, "HtmlInJsString"),
    Slot("script-code", "<script>n = ", (), ";</script>", H,
         S + ("JsCode",), False, "HtmlInJsCode"),
    Slot("script-comment", "<script>/* ", (), " */</script>", H,
         S + ("JsComment",), False, "OtherMismatch"),
    Slot("style-attr", '<b style="color: ', (), '">b</b>', H,
         ("HtmlAttrDq", "CssDeclValue"), False, "HtmlInCssValue"),
    Slot("style-elem", "<style>p { color: ", (), " }</style>", H,
         ("HtmlStyleData", "CssDeclValue"), False, "HtmlInCssValue"),
    Slot("css-url-enc", '<u style="background: url(', ("urlencode",),
         ')">u</u>', ("url_encode", "html_escape"), ("HtmlAttrDq", "Uri"),
         True, None),
    Slot("css-url-html", '<u style="background: url(', (), ')">u</u>', H,
         ("HtmlAttrDq", "Uri"), False, "HtmlInUri"),
    Slot("onclick-js", "<button onclick=\"go('", ("escapejs", "escape"),
         "')\">go</button>", ("js_escape", "html_escape"),
         ("HtmlAttrDq", "JsStringSq"), True, None),
    Slot("onclick-html", "<button onclick=\"go('", (), "')\">go</button>", H,
         ("HtmlAttrDq", "JsStringSq"), False, "HtmlInJsString"),
    Slot("href-enc", '<a href="/find?q=', ("urlencode",), '">find</a>',
         ("url_encode", "html_escape"), ("HtmlAttrDq", "Uri"), True, None),
    Slot("href-html", '<a href="', (), '">link</a>', H,
         ("HtmlAttrDq", "Uri"), False, "HtmlInUri"),
    Slot("js-uri-enc", "<a href=\"javascript:show('",
         ("escapejs", "urlencode", "escape"), "')\">show</a>",
         ("js_escape", "url_encode", "html_escape"),
         ("HtmlAttrDq", "Uri", "JsStringSq"), True, None),
    Slot("js-uri-html", "<a href=\"javascript:show('", (), "')\">show</a>",
         H, ("HtmlAttrDq", "Uri", "JsStringSq"), False, "HtmlInJsString"),
    Slot("data-uri-enc", '<iframe src="data:text/html,%3Cb%3E',
         ("escape", "urlencode", "escape"), '%3C/b%3E"></iframe>',
         ("html_escape", "url_encode", "html_escape"),
         ("HtmlAttrDq", "Uri", "HtmlText"), True, None),
    Slot("data-uri-html", '<iframe src="data:text/html,%3Cb%3E', (),
         '%3C/b%3E"></iframe>', H, ("HtmlAttrDq", "Uri", "HtmlText"),
         False, "OtherMismatch"),
    Slot("comment", "<!-- ", (), " -->", H, ("HtmlComment",),
         False, "OtherMismatch"),
)

# The four known model gaps.  The first three are accepted by the model
# although a browser would let the value escape; the last is flagged
# although a browser treats the markup as inert text.
GAP_SLOTS = (
    # A regex literal holding a quote: the value sits in JS code.
    Slot("gap-js-regex", "<script>var r=/'/; x = ", ("escapejs",),
         "; y='z';</script>", ("js_escape",), S + ("JsCode",),
         False, "OtherMismatch", gap=True),
    # Browsers drop ASCII tab from URLs, so this is a javascript: URL.
    Slot("gap-uri-tab", "<a href=\"java&#x09;script:f('", ("urlencode",),
         "')\">f</a>", ("url_encode", "html_escape"),
         ("HtmlAttrDq", "Uri", "JsStringSq"), False, "HtmlInJsString",
         gap=True),
    # srcdoc is an HTML document after entity decoding.
    Slot("gap-srcdoc", "<iframe srcdoc=\"<script>var s='", (),
         "'</script>\"></iframe>", H,
         ("HtmlAttrDq", "HtmlScriptData", "JsStringSq"), False,
         "HtmlInJsString", gap=True),
    # textarea content is RCDATA: the tag inside is text.
    Slot("gap-textarea", '<textarea><a href="', (), '">a</a></textarea>', H,
         ("HtmlText",), True, None, gap=True),
)

CLEAN_SLOTS = tuple(slot for slot in REGULAR_SLOTS if slot.sufficient)
FLAWED_SLOTS = tuple(slot for slot in REGULAR_SLOTS if not slot.sufficient)

# Statements placed inside one large <script> or <style> element.  No
# slot puts an HTML-escaped value in JS code: a backtick in the value
# would open a template literal and move every later slot.
SCRIPT_SLOTS = (
    Slot("js-dq", 'var cfg = "', ("escapejs",), '";\n', ("js_escape",),
         S + ("JsStringDq",), True, None),
    Slot("js-sq", "var key = '", ("escapejs",), "';\n", ("js_escape",),
         S + ("JsStringSq",), True, None),
    Slot("js-comment", "/* owner: ", (), " */\n", H, S + ("JsComment",),
         False, "OtherMismatch"),
)
STYLE_SLOTS = (
    Slot("css-value", ".theme { color: ", (), "; }\n", H,
         ("HtmlStyleData", "CssDeclValue"), False, "HtmlInCssValue"),
)

# Characters the JavaScript escaper rewrites as \\uXXXX: string
# breakout, tag breakout in script data, C0 controls, line separators.
_JS_SPECIAL = frozenset(
    "\\'\"`<>&=-;" + "".join(chr(cp) for cp in range(0x20)) + "\u2028\u2029")


def _js_escape(text: str) -> str:
    return "".join("\\u%04X" % ord(ch) if ch in _JS_SPECIAL else ch
                   for ch in text)


ESCAPES = {
    "html_escape": lambda text: html.escape(text, quote=True),
    "js_escape": _js_escape,
    "url_encode": lambda text: quote(text, safe="/"),
    "safe": lambda text: text,
}


def sanitize(value: str, chain: tuple[str, ...]) -> str:
    """Apply a sanitizer chain in order, first-applied first."""
    for sanitizer in chain:
        value = ESCAPES[sanitizer](value)
    return value
