"""Shared fixture corpus: end-to-end template cases and context snippets.

Template cases carry the expected verdict per sink.  Snippet cases place
a token (the @T@ marker) directly in markup and carry the exact context
sequence a browser gives it: ``SNIPPETS`` is the one place where an
expected context is written.  A row the model does not resolve yet names,
in ``closes``, the ROADMAP item whose fix makes it pass, and runs as a
strict expected failure.  A row's context changes only with a spec
citation, never to match the model, and its ``closes`` goes only when the
row passes.
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
    closes: str | None = None  # the ROADMAP item that makes the row pass

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


def _svg_script_reference_doc(token: str) -> str:
    # The token's leading "x" written as a character reference.
    return f"<svg><script>var s='&#x78;{token[1:]}';</script></svg>"


SNIPPETS = [
    SnippetCase("text", "<p>@T@</p>", ("HtmlText",)),
    SnippetCase("bare-text", "before @T@ after", ("HtmlText",)),
    # Text stays text after a stray "<" and after attribute-free tags,
    # whether left open, closed by "/>" or void.
    SnippetCase("text-after-stray-lt", "stray < here @T@", ("HtmlText",)),
    SnippetCase("text-after-open-p", "<p>@T@", ("HtmlText",)),
    SnippetCase("text-after-open-elements", "<p><b>@T@", ("HtmlText",)),
    SnippetCase("text-after-self-closed-br", "<br/>@T@", ("HtmlText",)),
    SnippetCase("text-after-self-closed-p", "<p/>@T@", ("HtmlText",)),
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
    # Script data is not entity-decoded: "&quot;" opens no string.
    SnippetCase("script-code-after-reference", "<script>f(&quot;@T@);</script>",
                ("HtmlScriptData", "JsCode")),
    # A JS string is terminal: markup in it is not read, and an escaped
    # quote does not end it.
    SnippetCase("script-string-holding-markup",
                '<script>var html = "<b>@T@</b>";</script>',
                ("HtmlScriptData", "JsStringDq")),
    SnippetCase("script-string-after-escaped-quote",
                '<script>var s = "a\\"b @T@";</script>',
                ("HtmlScriptData", "JsStringDq")),
    # A tag opens script or style content whatever its case.
    SnippetCase("script-upper-case", "<SCRIPT>var s='@T@'</SCRIPT>",
                ("HtmlScriptData", "JsStringSq")),
    SnippetCase("style-mixed-case", "<Style >a{color: @T@}</style>",
                ("HtmlStyleData", "CssDeclValue")),
    SnippetCase("script-line-comment", "<script>// @T@\ng();</script>",
                ("HtmlScriptData", "JsComment")),
    SnippetCase("script-block-comment", "<script>/* @T@ */</script>",
                ("HtmlScriptData", "JsComment")),
    # A // comment ends at any ECMAScript LineTerminator, so each value
    # sits in the block comment that follows it.
    SnippetCase("script-line-comment-ends-at-ls",
                "<script>// note\u2028 /*\nvar s = '@T@'; // */</script>",
                ("HtmlScriptData", "JsComment")),
    SnippetCase("script-line-comment-ends-at-cr",
                "<script>// note\r /*\nvar s = '@T@'; // */</script>",
                ("HtmlScriptData", "JsComment")),
    SnippetCase("event-handler-line-comment-ends-at-ls",
                "<button onclick=\"// x&#x2028; /*&#10;go('@T@') // */\">",
                ("HtmlAttrDq", "JsComment")),
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
    SnippetCase("style-element-selector", "<style>@T@ { color: red }</style>",
                ("HtmlStyleData", "Unknown")),
    SnippetCase("style-attr-value", '<li style="background-color: #@T@">',
                ("HtmlAttrDq", "CssDeclValue")),
    SnippetCase("style-attr-url", '<div style="background: url(@T@)">',
                ("HtmlAttrDq", "Uri")),
    SnippetCase("style-attr-url-quoted",
                "<div style='background: url(\"@T@\")'>", ("HtmlAttrSq", "Uri")),
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
    SnippetCase("button-formaction", '<button formaction="@T@">',
                ("HtmlAttrDq", "Uri")),
    # A poster is fetched as an image and a cite is never fetched, so no
    # browser runs a javascript: URL from either: both values are plain.
    SnippetCase("video-poster", '<video poster="@T@">', ("HtmlAttrDq",)),
    SnippetCase("blockquote-cite", '<blockquote cite="@T@">',
                ("HtmlAttrDq",)),
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
    # An attribute value is entity-decoded before its scanner reads it.
    SnippetCase("javascript-uri-quote-references",
                '<a href="javascript:alert(&#x27;@T@&#x27;)">',
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

    # The gap ledger (ROADMAP item 11): what a browser does where the
    # model is known to differ.  A row pins a context, not an exit code:
    # the verdict follows from the context map, which item 4 may change.
    # For that reason escapejs in an onclick value is left out (its right
    # answer is a map decision), and so is "&am@T@" (its right verdict is
    # not settled).
    #
    # A string handed to a DOM sink is markup, code or a URL again.  HTML:
    # the innerHTML setter runs "the fragment parsing algorithm" on it, and
    # document.write() inserts it "into the input stream"; a string handler
    # of setTimeout becomes "a classic script", as eval's argument is
    # parsed as a Script (ECMAScript PerformEval); the href setter of
    # Location navigates to it as a URL.
    SnippetCase("dom-innerhtml", "<script>el.innerHTML = '@T@';</script>",
                ("HtmlScriptData", "JsStringSq", "HtmlText"), closes="item 8"),
    SnippetCase("dom-document-write", '<script>document.write("@T@")</script>',
                ("HtmlScriptData", "JsStringDq", "HtmlText"), closes="item 8"),
    SnippetCase("dom-eval", "<script>eval('@T@')</script>",
                ("HtmlScriptData", "JsStringSq", "JsCode"), closes="item 8"),
    SnippetCase("dom-settimeout", "<script>setTimeout('@T@', 1)</script>",
                ("HtmlScriptData", "JsStringSq", "JsCode"), closes="item 8"),
    SnippetCase("dom-location-href", "<script>location.href = '@T@'</script>",
                ("HtmlScriptData", "JsStringSq", "Uri"), closes="item 8"),
    # HTML tokenization: the start tags of textarea and title switch to
    # the RCDATA state, and those of xmp, iframe, noembed, noframes and
    # noscript (scripting enabled) to the RAWTEXT state, where "<" starts
    # only "an appropriate end tag".  So "</E>" inside the attribute ends
    # the element, and the script after it runs.  The benchmark's
    # gap-textarea slot has the same cause.
    *(SnippetCase(f"{name}-ended-in-attr",
                  f"<{name}><p title=\"</{name}><script>var s='@T@';</script>\">",
                  ("HtmlScriptData", "JsStringSq"), closes="item 1")
      for name in ("textarea", "title", "xmp", "iframe", "noembed",
                   "noframes", "noscript")),
    # In script data "<!--" enters the script data escaped state, and
    # "<script" there the double escaped state, where "</script>" does
    # not end the element.  ECMAScript Annex B.1.1 reads the leading
    # "<!--" as a SingleLineHTMLOpenComment, so the one-line body is a
    # comment.
    SnippetCase("script-data-double-escaped",
                "<script><!-- <script> </script> var s='@T@'; --></script>",
                ("HtmlScriptData", "JsComment"), closes="item 1"),
    # ECMAScript lexical grammar: the InputElementRegExp goal holds where
    # a RegularExpressionLiteral is permitted, so after "=" the "/'/" is
    # a regular expression, not a quote (the benchmark's gap-js-regex
    # slot); and "${ Expression }" in a template literal is code.
    SnippetCase("script-after-regex-literal",
                "<script>var r=/'/; x = @T@;</script>",
                ("HtmlScriptData", "JsCode"), closes="item 2"),
    SnippetCase("script-template-substitution", "<script>`${ @T@ }`</script>",
                ("HtmlScriptData", "JsCode"), closes="item 2"),
    # Parsing tokens in foreign content: an SVG script's text is read in
    # the data state, where character references decode, so only
    # decoding spells this token.
    SnippetCase("svg-script-reference-spelled", _svg_script_reference_doc,
                ("HtmlScriptData", "JsStringSq"), closes="ROADMAP Satellites"),
    # Foreign content, which item 1's raw-text rules must leave as it is
    # read today.  An SVG title is an HTML integration point, so its
    # script is an HTML script; xmp and textarea are not breakout tags,
    # so inside <svg> they are SVG elements, and an SVG script runs and
    # an SVG a links; img breaks out of MathML into an HTML element.
    SnippetCase("svg-title-script",
                "<svg><title><script>var s='@T@';</script></title></svg>",
                ("HtmlScriptData", "JsStringSq")),
    SnippetCase("svg-xmp-script",
                "<svg><xmp><script>var s='@T@';</script></xmp></svg>",
                ("HtmlScriptData", "JsStringSq")),
    SnippetCase("svg-textarea-link",
                '<svg><textarea><a href="@T@">x</a></textarea></svg>',
                ("HtmlAttrDq", "Uri")),
    SnippetCase("math-title-img-breakout",
                "<math><title><img src=x onerror=\"f('@T@')\"></title></math>",
                ("HtmlAttrDq", "JsStringSq")),
]


def build_snippet(case: SnippetCase, seed: int = 0):
    """Materialize a snippet with a real token and matching registry."""
    registry = SinkRegistry(seed=seed)
    token = registry.register_all([frozenset({("src.value", ())})],
                                  [f"snippet:{case.name}"])[0]
    return case.build(token), registry, token
