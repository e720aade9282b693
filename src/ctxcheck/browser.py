"""Server-side model browser: resolves the context of every annotation.

The document is scanned the way a browser would delegate it: an HTML
scanner hands script content to a JavaScript scanner, style content and
style attributes to a CSS scanner, URI-valued attributes to a URI
scanner, and the URI scanner can re-enter HTML or JavaScript through
data: and javascript: schemes.  Each scanner on the path contributes one
element to the context sequence of the tokens it classifies.

Each language is a lexer table: one alternation regex whose named groups
are the constructs that leave the language's default context, and the
map ``_CONTEXT`` from group name to the context of the group's text.
``ModelBrowser._lex`` is the one loop that runs every table over a text.
A group without a context names, in ``_READER``, the method that reads
on from it and returns where lexing resumes: ``_start_tag`` reads a
start tag with attributes or raw text, and the raw text after it, and
``_css_url`` a ``url()``.  As in Go's html/template, two tables say what
markup hands on: ``_ELEMENTS`` gives each raw-text element the scanner
method of its content and the context it adds, and ``_ATTRIBUTES`` each
attribute kind (plain, event handler, style, URI, nested document; see
``_ATTRIBUTE_KIND``) the scanner method of its value and the characters
that end a run in its inertness rule.  The HTML table and stride and
``_start_tag``'s dispatch are built from them.  CSS's declaration state
is lexer data as well: its ``css_punct`` group matches ":", ";", "{"
and "}" in ``_CSS``, the table outside a declaration value, and only
";{}" in ``_CSS_IN_VALUE``, so a ":" in a value stays value text, and
``_NEXT`` gives the table, default context and stride that follow
each.  After the last token prefix that state decides nothing, so CSS
is lexed on with the constructs alone (``_CSS_TAIL``).  Every ``url()``
payload the table reads goes to the URI scanner, which reads a scheme
as the URL parser does, after removing tabs and newlines and skipping
leading controls and spaces.

Every alternative of the HTML table opens with the same literal "<",
outside its group, so a search skips to the next "<" by the compiled
pattern's one-character prefix: sre gives no prefix to an alternation
whose branches open with a group or a class, and tries every branch at
every character instead.  The loop carries the position of the next
token prefix, so a token-free range costs an integer comparison, not a
classification, and a classification walks the range from one prefix
to the next with ``str.find``.  Each script and style body goes to
its scanner as its own string, with the HTML level's next prefix
position made relative to it, so each raw-text character is searched
for the prefix once; ``_lex`` searches the body only when that
position lies before it.  A script without a prefix is not lexed at
all, and a style without one is read by the constructs only.  Tag
names, attribute names, plain attribute values and plain URIs are
classified only when they hold the prefix.

Each step first consumes, with one match, a stride, all it can of the
text up to the next token prefix (or up to the end, once none is left)
that hands nothing on: in a script, the code and closed strings and
comments; in a style, the plain text and closed comments, strings and
``url()`` whose payload holds no "\\" or ":"; and in markup, the text,
closed comments, declarations and end tags, stray "<" and the start tags
that open no raw text and whose attribute values hand nothing on
(``_inert_value``).  A URI value hands nothing on when it holds no ":",
or when it starts with a literal "javascript:" and the rest holds no
"%", tab or newline: the URL parser removes tabs and newlines, and
percent-decoding is the only decoding the body gets before it is lexed
as JavaScript, so such a body spells no token that the raw value does
not, and links such as "javascript:void(0)" are strode over.  A stride
ends where a table match ends, never gives text back and never changes
the declaration state: outside a value, a CSS stride reads whole values,
from ":" to the ";", "{" or "}" that ends them, and inside one, it stops
before them.  So whether a construct hands text on is decided once, by
the stride: the table and its readers hand on whatever they read, except
a token-free attribute value that holds no "&#" and whose kind watches
no characters.  No stride is tried over a range of at most
``_SHORT_RANGE`` characters, which lexes faster construct by construct.
JavaScript strings and comments are terminal, so lexing a script stops
after its last token prefix.  HTML, CSS and URI text is walked to its
end, because entity, percent, CSS-escape and base64 decoding can reveal
a token that the raw text does not spell.  Bodies of strings, comments
and attribute values are possessive repeats: with no backtracking state,
a long one costs no more memory than its text.

The HTML scanner is deliberately forgiving.  Regions it cannot make
sense of (tag and attribute names, declarations, unterminated
constructs) are classified as Unknown rather than aborting the scan.  No
data flow is followed inside scripts.
"""

from __future__ import annotations

import base64
import html.entities
import re

from .annotations import TOKEN_LENGTH, TOKEN_PREFIX, SinkRegistry
from .contexts import BrowserContext, ContextSequence, Finding
from .decoders import css_unescape, entity_decode, percent_decode

# Every cycle through a nested document (html -> attribute -> uri ->
# html, through data:text/html) adds at least two contexts and several
# stack frames, so a deep enough chain of data: URIs would exhaust the
# interpreter's recursion limit.  html_scan therefore classifies a
# document whose context prefix is already this long as Unknown instead
# of parsing it: the tokens in it are still reported, and no sanitizer
# handles Unknown.  Real pages nest a few levels.
MAX_NESTING = 64

_WS = r" \t\n\r\f"
# The schemes worth recursing into, read from a URL without its ASCII
# tabs and newlines, as the URL parser reads it: C0 controls and spaces
# are skipped from its start, and no other whitespace.  A javascript:
# URL's body is the "js" group; a data: URL is HTML when its MIME type,
# before any ";" and parameters ("params"), is text/html between ASCII
# whitespace, as Fetch trims it, and its body is "html".
_SCHEME = re.compile(
    rf"[\x00-\x20]*+(?:javascript:(?P<js>.*)|data:[{_WS}]*text/html[{_WS}]*"
    r"(?P<params>;[^,]*)?,(?P<html>.*))\Z", re.I | re.S)
# As Fetch's data: URL processor reads it, a body is base64 only when
# the MIME type's parameters end with ";", spaces and "base64" in any
# ASCII case, before trailing ASCII whitespace.
_BASE64_END = re.compile(r";[ ]*base64[ \t\n\r\f]*\Z", re.I | re.A)
_EXCERPT_MARGIN = 40
_PREFIX_LENGTH = len(TOKEN_PREFIX)


def _quoted(quote: str, group: str | None, newline_ends: bool) -> str:
    """Pattern of a quoted string with backslash escapes.

    The text between the quotes is captured in ``group``.  A backslash
    escapes any character, newlines included.  The string ends at the
    closing quote, at an unescaped newline when ``newline_ends``, or at
    the end of the text; the quote or newline is consumed but is not
    part of the body.  Without a ``group``, as for every construct
    builder here, the pattern captures nothing and matches only a
    string that its quote or newline closes.
    """
    newline = r"\n" if newline_ends else ""
    # Runs end only at a backslash, which starts a repeat, or where the
    # body ends, so the body never gives text back.
    plain = rf"[^{quote}\\{newline}]*+"
    close = rf"{quote}|\n" if newline_ends else quote
    body = rf"{plain}(?:\\[\s\S]{plain})*+"
    if group is None:
        return rf"{quote}{body}(?:{close})"
    return rf"{quote}(?P<{group}>{body}\\?)(?:{close}|\Z)"


def _block_comment(group: str | None) -> str:
    """A /* */ comment, to the end of the text when unclosed; its body
    stops only before "*/" or at the end, so it never gives text back."""
    body = r"[^*]*+(?:\*(?!/)[^*]*+)*+"
    if group is None:
        return rf"/\*{body}\*/"
    return rf"/\*(?P<{group}>{body})(?:\*/)?"


def _line_comment(group: str | None) -> str:
    """A // comment up to, not including, a LineTerminator (LF, CR, U+2028,
    U+2029).  A stride reads printable ASCII first: sre does so faster."""
    if group is None:
        return r"//[ -~]*+[^\n\r\u2028\u2029]*(?=[\n\r\u2028\u2029])"
    return rf"//(?P<{group}>[^\n\r\u2028\u2029]*)"


def _js_constructs(closed: bool) -> list[str]:
    """JavaScript's strings and comments; when ``closed``, only those
    that their own delimiter ends, and without groups."""
    def group(name: str) -> str | None:
        return None if closed else name
    return [
        _quoted("'", group("js_sq"), newline_ends=True),
        _quoted('"', group("js_dq"), newline_ends=True),
        _quoted("`", group("js_template"), newline_ends=False),
        _line_comment(group("js_line_comment")),
        _block_comment(group("js_block_comment")),
    ]


# Raw-text elements: the scanner method of their content, and its context.
_ELEMENTS = {"script": ("js_scan", BrowserContext.HtmlScriptData),
             "style": ("css_scan", BrowserContext.HtmlStyleData)}
# Each attribute kind: the scanner method of its decoded value (None:
# classify it) and the characters besides "&" ending a run in _inert_value.
_ATTRIBUTES = {"plain": (None, ""), "event": ("js_scan", ""),
               "css": ("css_scan", "uU"), "uri": ("uri_scan", ":"),
               "doc": ("html_scan", r":\\")}
# The kind of each lower-cased attribute name that has one; any other
# name is an event handler if it starts with "on", and plain if not.
_ATTRIBUTE_KIND = {"style": "css", "srcdoc": "doc", **dict.fromkeys((
    "href src action formaction background data xlink:href"
    ).split(), "uri")}

# A named reference written without ";" right before a token prefix,
# if its name may go without one.  The prefix's letter keeps it as
# written; the value that the token stands for may start with any
# character.
_LEGACY_BEFORE_TOKEN = re.compile(rf"&([a-zA-Z0-9]{{2,6}}?)(?={TOKEN_PREFIX})")


def _close_reference(match: re.Match) -> str:
    """The reference, with a ";" if its name may go without one."""
    return match[0] + ";" if match[1] in html.entities.html5 else match[0]


# A tag name stops only at a non-name character, never giving text back.
_TAG_NAME = "[a-zA-Z][a-zA-Z0-9:_-]*+"
_RAW_TEXT = f"(?i:{'|'.join(_ELEMENTS)})"
# As the HTML tokenizer reads comments, "<!-->" and "<!--->" are empty
# ones, and any other runs up to the first "-->" or "--!>": so does its
# body, which never gives text back.
_COMMENT_BODY = r"[^-]*+(?:-(?!-!?>)[^-]*+)*+"
# Every alternative opens with the same literal "<", outside its group,
# so the regex compiler gives the table a one-character search prefix:
# sre gives none to an alternation whose branches open with a group or a
# class, and search then tries every branch at every character (about
# 53 ns per skipped character, against 0.4 with the prefix, on CPython
# 3.11.7 on a 2-vCPU VM).  The groups in _FROM_LT therefore capture
# after the "<" they are classified from.
_HTML = re.compile("<(?:" + "|".join([
    rf"!--(?P<html_comment>(?!-?>){_COMMENT_BODY}|)(?:--!?>|-?>)?",
    r"(?P<declaration>[!?][^>]*)>?",
    r"/(?P<end_tag>[^>]*)>",
    r"(?P<unclosed_end_tag>/[\s\S]*)",
    rf"(?P<start_tag>{_TAG_NAME})",
    # A "<" that starts no construct is character data, so its empty
    # group has nothing to classify.
    r"(?P<stray_lt>)",
]) + ")")
_FROM_LT = frozenset({"declaration", "unclosed_end_tag"})

# One attribute, or the ">" that closes the tag, after skipping
# whitespace, "/" and stray "=".  An unquoted value may be empty.
_ATTR_RE = re.compile(rf"""[{_WS}/=]*(?:
    (?P<tag_close>>)
  | (?P<name>[^{_WS}/=>]+)[{_WS}]*
    (?:=[{_WS}]*(?:"(?P<attr_dq>[^"]*)"|'(?P<attr_sq>[^']*)'
                 |(?P<unclosed_value>["'])|(?P<attr_unq>[^{_WS}>]*)))?
)?""", re.X)

# Raw text elements end at "</name" followed by whitespace, "/" or ">",
# the name in ASCII case only, as the HTML tokenizer reads it: Unicode
# folding would end a script at "</ſcript".  Only "i", "k" and "s" fold
# to non-ASCII letters (U+0130, U+0131, U+212A, U+017F), so the other
# case-insensitive patterns can only make the model stricter: "url" and
# "data" hold none; _RAW_TEXT only sends more tags to _start_tag, which
# reads ASCII names; a folded attribute name gets its kind's rule (see
# _INERT_TAG); a folded "javascript:" only adds script contexts to Uri.
_RAW_TEXT_END = {tag: re.compile(rf"</{tag}(?=[{_WS}/>]|\Z)", re.I | re.A)
                 for tag in _ELEMENTS}

_JS = re.compile("|".join(_js_constructs(closed=False)))
# Code and closed constructs, ending after a construct, where lexing
# with _JS also stops.  _lex matches it only up to the next token
# prefix, so it never enters the construct holding the prefix.  Code
# stops only where a construct or the end is next, and nothing follows
# the outer repeat, so neither gives text back; nor does any other
# stride.
_JS_CODE = r"[^'\"`/]*+(?:/(?![/*])[^'\"`/]*+)*+"
_JS_STRIDE = re.compile(
    rf"(?:{_JS_CODE}(?:{'|'.join(_js_constructs(closed=True))}))*+")
# A stride costs a call even when it consumes nothing, so none is tried
# over a range of at most this many characters: short values and
# scripts above all lex faster construct by construct.
_SHORT_RANGE = 64


def _css_url(closed: bool, exclude: str = "") -> str:
    """url( and its payload, quoted or bare up to ")".  Whatever follows
    a closing quote up to ")" is not part of the URL; css_scan
    classifies it Unknown.  When ``closed``, only a url() that its ")"
    closes and whose payload holds no "\\" or ":", which css_scan hands
    to no scanner, and without groups; no character of ``exclude``
    occurs from "url(" to ")", a quote in it drops the payload that it
    would delimit, and a space in it drops the whitespace after "url(".
    """
    ws = rf"[{_WS}]*"
    if closed:
        no = r"\\:" + exclude
        quoted = [rf"{q}[^{q}{no}]*{q}[^){exclude}]*"
                  for q in "\"'" if q not in exclude]
        bare, close = rf"(?![{_WS}\"'])[^){no}]*", r"\)"
        ws = "" if " " in exclude else ws
    else:
        quoted = [_quoted(q, group, newline_ends=False) + "[^)]*"
                  for q, group in (('"', "url_dq"), ("'", "url_sq"))]
        bare, close = r"(?P<url_bare>[^)]*)", r"\)?"
    return rf"(?i:url)\({ws}(?:{'|'.join([*quoted, bare])}){close}"


def _css_constructs(closed: bool) -> list[str]:
    """The CSS constructs that own a context or hand text on; when
    ``closed``, only those that their own delimiter ends and that hand
    nothing on, and without groups."""
    def group(name: str) -> str | None:
        return None if closed else name
    return [
        _block_comment(group("css_comment")),
        _quoted('"', group("css_dq"), newline_ends=False),
        _quoted("'", group("css_sq"), newline_ends=False),
        _css_url(closed),
    ]


def _css_text(stop: str) -> str:
    """Plain CSS text, where no construct starts, up to a character of
    ``stop``; it never gives text back."""
    other = rf"[^/\"'uU{stop}]*+"
    return rf"{other}(?:(?:/(?!\*)|(?!(?i:url)\()[uU]){other})*+"


def _css_stride(stop: str) -> str:
    """Plain text up to a character of ``stop``, and closed, inert
    constructs, ending after a construct, as _JS_STRIDE does."""
    return rf"(?:{_css_text(stop)}(?:{_CSS_CLOSED}))*+"


def _css_table(punct: str) -> re.Pattern:
    """CSS's lexer table, whose ``css_punct`` group is ``punct``."""
    return re.compile("|".join([*_css_constructs(closed=False),
                                rf"(?P<css_punct>[{punct}])"]))


_CSS_CLOSED = "|".join(_css_constructs(closed=True))
# Outside a declaration value (in selectors and property names) ":"
# starts one; ";", "{" and "}" end it, and inside one ":" is value text.
_CSS = _css_table(":;{}")
_CSS_IN_VALUE = _css_table(";{}")
# Each state has a stride that ends where a table match ends, in the
# state it started in: inside a value, it reads text and closed
# constructs; outside one, text, ";{}", closed constructs and whole
# values, from ":" to the ";{}" that ends them.
_CSS_VALUE_STRIDE = re.compile(_css_stride(";{}"))
_CSS_STRIDE = re.compile(
    rf"(?:{_css_text(':;{}')}(?:[;{{}}]|{_CSS_CLOSED}"
    rf"|:{_css_stride(';{}')}{_css_text(';{}')}[;{{}}]))*+")
# The table, default context and stride that follow each punctuation
# character.
_NEXT = {":": (_CSS_IN_VALUE, BrowserContext.CssDeclValue, _CSS_VALUE_STRIDE),
         **dict.fromkeys(";{}", (_CSS, BrowserContext.Unknown, _CSS_STRIDE))}
# Once no token prefix is left, nothing is classified and the url()
# hand-off does not depend on the declaration state, so lexing goes on
# with the constructs alone: the table and stride _lex switches to.
_CSS_TAIL = (re.compile("|".join(_css_constructs(closed=False))),
             re.compile(_css_stride("")))


def _inert_value(kind: str, end: str) -> str:
    """An attribute value of ``kind`` (a key of ``_ATTRIBUTES``) that
    hands nothing on; ``end`` holds the characters that end the value.
    A plain value and an event handler's need only the entity rule.

    Entity decoding may only turn ``&amp;``, ``&lt;``, ``&gt;`` and
    ``&quot;`` into "&<>\"", and it leaves an "&" that neither "#" nor a
    letter follows as it is, so the decoded value spells no token the
    raw one does not.  A URI without ":" has no javascript: or data:
    scheme.  One that starts with a literal "javascript:", in any case,
    uri_scan reads as a javascript: URL whose body is the rest with tabs
    and newlines removed, then percent-decoded: neither step changes a
    rest without "%", tab or newline, so the body spells no token the
    raw value does not.  A data: URL, or a scheme spelled with a
    reference, a tab or a leading space, keeps the ":" rule.  In a
    style, each url( is closed by ")", with no "&" or "(" in between (so
    no other url( starts inside it), and its payload, bare or quoted,
    holds no "\\" or ":": css_scan reads each the same way in the raw
    and the decoded value, and none can reveal a token, whether it is
    read as a url() or lies in a CSS string or comment.  A nested
    document (``srcdoc``) decodes its entities once more, so it holds no
    "&" at all; without ":" or "\\" it has no URL scheme and no CSS
    escape either, so nothing in it can decode to a token.
    """
    # A run of ordinary characters is one repeat, far faster to walk than
    # a repeated alternation.  Each special starts where a run ends and
    # matches one way only, so the value never gives text back.
    run = rf"[^&{_ATTRIBUTES[kind][1]}{end}]*+"
    if kind == "doc":
        return run
    special = [r"&(?:amp|lt|gt|quot);", r"&(?![#a-zA-Z])"]
    if kind == "css":
        special += [r"(?!(?i:url)\()[uU]", _css_url(True, "&(" + end)]
    special = "|".join(special)
    value = rf"{run}(?:(?:{special}){run})*+"
    if kind == "uri":
        body = rf"[^&%\t\n\r{end}]*+"
        value = rf"(?:(?i:javascript):{body}(?:(?:{special}){body})*+|{value})"
    return value


def _inert_attribute(kind: str) -> str:
    """An attribute of ``kind`` ("plain": any name not in _ATTRIBUTE_KIND)
    read as _ATTR_RE reads it, with no value or one that hands nothing
    on; an unquoted value neither starts at a quote nor ends early."""
    names = "|".join(n for n, of in _ATTRIBUTE_KIND.items() if kind in ("plain", of))
    name = rf"(?i:{names})(?=[{_WS}/=>])"
    if kind == "plain":
        # A name whose first letter starts no name in the table is tried
        # against none of them; the class folds as the names do.
        first = "".join(sorted({n[0] for n in _ATTRIBUTE_KIND}))
        name = rf"(?!(?=(?i:[{first}])){name})[^{_WS}/=>]++"
    values = [rf'"{_inert_value(kind, chr(34))}"',
              rf"'{_inert_value(kind, chr(39))}'",
              rf"(?![\"']){_inert_value(kind, _WS + '>')}(?=[{_WS}>])"]
    return rf"{name}[{_WS}]*+(?:=[{_WS}]*+(?:{'|'.join(values)})|(?!=))"


# A start tag that opens no raw text and whose attributes hand nothing
# on, after its "<".  A name that str.lower() puts in _ATTRIBUTE_KIND
# matches its kind in any case, as do a few more (U+017F for "s"), which
# only get a stricter rule; the plain rule is also an event handler's.
# At the ">" that ends the attributes every kind fails, so none is tried.
_INERT_TAG = (
    rf"(?!{_RAW_TEXT}(?![a-zA-Z0-9:_-])){_TAG_NAME}(?:[{_WS}/=]*+"
    rf"(?=[^{_WS}/=>])(?:"
    + "|".join(map(_inert_attribute,
                   ["plain", *dict.fromkeys(_ATTRIBUTE_KIND.values())]))
    + rf"))*+[{_WS}/=]*+>")
# Text and closed constructs that hand nothing on, ending after a
# construct, where an _HTML match ends: comments, declarations (never
# "<!--"), end tags, inert start tags, and a "<" that the next
# character makes a stray one.
_HTML_STRIDE = re.compile(
    rf"(?:[^<]*<(?:{_INERT_TAG}|/[^>]*>|!--(?:-?>|{_COMMENT_BODY}--!?>)"
    r"|(?!!--)[!?][^>]*>|(?=[^!?/a-zA-Z])))*+")

_CONTEXT = {
    "html_comment": BrowserContext.HtmlComment,
    "declaration": BrowserContext.Unknown,
    "end_tag": BrowserContext.Unknown,
    "unclosed_end_tag": BrowserContext.Unknown,
    "stray_lt": BrowserContext.HtmlText,
    "attr_dq": BrowserContext.HtmlAttrDq,
    "attr_sq": BrowserContext.HtmlAttrSq,
    "attr_unq": BrowserContext.HtmlAttrUnq,
    "js_sq": BrowserContext.JsStringSq,
    "js_dq": BrowserContext.JsStringDq,
    # Template literals count as double-quoted strings.
    "js_template": BrowserContext.JsStringDq,
    "js_line_comment": BrowserContext.JsComment,
    "js_block_comment": BrowserContext.JsComment,
    "css_comment": BrowserContext.CssComment,
    "css_dq": BrowserContext.CssString,
    "css_sq": BrowserContext.CssString,
}


class MissingToken(Exception):
    """A registered token never appeared in the analyzed document."""

    def __init__(self, token: str):
        super().__init__(f"registered token {token} not found in document")
        self.token = token


class ModelBrowser:
    """One analysis pass over one document: collects findings for the
    registry's tokens."""

    def __init__(self, registry: SinkRegistry):
        self.tokens = frozenset(registry.tokens())
        self.findings: list[Finding] = []

    # -- shared ----------------------------------------------------------

    def _classify(self, text: str, lo: int, hi: int,
                  prefix: ContextSequence, ctx: BrowserContext) -> None:
        """Record the registered tokens in ``text[lo:hi]`` as ``ctx``.

        Each excerpt is clipped to the range.  A ``str.find`` walk over
        the token prefix finds what ``TOKEN_RE.finditer`` and a test of
        membership would: every registered token is well formed, and
        the prefix can neither overlap itself nor occur inside the hex
        digits of a token, so the walk resumes after a found token, or
        after the prefix of a miss.
        """
        find, tokens = text.find, self.tokens
        last = hi - TOKEN_LENGTH
        at = find(TOKEN_PREFIX, lo, hi)
        context = ()
        while 0 <= at <= last:
            token = text[at:at + TOKEN_LENGTH]
            if token in tokens:
                context = context or prefix + (ctx,)
                start = at - _EXCERPT_MARGIN
                stop = at + TOKEN_LENGTH + _EXCERPT_MARGIN
                excerpt = text[start if start > lo else lo:
                               stop if stop < hi else hi]
                self.findings.append(
                    tuple.__new__(Finding, (token, context, excerpt)))
                at = find(TOKEN_PREFIX, at + TOKEN_LENGTH, hi)
            else:
                at = find(TOKEN_PREFIX, at + _PREFIX_LENGTH, hi)

    def _lex(self, text: str, prefix: ContextSequence, table: re.Pattern,
             default: BrowserContext, stride: re.Pattern, nxt: int,
             tail: tuple[re.Pattern, re.Pattern] | None) -> None:
        """Classify ``text`` with a lexer table, from ``table``.

        Text between matches gets ``default`` and each match's group
        text the group's context.  ``nxt`` is the first token prefix in
        the text, as a caller that has searched for it hands it on; if
        it is negative, the text is searched for one.  A prefix past the
        end, or one that straddles it, counts as none, and ``nxt`` is
        then the text's length.  It guards each range; a prefix
        that straddles a range's end costs a classification that finds
        nothing.  A group without a context is read by its reader
        (``_READER``), which is handed ``nxt``, except ``css_punct``,
        whose character picks the table, default and stride that follow
        (``_NEXT``).  Once no prefix is left, lexing stops if ``tail``
        is None and otherwise goes on to the end with the table and
        stride in ``tail``.  Each step whose ``nxt`` (or end) lies more
        than ``_SHORT_RANGE`` characters ahead first strides as far as
        it can before it with ``stride``, a pattern that ends only where
        a table match ends, in the state the step started in.
        """
        pos, end = 0, len(text)
        if nxt < 0:
            nxt = text.find(TOKEN_PREFIX)
        if not 0 <= nxt <= end - _PREFIX_LENGTH:
            nxt = end
        while True:
            if nxt == end:
                if tail is None:
                    return
                table, stride = tail
            if nxt - pos > _SHORT_RANGE:
                pos = stride.match(text, pos, nxt).end()
            if (match := table.search(text, pos)) is None:
                break
            start = match.start()
            if nxt < start:
                self._classify(text, pos, start, prefix, default)
                if (nxt := text.find(TOKEN_PREFIX, start)) < 0:
                    nxt = end
            group = match.lastgroup
            if (ctx := _CONTEXT.get(group)) is not None:
                lo, hi = match.span(group)
                if nxt < hi:
                    if group in _FROM_LT:  # from the "<" before the group
                        lo -= 1
                    self._classify(text, lo, hi, prefix, ctx)
                pos = match.end()
            elif group == "css_punct":
                table, default, stride = _NEXT[text[start]]
                pos = match.end()
            else:
                pos = _READER[group](self, text, match, prefix, nxt)
            if nxt < pos and (nxt := text.find(TOKEN_PREFIX, pos)) < 0:
                nxt = end
        if nxt < end:
            self._classify(text, pos, end, prefix, default)

    # -- HTML -------------------------------------------------------------

    def html_scan(self, text: str, prefix: ContextSequence = ()) -> None:
        """Lex a document to its end, striding over token-free markup.

        Decoding can reveal a token in markup without its prefix, so
        past the last prefix HTML is lexed on with the same table and
        stride, and each start tag with an attribute that could hand a
        value on is read by ``_start_tag``; where a stride runs, it
        consumes the others.
        """
        if len(prefix) >= MAX_NESTING:
            self._classify(text, 0, len(text), prefix, BrowserContext.Unknown)
            return
        self._lex(text, prefix, _HTML, BrowserContext.HtmlText, _HTML_STRIDE,
                  -1, (_HTML, _HTML_STRIDE))

    def _start_tag(self, text: str, tag_match: re.Match,
                   prefix: ContextSequence, nxt: int) -> int:
        """Read attributes and raw text; return where lexing resumes.

        The lower-cased attribute name picks a kind, and the tag name a
        raw-text scanner, from the tables.  A value is decoded and handed
        to its kind's scanner, or classified if it has none, unless it
        holds neither the token prefix nor "&#" and its kind watches no
        characters: no named reference decodes to a letter of the
        prefix.  ``_HTML_STRIDE`` has consumed every tag whose values all
        hand nothing on, unless a token prefix was too close to stride.
        A value with a named reference without ";" right before a token
        prefix is read twice (see ``_LEGACY_BEFORE_TOKEN``).
        Raw text is handed to its scanner as its own string, with
        ``nxt``, the HTML level's first token prefix at or after the
        tag, made relative to it: the scanner searches for a prefix
        again only if that lies before the raw text.
        """
        tag = tag_match["start_tag"]
        if TOKEN_PREFIX in tag:
            self._classify(text, *tag_match.span("start_tag"), prefix,
                           BrowserContext.Unknown)
        tag = tag.lower()
        pos = tag_match.end()
        while (attr := _ATTR_RE.match(text, pos)).lastgroup not in (
                None, "tag_close", "unclosed_value"):
            pos = attr.end()
            name = attr["name"]
            if TOKEN_PREFIX in name:
                self._classify(name, 0, len(name), prefix,
                               BrowserContext.Unknown)
            ctx = _CONTEXT.get(attr.lastgroup)
            if ctx is None:  # no value
                continue
            value = attr[attr.lastgroup]
            name = name.lower()
            kind = _ATTRIBUTE_KIND.get(
                name, "event" if name.startswith("on") else "plain")
            scanner, ends = _ATTRIBUTES[kind]
            if TOKEN_PREFIX not in value:
                # Only a numeric reference decodes to a letter of the
                # prefix.
                if not ends and "&#" not in value:
                    continue
            elif "&" in value and (closed := _LEGACY_BEFORE_TOKEN.sub(
                    _close_reference, value)) != value:
                # The page keeps a reference before a token as written,
                # the clean page only before a value that starts with
                # an ASCII alphanumeric or "=": the value is read both
                # ways, the second adding findings the first did not.
                mark = len(self.findings)
                self._value(tag, name, scanner, value, prefix, ctx)
                seen = {finding[:2] for finding in self.findings[mark:]}
                mark = len(self.findings)
                self._value(tag, name, scanner, closed, prefix, ctx)
                self.findings[mark:] = [
                    finding for finding in self.findings[mark:]
                    if finding[:2] not in seen]
                continue
            self._value(tag, name, scanner, value, prefix, ctx)
        if attr.lastgroup == "unclosed_value":
            # Unterminated value swallows the rest; cover the whole
            # attribute so its name is not lost either.
            self._classify(text, attr.start("name"), len(text), prefix,
                           BrowserContext.Unknown)
            return len(text)
        if attr.lastgroup is None:  # the tag never closes
            return len(text)
        start = attr.end()
        if tag not in _ELEMENTS:
            return start
        # Raw text content is not entity-decoded.
        close = _RAW_TEXT_END[tag].search(text, start)
        end = len(text) if close is None else close.start()
        scanner, ctx = _ELEMENTS[tag]
        getattr(self, scanner)(text[start:end], prefix + (ctx,), nxt - start)
        return end

    def _value(self, tag: str, name: str, scanner: str | None, value: str,
               prefix: ContextSequence, ctx: BrowserContext) -> None:
        """Entity-decode an attribute value and hand it to ``scanner``,
        or classify it if there is none."""
        value = entity_decode(value)
        if scanner is None:
            if TOKEN_PREFIX in value:
                self._classify(value, 0, len(value), prefix, ctx)
        elif tag == "script" and name == "src":
            # A script's source is fetched, not parsed.
            self._classify(value, 0, len(value), prefix + (ctx,),
                           BrowserContext.UriScriptSrc)
        else:
            getattr(self, scanner)(value, prefix + (ctx,))

    # -- JavaScript --------------------------------------------------------

    def js_scan(self, text: str, prefix: ContextSequence = (),
                nxt: int = -1) -> None:
        """Lex far enough to tell code, strings and comments apart.

        Takes ``nxt``, the first token prefix in ``text`` if the caller
        has searched for it (see ``_lex``).  Nothing in a script is
        decoded or handed on, so lexing stops once it has passed the
        last token prefix (a script without one is not lexed at all),
        and the code and closed constructs before each prefix are one
        stride.
        """
        # An unsearched text is most often a short token-free value,
        # which a membership test turns away faster than _lex.
        if nxt < 0 and TOKEN_PREFIX not in text:
            return
        self._lex(text, prefix, _JS, BrowserContext.JsCode,
                  _JS_STRIDE, nxt, None)

    # -- CSS ----------------------------------------------------------------

    def css_scan(self, text: str, prefix: ContextSequence = (),
                 nxt: int = -1) -> None:
        """Lex a declaration list or stylesheet fragment to its end.

        Takes ``nxt`` as ``js_scan`` does.  Tokens in declaration
        values, strings and comments get their own contexts; selector
        and property-name positions are Unknown.  Lexing starts outside
        a declaration value, with ``_CSS``, and runs to the end, since a
        url() payload may still need handing on once no prefix is left;
        from there on it reads only the constructs (``_CSS_TAIL``).
        """
        self._lex(text, prefix, _CSS, BrowserContext.Unknown,
                  _CSS_STRIDE, nxt, _CSS_TAIL)

    def _css_url(self, text: str, match: re.Match,
                 prefix: ContextSequence, nxt: int) -> int:
        """Read a url(); return where lexing resumes.

        The payload is unescaped and handed to the URI scanner: a stride
        has consumed each closed url() whose payload could reveal no
        token, unless a token prefix was too close to stride.  The text
        between a closing quote and ")" is not part of the URL and is
        Unknown, classified only if ``nxt``, the next token prefix, lies
        before its end; a bare payload runs up to ")", so its tail is
        empty.
        """
        group = match.lastgroup
        payload = match[group]
        if group == "url_bare":
            payload = payload.strip()
        self.uri_scan(css_unescape(payload), prefix)
        hi, pos = match.end(group), match.end()
        tail_end = pos - 1 if text.endswith(")", hi + 1, pos) else pos
        if nxt < tail_end and hi + 1 < tail_end:
            self._classify(text, hi + 1, tail_end, prefix,
                           BrowserContext.Unknown)
        return pos

    # -- URI ------------------------------------------------------------------

    def uri_scan(self, text: str, prefix: ContextSequence = ()) -> None:
        """Match a URI against the schemes worth recursing into.

        The scheme is read as the URL parser reads it, with tabs and
        newlines removed and leading controls and spaces skipped
        (``_SCHEME``), and the preprocessed body is handed on:
        javascript: bodies are percent-decoded and lexed as JavaScript;
        data:text/html payloads are decoded and parsed as HTML.
        Everything else is a plain URI, classified as written.
        """
        url = text.replace("\t", "").replace("\n", "").replace("\r", "")
        match = _SCHEME.match(url)
        if match is None:
            if TOKEN_PREFIX in text:
                self._classify(text, 0, len(text), prefix, BrowserContext.Uri)
            return
        if match.lastgroup == "js":
            self.js_scan(percent_decode(match["js"]),
                         prefix + (BrowserContext.Uri,))
            return
        # Fetch percent-decodes the body before base64 decoding.
        document = percent_decode(match["html"])
        if match["params"] and _BASE64_END.search(match["params"]):
            try:
                decoded = base64.b64decode(document, validate=False)
            except ValueError:
                self._classify(url, 0, len(url), prefix, BrowserContext.Uri)
                return
            # Base64 decoding is destructive: a token sitting literally
            # in the payload would vanish with it, so the payload keeps
            # its URI classification.  It is classified percent-decoded,
            # which spells every token the raw payload does, and those
            # that only percent-decoding reveals.
            self._classify(document, 0, len(document), prefix,
                           BrowserContext.Uri)
            document = decoded.decode("utf-8", "replace")
        self._classify(url, 0, match.start("html"), prefix, BrowserContext.Uri)
        self.html_scan(document, prefix + (BrowserContext.Uri,))


# The method that reads on from each group without a context, besides
# css_punct, from the loop's next token prefix position, and returns
# where lexing resumes.
_READER = {"start_tag": ModelBrowser._start_tag,
           **dict.fromkeys(("url_dq", "url_sq", "url_bare"),
                           ModelBrowser._css_url)}


def analyze(document: str, registry: SinkRegistry) -> list[Finding]:
    """Resolve a context sequence for every registered token occurrence.

    Raises MissingToken if a registered token never shows up; tokens in
    regions the scanners cannot interpret come back with an Unknown
    suffix instead of failing.
    """
    browser = ModelBrowser(registry)
    browser.html_scan(document, ())
    missing = browser.tokens - {finding.token for finding in browser.findings}
    if missing:
        raise MissingToken(min(missing))
    return browser.findings
