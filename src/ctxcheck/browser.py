"""Server-side model browser: resolves the context of every annotation.

The document is scanned the way a browser would delegate it: an HTML
scanner hands script content to a JavaScript scanner, style content and
style attributes to a CSS scanner, URI-valued attributes to a URI
scanner, and the URI scanner can re-enter HTML or JavaScript through
data: and javascript: schemes.  Each scanner on the path contributes one
element to the context sequence of the tokens it classifies.

The HTML scanner is deliberately forgiving.  Regions it cannot make
sense of (tag and attribute names, declarations, unterminated
constructs) are classified as Unknown rather than aborting the scan.
JavaScript strings are terminal contexts: no attempt is made to follow
data flow inside scripts.
"""

from __future__ import annotations

import base64
import re

from .annotations import TOKEN_RE, SinkRegistry
from .contexts import BrowserContext, ContextSequence, Finding
from .decoders import css_unescape, entity_decode, percent_decode

# Attributes whose values a browser resolves as URIs.
URI_ATTRIBUTES = frozenset(
    {"href", "src", "action", "formaction", "poster", "cite", "background", "data"}
)

_WS = " \t\n\r\f"
_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")
_JS_URI_RE = re.compile(r"\s*javascript:(.*)\Z", re.I | re.S)
_DATA_URI_RE = re.compile(r"\s*data:([^,]*),(.*)\Z", re.I | re.S)
_EXCERPT_MARGIN = 40


class MissingToken(Exception):
    """A registered token never appeared in the analyzed document."""

    def __init__(self, token: str):
        super().__init__(f"registered token {token} not found in document")
        self.token = token


def _token_set(registry) -> frozenset:
    if registry is None:
        return frozenset()
    if isinstance(registry, SinkRegistry):
        return frozenset(registry.tokens())
    return frozenset(registry)


class ModelBrowser:
    """One analysis pass over one document.

    Collects findings for the given token set and counts scanner
    invocations, which equals the context-sequence length for a token
    reached through a chain of single-dispatch scans.
    """

    def __init__(self, tokens):
        self.tokens = _token_set(tokens)
        self.findings: list[Finding] = []
        self.scan_count = 0

    # -- shared ----------------------------------------------------------

    def _classify(self, segment: str, prefix: ContextSequence,
                  ctx: BrowserContext) -> None:
        for match in TOKEN_RE.finditer(segment):
            token = match.group(0)
            if token not in self.tokens:
                continue
            lo = max(0, match.start() - _EXCERPT_MARGIN)
            hi = min(len(segment), match.end() + _EXCERPT_MARGIN)
            self.findings.append(Finding(token, prefix + (ctx,), segment[lo:hi]))

    # -- HTML -------------------------------------------------------------

    def html_scan(self, text: str, prefix: ContextSequence = ()) -> None:
        self.scan_count += 1
        prefix = tuple(prefix)
        n = len(text)
        i = 0
        while i < n:
            lt = text.find("<", i)
            if lt == -1:
                self._classify(text[i:], prefix, BrowserContext.HtmlText)
                return
            if lt > i:
                self._classify(text[i:lt], prefix, BrowserContext.HtmlText)
            if text.startswith("<!--", lt):
                end = text.find("-->", lt + 4)
                if end == -1:
                    self._classify(text[lt + 4:], prefix, BrowserContext.HtmlComment)
                    return
                self._classify(text[lt + 4:end], prefix, BrowserContext.HtmlComment)
                i = end + 3
                continue
            if text.startswith("<!", lt) or text.startswith("<?", lt):
                # Declarations and processing instructions.
                end = text.find(">", lt)
                if end == -1:
                    self._classify(text[lt:], prefix, BrowserContext.Unknown)
                    return
                self._classify(text[lt:end], prefix, BrowserContext.Unknown)
                i = end + 1
                continue
            if text.startswith("</", lt):
                end = text.find(">", lt)
                if end == -1:
                    self._classify(text[lt:], prefix, BrowserContext.Unknown)
                    return
                self._classify(text[lt + 2:end], prefix, BrowserContext.Unknown)
                i = end + 1
                continue
            name_match = _TAG_NAME_RE.match(text, lt + 1)
            if name_match is None:
                # Stray "<" is character data.
                i = lt + 1
                continue
            i = self._start_tag(text, lt, name_match, prefix)
        return

    def _start_tag(self, text: str, lt: int, name_match: re.Match,
                   prefix: ContextSequence) -> int:
        n = len(text)
        tag = name_match.group(0).lower()
        self._classify(name_match.group(0), prefix, BrowserContext.Unknown)
        j = name_match.end()
        attrs: list[tuple[str, str | None, str | None]] = []
        closed = False
        unterminated_from = None
        while j < n:
            while j < n and (text[j] in _WS or text[j] == "/"):
                j += 1
            if j >= n:
                break
            if text[j] == ">":
                closed = True
                j += 1
                break
            name_start = j
            while j < n and text[j] not in " \t\n\r\f=/>":
                j += 1
            if j == name_start:
                j += 1
                continue
            name = text[name_start:j]
            while j < n and text[j] in _WS:
                j += 1
            value: str | None = None
            quote: str | None = None
            if j < n and text[j] == "=":
                j += 1
                while j < n and text[j] in _WS:
                    j += 1
                if j < n and text[j] in "\"'":
                    q = text[j]
                    vstart = j + 1
                    vend = text.find(q, vstart)
                    if vend == -1:
                        # Unterminated value swallows the rest; cover the
                        # whole attribute so its name is not lost either.
                        unterminated_from = name_start
                        j = n
                        break
                    value, quote = text[vstart:vend], q
                    j = vend + 1
                else:
                    vstart = j
                    while j < n and text[j] not in " \t\n\r\f>":
                        j += 1
                    value, quote = text[vstart:j], None
            attrs.append((name, value, quote))
        for name, value, quote in attrs:
            self._attribute(tag, name, value, quote, prefix)
        if unterminated_from is not None:
            self._classify(text[unterminated_from:], prefix, BrowserContext.Unknown)
            return n
        if not closed:
            return n
        if tag == "script":
            return self._raw_content(text, j, prefix, script=True)
        if tag == "style":
            return self._raw_content(text, j, prefix, script=False)
        return j

    def _attribute(self, tag: str, name: str, value: str | None,
                   quote: str | None, prefix: ContextSequence) -> None:
        self._classify(name, prefix, BrowserContext.Unknown)
        if value is None:
            return
        if quote == '"':
            ctx = BrowserContext.HtmlAttrDq
        elif quote == "'":
            ctx = BrowserContext.HtmlAttrSq
        else:
            ctx = BrowserContext.HtmlAttrUnq
        decoded = entity_decode(value)
        lname = name.lower()
        if lname.startswith("on"):
            self.js_scan(decoded, prefix + (ctx,))
        elif lname == "style":
            self.css_scan(decoded, prefix + (ctx,))
        elif lname in URI_ATTRIBUTES:
            script_src = tag == "script" and lname == "src"
            self.uri_scan(decoded, prefix + (ctx,), script_src=script_src)
        else:
            self._classify(decoded, prefix, ctx)

    def _raw_content(self, text: str, start: int, prefix: ContextSequence,
                     script: bool) -> int:
        # Raw text elements end at "</name" followed by whitespace, "/"
        # or ">"; their content is not entity-decoded.
        close_re = re.compile(r"</script" if script else r"</style", re.I)
        end = len(text)
        for candidate in close_re.finditer(text, start):
            after = candidate.end()
            if after >= len(text) or text[after] in _WS + "/>":
                end = candidate.start()
                break
        content = text[start:end]
        if script:
            self.js_scan(content, prefix + (BrowserContext.HtmlScriptData,))
        else:
            self.css_scan(content, prefix + (BrowserContext.HtmlStyleData,))
        return end

    # -- JavaScript --------------------------------------------------------

    def js_scan(self, text: str, prefix: ContextSequence = ()) -> None:
        """Lex far enough to tell code, strings and comments apart.

        Strings are terminal contexts; template literals count as
        double-quoted strings.
        """
        self.scan_count += 1
        prefix = tuple(prefix)
        n = len(text)
        i = 0
        seg = 0

        def flush_code(upto: int) -> None:
            if upto > seg:
                self._classify(text[seg:upto], prefix, BrowserContext.JsCode)

        while i < n:
            ch = text[i]
            if ch in "\"'`":
                flush_code(i)
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == ch or (ch != "`" and text[j] == "\n"):
                        break
                    j += 1
                ctx = (BrowserContext.JsStringSq if ch == "'"
                       else BrowserContext.JsStringDq)
                self._classify(text[i + 1:min(j, n)], prefix, ctx)
                i = j + 1 if j < n else n
                seg = i
                continue
            if ch == "/" and text.startswith("//", i):
                flush_code(i)
                end = text.find("\n", i + 2)
                end = n if end == -1 else end
                self._classify(text[i + 2:end], prefix, BrowserContext.JsComment)
                i = seg = end
                continue
            if ch == "/" and text.startswith("/*", i):
                flush_code(i)
                close = text.find("*/", i + 2)
                end = n if close == -1 else close
                self._classify(text[i + 2:end], prefix, BrowserContext.JsComment)
                i = seg = n if close == -1 else close + 2
                continue
            i += 1
        flush_code(n)

    # -- CSS ----------------------------------------------------------------

    def css_scan(self, text: str, prefix: ContextSequence = ()) -> None:
        """Scan a declaration list or stylesheet fragment.

        Tokens in declaration values, strings and comments get their own
        contexts; selector and property-name positions are Unknown.
        url(...) payloads are unescaped and handed to the URI scanner.
        """
        self.scan_count += 1
        prefix = tuple(prefix)
        n = len(text)
        i = 0
        seg = 0
        in_value = False

        def flush(upto: int) -> None:
            if upto > seg:
                ctx = (BrowserContext.CssDeclValue if in_value
                       else BrowserContext.Unknown)
                self._classify(text[seg:upto], prefix, ctx)

        while i < n:
            ch = text[i]
            if text.startswith("/*", i):
                flush(i)
                close = text.find("*/", i + 2)
                end = n if close == -1 else close
                self._classify(text[i + 2:end], prefix, BrowserContext.CssComment)
                i = seg = n if close == -1 else close + 2
                continue
            if ch in "\"'":
                flush(i)
                j = i + 1
                while j < n:
                    if text[j] == "\\":
                        j += 2
                        continue
                    if text[j] == ch:
                        break
                    j += 1
                self._classify(text[i + 1:min(j, n)], prefix,
                               BrowserContext.CssString)
                i = j + 1 if j < n else n
                seg = i
                continue
            if text[i:i + 4].lower() == "url(":
                flush(i)
                i = self._css_url(text, i + 4, prefix)
                seg = i
                continue
            if ch == ":" and not in_value:
                flush(i)
                in_value = True
                i += 1
                seg = i
                continue
            if ch in ";{}":
                flush(i)
                in_value = False
                i += 1
                seg = i
                continue
            i += 1
        flush(n)

    def _css_url(self, text: str, start: int, prefix: ContextSequence) -> int:
        n = len(text)
        j = start
        while j < n and text[j] in _WS:
            j += 1
        if j < n and text[j] in "\"'":
            q = text[j]
            k = j + 1
            while k < n:
                if text[k] == "\\":
                    k += 2
                    continue
                if text[k] == q:
                    break
                k += 1
            payload = text[j + 1:min(k, n)]
            close = text.find(")", min(k, n))
        else:
            close = text.find(")", j)
            payload = text[j:n if close == -1 else close].strip()
        self.uri_scan(css_unescape(payload), prefix)
        return n if close == -1 else close + 1

    # -- URI ------------------------------------------------------------------

    def uri_scan(self, text: str, prefix: ContextSequence = (),
                 script_src: bool = False) -> None:
        """Match a URI against the schemes worth recursing into.

        javascript: bodies are percent-decoded and lexed as JavaScript;
        data:text/html payloads are decoded and parsed as HTML.  Script
        source URIs are terminal and keep their own context.  Everything
        else is a plain URI.
        """
        self.scan_count += 1
        prefix = tuple(prefix)
        if script_src:
            self._classify(text, prefix, BrowserContext.UriScriptSrc)
            return
        match = _JS_URI_RE.match(text)
        if match:
            body = percent_decode(match.group(1))
            self.js_scan(body, prefix + (BrowserContext.Uri,))
            return
        match = _DATA_URI_RE.match(text)
        if match:
            header, payload = match.group(1), match.group(2)
            parts = [p.strip().lower() for p in header.split(";")]
            if parts[0] == "text/html":
                if "base64" in parts[1:]:
                    try:
                        decoded = base64.b64decode(payload, validate=False)
                        document = decoded.decode("utf-8", "replace")
                    except ValueError:
                        self._classify(text, prefix, BrowserContext.Uri)
                        return
                    # Base64 decoding is destructive: a token sitting
                    # literally in the payload would vanish with it, so
                    # the raw payload keeps its URI classification.
                    self._classify(payload, prefix, BrowserContext.Uri)
                else:
                    document = percent_decode(payload)
                self._classify(text[:match.start(2)], prefix, BrowserContext.Uri)
                self.html_scan(document, prefix + (BrowserContext.Uri,))
                return
        self._classify(text, prefix, BrowserContext.Uri)


def analyze(document: str, registry) -> list[Finding]:
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
    return list(browser.findings)


def html_scan(text: str, prefix: ContextSequence = (), registry=None) -> list[Finding]:
    browser = ModelBrowser(registry)
    browser.html_scan(text, prefix)
    return browser.findings


def js_scan(text: str, prefix: ContextSequence = (), registry=None) -> list[Finding]:
    browser = ModelBrowser(registry)
    browser.js_scan(text, prefix)
    return browser.findings


def css_scan(text: str, prefix: ContextSequence = (), registry=None) -> list[Finding]:
    browser = ModelBrowser(registry)
    browser.css_scan(text, prefix)
    return browser.findings


def uri_scan(text: str, prefix: ContextSequence = (), registry=None,
             script_src: bool = False) -> list[Finding]:
    browser = ModelBrowser(registry)
    browser.uri_scan(text, prefix, script_src=script_src)
    return browser.findings
