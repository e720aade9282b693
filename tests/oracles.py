"""Independent oracles and randomized-case generators for the tests.

The sufficiency oracle enumerates the full concatenation product of the
handled-context sets, which is exactly the definition the fast
implementation must agree with.  It stays deliberately naive.  The
parse oracle is the str.find walk that parse_template was before it
split the source with one pattern, and checks every expansion where it
occurs.  The render oracle expands every occurrence on its own, as
render did before it shared the value of a repeated expansion.  The
strip oracle is the original one-replace-per-token annotation strip,
the report oracle the dicts and lists that the CLI gave json.dumps
before it wrote the JSON report as text, and the browser oracle the
original hand-written scanners, changed only where the model was
deliberately changed: the text between a quoted url() payload's closing
quote and ")" is classified Unknown, comments end where the HTML
tokenizer ends them, and an attribute value with a named reference
without ";" right before a token is read both with that reference kept
and decoded.  The browser oracle takes none of
the model's shortcuts: it decodes and scans every attribute value and
every url() payload, where the model skips those that could reveal no
token.  So its findings must equal the model's, and the model may make
no more scanner calls than it.
"""

from __future__ import annotations

import base64
import html.entities
import itertools
import random
import re

from ctxcheck.annotations import TOKEN_RE, SinkRegistry, UnknownResidue
from ctxcheck.contexts import (BrowserContext, ContextSequence, Finding,
                               sequence_names)
from ctxcheck.decoders import css_unescape, entity_decode, percent_decode
from ctxcheck.sanitizers import html_escape
from ctxcheck.taint import TrackingMode
from ctxcheck.template import FILTERS, TemplateSyntaxError, resolve_path
from ctxcheck.verifier import BugPattern

# Alphabet for randomized maps and contexts; excludes the two contexts
# that a valid map may never handle so generated maps stay loadable.
CONTEXT_ALPHABET = (
    BrowserContext.HtmlText,
    BrowserContext.HtmlAttrDq,
    BrowserContext.HtmlScriptData,
    BrowserContext.JsStringDq,
    BrowserContext.JsCode,
    BrowserContext.CssDeclValue,
    BrowserContext.Uri,
)


def product_sufficient(chain, context, cmap) -> bool:
    """Brute-force oracle: enumerate every factorization of the chain.

    A chain covers a context sequence when some choice of one handled
    sequence per sanitizer, concatenated with the last-applied
    sanitizer's choice first, equals the sequence.
    """
    chain = tuple(chain)
    context = tuple(context)
    if not chain:
        return context == ()
    for combo in itertools.product(*(cmap[s] for s in chain)):
        concatenated = tuple(
            ctx for segment in reversed(combo) for ctx in segment)
        if concatenated == context:
            return True
    return False


def random_context_map(rng: random.Random) -> dict:
    """A map over up to four sanitizers, handled sequences of length <= 2."""
    ids = [f"s{i}" for i in range(rng.randint(1, 4))]
    cmap = {}
    for sid in ids:
        handled = set()
        for _ in range(rng.randint(0, 4)):
            length = rng.randint(0, 2)
            handled.add(tuple(rng.choice(CONTEXT_ALPHABET) for _ in range(length)))
        cmap[sid] = frozenset(handled)
    return cmap


def random_case(rng: random.Random, cmap: dict):
    """A (chain, context) pair; half the time the context is built from a
    valid factorization so both outcomes stay well represented."""
    ids = list(cmap)
    chain = tuple(rng.choice(ids) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.5:
        context = tuple(
            rng.choice(CONTEXT_ALPHABET) for _ in range(rng.randint(0, 4)))
    else:
        segments = []
        for sid in reversed(chain):
            handled = sorted(cmap[sid], key=lambda seq: [c.value for c in seq])
            if handled:
                segments.extend(rng.choice(handled))
        context = tuple(segments)
    return chain, context


def random_token(rng: random.Random) -> str:
    return "xtnt" + "%032x" % rng.getrandbits(128)


def replace_loop_strip(document: str, registry) -> str:
    """Reference annotation strip: one whole-document replace per token.

    Tokens are removed one after another in registry order, so a token
    formed by an earlier removal may be removed by a later one; any
    registered token still present afterwards raises UnknownResidue.
    """
    for token in registry.tokens():
        document = document.replace(token, "")
    for token in registry.tokens():
        if token in document:
            raise UnknownResidue(f"token {token} survived removal")
    return document


def remove_literal_occurrences(document: str, tokens) -> str:
    """Remove every occurrence of any of ``tokens`` present in the
    original document at once, found by plain substring search; text
    that a removal joins into a token is kept."""
    spans = []
    for token in tokens:
        start = document.find(token)
        while start != -1:
            spans.append((start, start + len(token)))
            start = document.find(token, start + len(token))
    kept, pos = [], 0
    for start, end in sorted(spans):
        kept.append(document[pos:start])
        pos = end
    kept.append(document[pos:])
    return "".join(kept)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def reference_parse(source: str):
    """Reference template parser: a walk from each "{{" to the next "}}"
    with ``str.find``, validating every expansion where it occurs.
    Returns the literal before each expansion and the one after the
    last, and each expansion's (path, filters, raw) in written order;
    raises ``TemplateSyntaxError`` at the first bad expansion."""
    literals, expansions = [], []
    i = 0
    while (start := source.find("{{", i)) != -1:
        literals.append(source[i:start])
        end = source.find("}}", start + 2)
        if end == -1:
            raise TemplateSyntaxError("unterminated expansion", offset=start)
        raw = source[start:end + 2]
        parts = [part.strip() for part in raw[2:-2].split("|")]
        dotted = parts[0]
        segments = tuple(dotted.split("."))
        if not dotted or not all(_IDENT_RE.fullmatch(s) for s in segments):
            raise TemplateSyntaxError(f"invalid value path {dotted!r}",
                                      offset=start)
        filters = tuple(parts[1:])
        for name in filters:
            if name not in FILTERS:
                raise TemplateSyntaxError(f"unknown filter {name!r}",
                                          offset=start)
        expansions.append((segments, filters, raw))
        i = end + 2
    literals.append(source[i:])
    return literals, expansions


def reference_render(template, env, *, seed=None, mode=TrackingMode.FULL):
    """Reference template expansion: every occurrence resolves, filters
    and escapes its own value, with nothing shared between occurrences
    of one expansion.  Returns the annotated document, its registry and
    the clean document, each built on its own."""
    registry = SinkRegistry(seed=seed)
    document = clean = ""
    for i, number in enumerate(template.occurrences):
        document += template.literals[i]
        clean += template.literals[i]
        path, filters, _ = template.expansions[number]
        value = resolve_path(env, path, mode=mode)
        for name in filters:
            value = FILTERS[name](value)
        if not value.safe_marked:
            value = html_escape(value)
        if value.taint:
            document += registry.register(value.taint, f"template:{i}")
        document += value.text
        clean += value.text
    document += template.literals[-1]
    clean += template.literals[-1]
    return document, registry, clean


def reference_report_dict(findings, verdicts, summary,
                          clean_document: str) -> dict:
    """The JSON report as the value json.dumps(..., check_circular=False)
    encodes; each distinct context sequence is named once, and every
    verdict's context is one of the findings'."""
    names = {context: sequence_names(context)
             for context in {f.context for f in findings}}
    patterns = {None: None, **{pattern: pattern.value for pattern in BugPattern}}
    return {
        "summary": {
            "sanitizations": summary.sanitizations,
            "correct": summary.correct,
            "incorrect": summary.incorrect,
        },
        "findings": [
            {
                "token": f.token,
                "context": names[f.context],
                "excerpt": f.excerpt,
            }
            for f in findings
        ],
        "patterns": {
            patterns[pattern]: count
            for pattern, count in summary.pattern_counts.items()
        },
        "verdicts": [
            {
                "token": v.token,
                "origin": v.triple.origin,
                "chain": v.triple.chain,
                "sink": v.triple.sink,
                "context": names[v.context],
                "sufficient": v.sufficient,
                "pattern": patterns[v.pattern],
            }
            for v in verdicts
        ],
        "clean_document": clean_document,
    }


# -- Reference model browser ---------------------------------------------
#
# ReferenceBrowser is ModelBrowser as it was before its scanners became
# lexer tables: per-character loops, one hand-written quoted-string loop
# per language.  Only the class name differs, and _token_set accepts
# just the SinkRegistry every caller passes.  It has no nesting cap, so
# compare it only on documents nested far less than MAX_NESTING deep.

URI_ATTRIBUTES = frozenset(
    {"href", "src", "action", "formaction", "background", "data",
     "xlink:href"}
)

_WS = " \t\n\r\f"
_TAG_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9:_-]*")
_COMMENT_END_RE = re.compile(r"--!?>")
_JS_URI_RE = re.compile(r"javascript:(.*)\Z", re.I | re.S)
_DATA_URI_RE = re.compile(r"data:([^,]*),(.*)\Z", re.I | re.S)
_EXCERPT_MARGIN = 40
# The named references that may go without ";".
_LEGACY_NAMES = [name for name in html.entities.html5 if name[-1] != ";"]


def _token_set(registry) -> frozenset:
    return frozenset(registry.tokens())


class ReferenceBrowser:
    """One analysis pass over one document: collects findings for the
    given token set."""

    def __init__(self, tokens):
        self.tokens = _token_set(tokens)
        self.findings: list[Finding] = []

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
                # "<!-->" and "<!--->" are empty comments; any other
                # ends at its first "-->" or "--!>".
                if text.startswith(">", lt + 4) or text.startswith("->", lt + 4):
                    i = text.index(">", lt + 4) + 1
                    continue
                close = _COMMENT_END_RE.search(text, lt + 4)
                if close is None:
                    self._classify(text[lt + 4:], prefix, BrowserContext.HtmlComment)
                    return
                self._classify(text[lt + 4:close.start()], prefix,
                               BrowserContext.HtmlComment)
                i = close.end()
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
        # A named reference without ";" right before a token is kept
        # as written, and is decoded where the value starts with any
        # character but an ASCII alphanumeric or "=": the value is read
        # both ways, the second adding findings the first did not.
        closed = value
        for legacy in _LEGACY_NAMES:
            closed = closed.replace(f"&{legacy}xtnt", f"&{legacy};xtnt")
        first = len(self.findings)
        self._decoded_attribute(tag, name, value, ctx, prefix)
        if closed != value:
            seen = {finding[:2] for finding in self.findings[first:]}
            second = len(self.findings)
            self._decoded_attribute(tag, name, closed, ctx, prefix)
            self.findings[second:] = [finding
                                      for finding in self.findings[second:]
                                      if finding[:2] not in seen]

    def _decoded_attribute(self, tag: str, name: str, value: str,
                           ctx: BrowserContext,
                           prefix: ContextSequence) -> None:
        lname = name.lower()
        decoded = entity_decode(value)
        if lname.startswith("on"):
            self.js_scan(decoded, prefix + (ctx,))
        elif lname == "style":
            self.css_scan(decoded, prefix + (ctx,))
        elif lname in URI_ATTRIBUTES:
            script_src = tag == "script" and lname == "src"
            self.uri_scan(decoded, prefix + (ctx,), script_src=script_src)
        elif lname == "srcdoc":
            # A nested document, whose entities decode once more.
            self.html_scan(decoded, prefix + (ctx,))
        else:
            self._classify(decoded, prefix, ctx)

    def _raw_content(self, text: str, start: int, prefix: ContextSequence,
                     script: bool) -> int:
        # Raw text elements end at "</name" followed by whitespace, "/"
        # or ">", the name in ASCII case only; their content is not
        # entity-decoded.
        close_re = re.compile(r"</script" if script else r"</style",
                              re.I | re.A)
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
                end = i + 2
                while end < n and text[end] not in "\n\r\u2028\u2029":
                    end += 1
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
            tail = text[k + 1:n if close == -1 else close] if k < n else ""
        else:
            close = text.find(")", j)
            payload = text[j:n if close == -1 else close].strip()
            tail = ""
        self.uri_scan(css_unescape(payload), prefix)
        # Text between the closing quote and ")" is not part of the URL.
        self._classify(tail, prefix, BrowserContext.Unknown)
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
        prefix = tuple(prefix)
        if script_src:
            self._classify(text, prefix, BrowserContext.UriScriptSrc)
            return
        # The URL parser's preprocessing: every ASCII tab and newline
        # goes, and so do leading C0 controls and spaces.
        url = "".join(char for char in text if char not in "\t\n\r")
        while url and ord(url[0]) <= 0x20:
            url = url[1:]
        match = _JS_URI_RE.match(url)
        if match:
            body = percent_decode(match.group(1))
            self.js_scan(body, prefix + (BrowserContext.Uri,))
            return
        match = _DATA_URI_RE.match(url)
        if match:
            header, payload = match.group(1), match.group(2)
            # Fetch's data: URL processor: the body is base64 only when
            # the MIME type ends with ";", spaces and "base64", and it
            # is percent-decoded first.
            _, semicolon, last = header.rpartition(";")
            last = last.rstrip(" \t\n\r\f").lstrip(" ")
            parts = [p.strip(_WS).lower() for p in header.split(";")]
            if parts[0] == "text/html":
                if semicolon and last.lower() == "base64":
                    try:
                        decoded = base64.b64decode(percent_decode(payload),
                                                   validate=False)
                        document = decoded.decode("utf-8", "replace")
                    except ValueError:
                        self._classify(url, prefix, BrowserContext.Uri)
                        return
                    # Base64 decoding is destructive: a token sitting
                    # literally in the payload would vanish with it, so
                    # the percent-decoded payload keeps its URI
                    # classification.
                    self._classify(percent_decode(payload), prefix,
                                   BrowserContext.Uri)
                else:
                    document = percent_decode(payload)
                self._classify(url[:match.start(2)], prefix, BrowserContext.Uri)
                self.html_scan(document, prefix + (BrowserContext.Uri,))
                return
        self._classify(text, prefix, BrowserContext.Uri)
