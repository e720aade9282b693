"""Independent oracles and randomized-case generators for the tests.

The sufficiency oracle enumerates the full concatenation product of the
handled-context sets, which is exactly the definition the fast
implementation must agree with.  It stays deliberately naive.  The
strip oracle is the original one-replace-per-token annotation strip.
"""

from __future__ import annotations

import itertools
import random

from ctxcheck.annotations import UnknownResidue
from ctxcheck.contexts import BrowserContext

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
