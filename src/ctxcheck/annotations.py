"""Annotation tokens that mark tainted values inside rendered output.

A token is a random alphanumeric string inserted directly before the
value text at a sink.  Being alphanumeric, it passes unchanged through
every sanitizer and every decoding layer, so its position in the final
document identifies where the value landed.  A per-document registry maps
each token back to the taint record and sink site.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .taint import TaintRecord

SinkId = str

TOKEN_PREFIX = "xtnt"
TOKEN_LENGTH = 36
TOKEN_RE = re.compile(r"xtnt[0-9a-f]{32}")


class UnknownResidue(Exception):
    """A registered token survived a full removal pass."""


class RegistrationError(ValueError):
    """A registry entry violates the registry invariants."""


@dataclass(frozen=True)
class RegistryEntry:
    taint: TaintRecord
    sink: SinkId


class SinkRegistry:
    """Per-document map from annotation token to taint record and sink.

    One registry per rendered document; registries are not shared across
    concurrent renders.  Pass a seed to make token generation
    reproducible.
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed)
        self._entries: dict[str, RegistryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SinkRegistry):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __getitem__(self, token: str) -> RegistryEntry:
        return self._entries[token]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()

    def new_token(self) -> str:
        while True:
            token = TOKEN_PREFIX + "%032x" % self._rng.getrandbits(128)
            if token not in self._entries:
                return token

    def register(self, taint: TaintRecord, sink: SinkId) -> str:
        """Create a fresh token for a tainted value reaching a sink."""
        token = self.new_token()
        self.add(token, taint, sink)
        return token

    def add(self, token: str, taint: TaintRecord, sink: SinkId) -> None:
        """Insert an entry under an externally supplied token."""
        if not TOKEN_RE.fullmatch(token):
            raise RegistrationError(f"malformed token {token!r}")
        if token in self._entries:
            raise RegistrationError(f"duplicate token {token!r}")
        if not taint:
            raise RegistrationError("refusing to register an untainted value")
        self._entries[token] = RegistryEntry(frozenset(taint), sink)


class DocumentBuilder:
    """Accumulates output chunks for one rendered document."""

    def __init__(self):
        self._chunks: list[str] = []

    def append(self, text: str) -> None:
        self._chunks.append(text)

    def build(self) -> str:
        return "".join(self._chunks)


def emit_to_sink(value, sink: SinkId, out: DocumentBuilder,
                 registry: SinkRegistry) -> None:
    """Write a value to the output, annotating it if tainted.

    Untainted values are written as-is.  Tainted values get a fresh token
    prepended and a registry entry; emitting the same value twice yields
    two distinct tokens.
    """
    if not value.taint:
        out.append(value.text)
        return
    token = registry.register(value.taint, sink)
    out.append(token + value.text)


def strip_annotations(document: str, registry: SinkRegistry) -> str:
    """Remove every registered token, leaving everything else untouched.

    One pass over the document removes every registered occurrence: the
    prefix ``xtnt`` holds no hex digit, so no token occurrence can
    overlap another match of ``TOKEN_RE``.  A registered token that is
    left afterwards was formed by a removal (a token nested inside
    another) and raises ``UnknownResidue``.
    """
    clean = TOKEN_RE.sub(
        lambda m: "" if m.group(0) in registry else m.group(0), document)
    for token in TOKEN_RE.findall(clean):
        if token in registry:
            raise UnknownResidue(f"token {token} survived removal")
    return clean
