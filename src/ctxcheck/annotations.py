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
from itertools import repeat
from typing import NamedTuple

from .taint import TaintRecord

SinkId = str

TOKEN_PREFIX = "xtnt"
# The prefix and the 32 hex digits of each drawn token.
TOKEN_LENGTH = len(TOKEN_PREFIX) + 32
TOKEN_RE = re.compile(TOKEN_PREFIX + "[0-9a-f]{32}")


class UnknownResidue(Exception):
    """A registered token survived a full removal pass."""


class RegistrationError(ValueError):
    """A registry entry violates the registry invariants."""


# Per-token records skip NamedTuple's Python-level __new__ (550 ns): they
# are built with tuple.__new__ (180 ns).
class RegistryEntry(NamedTuple):
    taint: TaintRecord
    sink: SinkId


class SinkRegistry:
    """Per-document map from annotation token to taint record and sink.

    One registry per rendered document; registries are not shared across
    concurrent renders.  Pass a seed to make token generation
    reproducible.  The generator is made by the first draw:
    seeding it from the operating system's entropy takes about 15 µs,
    and a registry read from a bundle never draws a token.
    """

    def __init__(self, seed: int | None = None):
        self._seed = seed
        self._rng: random.Random | None = None
        self._entries: dict[str, RegistryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SinkRegistry):
            return NotImplemented
        return self._entries == other._entries

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def __getitem__(self, token: str) -> RegistryEntry:
        return self._entries[token]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def items(self):
        return self._entries.items()

    def _draw(self, count: int) -> list[str]:
        """The ``count`` unused tokens that as many single draws give, from
        one draw cut into 32-digit chunks, lowest first.  A chunk registered
        or drawn already is skipped, and the shortfall is drawn again."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        entries, drawn = self._entries, {}
        while (short := count - len(drawn)) > 0:
            bits = self._rng.getrandbits(128 * short)
            digits = bits.to_bytes(16 * short, "big").hex()
            for at in range(32 * short - 32, -1, -32):
                if (token := TOKEN_PREFIX + digits[at:at + 32]) not in entries:
                    drawn[token] = None
        return list(drawn)

    def register_all(self, taints: list[TaintRecord],
                     sinks: list[SinkId]) -> list[str]:
        """Register each frozenset taint, with the sink at its index, under
        a fresh token from one draw; return the tokens.  Drawn tokens are
        well formed and unused, so only the taints are checked here."""
        if not all(taints):
            raise RegistrationError("refusing to register an untainted value")
        tokens = self._draw(len(taints)) if taints else []
        self._entries.update(zip(tokens, map(tuple.__new__, repeat(
            RegistryEntry), zip(taints, sinks, strict=True))))
        return tokens

    def add(self, token: str, taint: TaintRecord, sink: SinkId) -> None:
        """Insert an entry under an externally supplied token."""
        if not TOKEN_RE.fullmatch(token):
            raise RegistrationError(f"malformed token {token!r}")
        if token in self._entries:
            raise RegistrationError(f"duplicate token {token!r}")
        if not taint:
            raise RegistrationError("refusing to register an untainted value")
        self._entries[token] = tuple.__new__(
            RegistryEntry, (frozenset(taint), sink))


def emit_to_sink(value, sink: SinkId, out: list[str],
                 registry: SinkRegistry) -> None:
    """Write a value to the output, annotating it if tainted.

    Untainted values are written as-is.  Tainted values get a fresh token
    prepended and a registry entry; emitting the same value twice yields
    two distinct tokens.
    """
    if not value.taint:
        out.append(value.text)
        return
    token = registry.register_all([value.taint], [sink])[0]
    out.append(token + value.text)


def strip_annotations(document: str, registry: SinkRegistry) -> str:
    """Remove every registered token, leaving everything else untouched.

    Each ``TOKEN_RE`` match that is registered is removed in one pass.
    Every registered token matches ``TOKEN_RE`` whole, and no two
    matches overlap, so that is every registered occurrence.  A
    registered token left afterwards was formed by a removal (a token
    nested inside another) and raises ``UnknownResidue``.
    """
    entries = registry._entries
    clean = TOKEN_RE.sub(lambda m: "" if m[0] in entries else m[0], document)
    for match in TOKEN_RE.finditer(clean):
        if match[0] in entries:
            raise UnknownResidue(f"token {match[0]} survived removal")
    return clean
