"""Value-level taint tracking with per-value sanitizer history.

A tainted value remembers, for every source it derives from, the ordered
chain of sanitizers applied since that source produced it.  Combining two
values unions their histories; applying a sanitizer appends its id to
every chain.  An empty record means the value is untainted, which makes
combination a plain set union with the empty set as identity.

All values here are immutable; every operation returns a new value.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from typing import NamedTuple

SanitizerId = str
SourceId = str

# Application order, first applied first.
SanitizerChain = tuple[SanitizerId, ...]

TaintRecord = frozenset
EMPTY_TAINT: TaintRecord = frozenset()


class TrackingMode(enum.Enum):
    """How aggressively taint follows values through data conversions.

    FULL tracks strings, numerics and container elements.  NO_NUMERIC
    drops taint at string/number boundaries.  NO_NUMERIC_NO_CONTAINER
    additionally stops propagating into container elements, so operations
    returning lists of pieces yield untainted pieces.
    """

    FULL = "full"
    NO_NUMERIC = "no-numeric"
    NO_NUMERIC_NO_CONTAINER = "no-containers"


class TaintedText(NamedTuple):
    """An immutable character string carrying a taint record.

    ``safe_marked`` is an engine-facing flag that suppresses automatic
    escaping in the template engine; it never alters the record itself.

    The value is a tuple of its three fields.  ``len``, indexing,
    slicing and ``+`` act on the text; iteration, ``in``, ``*`` and
    ordering act as a tuple's, on the fields, so use ``.text`` for them.
    ``_make`` and ``_replace`` take ``len`` for the number of fields, so
    build a changed value with the constructor.
    """

    text: str
    taint: TaintRecord = EMPTY_TAINT
    safe_marked: bool = False

    def __add__(self, other: "TaintedText | str") -> "TaintedText":
        return concat(self, _coerce(other))

    def __radd__(self, other: str) -> "TaintedText":
        return concat(_coerce(other), self)

    def __getitem__(self, key) -> "TaintedText":
        return self._derive(self.text[key])

    def __len__(self) -> int:
        return len(self.text)

    def _derive(self, new_text: str) -> "TaintedText":
        # Single-operand transformation: the result keeps the whole record.
        return TaintedText(new_text, self.taint, self.safe_marked)

    def upper(self) -> "TaintedText":
        return self._derive(self.text.upper())

    def lower(self) -> "TaintedText":
        return self._derive(self.text.lower())

    def strip(self, chars: str | None = None) -> "TaintedText":
        return self._derive(self.text.strip(chars))

    def replace(self, old: str, new: str) -> "TaintedText":
        return self._derive(self.text.replace(old, new))

    @property
    def origins(self) -> frozenset:
        return frozenset(origin for origin, _ in self.taint)


class TaintedNumber(NamedTuple):
    """An immutable numeric value carrying a taint record."""

    value: int | float
    taint: TaintRecord = EMPTY_TAINT


def _coerce(value: "TaintedText | str") -> TaintedText:
    if isinstance(value, TaintedText):
        return value
    return TaintedText(value)


def untainted(text: str) -> TaintedText:
    """Wrap a trusted literal; its record is empty."""
    return TaintedText(text)


def make_source(text: str, origin: SourceId) -> TaintedText:
    """Produce a sourced value: one entry with an empty chain."""
    return TaintedText(text, frozenset({(origin, ())}))


def number_source(value: int | float, origin: SourceId,
                  mode: TrackingMode = TrackingMode.FULL) -> TaintedNumber:
    """Produce a sourced number; numbers carry taint only in FULL mode."""
    if mode is TrackingMode.FULL:
        return TaintedNumber(value, frozenset({(origin, ())}))
    return TaintedNumber(value)


def append_sanitizer(record: TaintRecord, sanitizer: SanitizerId) -> TaintRecord:
    """Append a sanitizer id to every chain in the record.

    An empty record stays empty: sanitizing an untainted value does not
    create taint.
    """
    return frozenset((origin, chain + (sanitizer,)) for origin, chain in record)


def mark_sanitized(value: TaintedText, sanitizer: SanitizerId) -> TaintedText:
    """Record that a sanitizer body has already transformed the text."""
    return TaintedText(value.text, append_sanitizer(value.taint, sanitizer),
                       value.safe_marked)


def merge_taint(a: TaintRecord, b: TaintRecord) -> TaintRecord:
    """Combine records of two input values: set union of entries."""
    return a | b


def concat(a: TaintedText, b: TaintedText) -> TaintedText:
    return TaintedText(a.text + b.text, merge_taint(a.taint, b.taint),
                       a.safe_marked and b.safe_marked)


def join(sep: "TaintedText | str", parts: Iterable[TaintedText]) -> TaintedText:
    """Join parts with a separator, unioning every record involved."""
    sep = _coerce(sep)
    parts = list(parts)
    taint = sep.taint if len(parts) > 1 else EMPTY_TAINT
    safe = all(p.safe_marked for p in parts) if parts else False
    for p in parts:
        taint = merge_taint(taint, p.taint)
    return TaintedText(sep.text.join(p.text for p in parts), taint, safe)


def split(value: TaintedText, sep: str | None = None,
          mode: TrackingMode = TrackingMode.FULL) -> list[TaintedText]:
    """Split into pieces, each carrying the whole record.

    With container propagation disabled the pieces come back untainted.
    """
    piece_taint = value.taint
    if mode is TrackingMode.NO_NUMERIC_NO_CONTAINER:
        piece_taint = EMPTY_TAINT
    return [TaintedText(piece, piece_taint, value.safe_marked)
            for piece in value.text.split(sep)]


def char_codes(value: TaintedText,
               mode: TrackingMode = TrackingMode.FULL) -> list[TaintedNumber]:
    """Decompose into per-character code points.

    Outside FULL mode the numeric hop loses the taint by construction.
    """
    taint = value.taint if mode is TrackingMode.FULL else EMPTY_TAINT
    return [TaintedNumber(ord(ch), taint) for ch in value.text]


def from_char_codes(codes: Iterable[TaintedNumber]) -> TaintedText:
    """Reassemble text from code points, unioning their records."""
    codes = list(codes)
    taint = EMPTY_TAINT
    for code in codes:
        taint = merge_taint(taint, code.taint)
    return TaintedText("".join(chr(int(c.value)) for c in codes), taint)


def char_roundtrip(value: TaintedText,
                   mode: TrackingMode = TrackingMode.FULL) -> TaintedText:
    """Decompose to numeric codes and reassemble.

    In FULL mode the record survives the trip, the empty string's too,
    which has no codes to carry it; in the limited modes it is lost at
    the numeric hop.
    """
    text = "".join(chr(int(code.value)) for code in char_codes(value, mode))
    taint = value.taint if mode is TrackingMode.FULL else EMPTY_TAINT
    return TaintedText(text, taint)


def number_to_text(number: TaintedNumber) -> TaintedText:
    """Stringify a number, keeping whatever record it carries."""
    return TaintedText(str(number.value), number.taint)
