from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxcheck.taint import (
    EMPTY_TAINT,
    TaintedNumber,
    TaintedText,
    TrackingMode,
    append_sanitizer,
    char_codes,
    char_roundtrip,
    concat,
    from_char_codes,
    join,
    make_source,
    mark_sanitized,
    merge_taint,
    number_source,
    number_to_text,
    split,
    untainted,
)

origins = st.sampled_from(["get.q", "db.color", "post.body", "cookie.sid"])
chains = st.lists(
    st.sampled_from(["html_escape", "js_escape", "url_encode", "safe"]),
    max_size=3,
).map(tuple)
records = st.frozensets(st.tuples(origins, chains), max_size=5)


def test_make_source_attaches_empty_chain():
    value = make_source("abc", "src:get.q")
    assert value.text == "abc"
    assert value.taint == frozenset({("src:get.q", ())})
    assert value.safe_marked is False


def test_make_source_empty_text_still_tainted():
    value = make_source("", "src:db.color")
    assert value.taint == frozenset({("src:db.color", ())})


def test_make_source_same_origin_equal_records():
    assert make_source("a", "o").taint == make_source("b", "o").taint


def test_mark_sanitized_appends_to_single_chain():
    value = TaintedText("x", frozenset({("a", ())}))
    assert mark_sanitized(value, "html").taint == frozenset({("a", ("html",))})


def test_mark_sanitized_appends_to_every_chain():
    value = TaintedText("x", frozenset({("a", ("html",)), ("b", ())}))
    assert mark_sanitized(value, "js").taint == frozenset(
        {("a", ("html", "js")), ("b", ("js",))}
    )


def test_mark_sanitized_keeps_untainted_untainted():
    assert mark_sanitized(untainted("x"), "html").taint == EMPTY_TAINT


def test_merge_taint_unions_entries():
    a = frozenset({("a", ())})
    b = frozenset({("b", ("html",))})
    assert merge_taint(a, b) == frozenset({("a", ()), ("b", ("html",))})


def test_merge_taint_identity_and_idempotence():
    record = frozenset({("a", ("html",))})
    assert merge_taint(record, EMPTY_TAINT) == record
    assert merge_taint(record, record) == record


def test_concat_unions_taint():
    a = TaintedText("x", frozenset({("a", ())}))
    b = untainted("y")
    out = concat(a, b)
    assert out.text == "xy"
    assert out.taint == frozenset({("a", ())})


def test_concat_merges_both_records():
    a = TaintedText("x", frozenset({("a", ("html",))}))
    b = TaintedText("y", frozenset({("b", ())}))
    assert concat(a, b).taint == frozenset({("a", ("html",)), ("b", ())})


def test_concat_with_empty_text_keeps_value():
    v = TaintedText("v", frozenset({("a", ())}))
    out = untainted("") + v
    assert out.text == "v"
    assert out.taint == v.taint


def test_split_pieces_carry_record():
    value = TaintedText("a,b", frozenset({("s", ())}))
    pieces = split(value, ",")
    assert [p.text for p in pieces] == ["a", "b"]
    assert all(p.taint == value.taint for p in pieces)


def test_split_untainted_stays_untainted():
    assert all(p.taint == EMPTY_TAINT for p in split(untainted("a b c")))


def test_split_without_container_propagation_loses_taint():
    value = TaintedText("a,b", frozenset({("s", ())}))
    pieces = split(value, ",", mode=TrackingMode.NO_NUMERIC_NO_CONTAINER)
    assert [p.text for p in pieces] == ["a", "b"]
    assert all(p.taint == EMPTY_TAINT for p in pieces)


def test_char_roundtrip_full_mode_preserves_taint():
    value = TaintedText("hi", frozenset({("a", ())}))
    out = char_roundtrip(value, TrackingMode.FULL)
    assert out.text == "hi"
    assert out.taint == value.taint


def test_char_roundtrip_no_numeric_loses_taint():
    value = TaintedText("hi", frozenset({("a", ())}))
    assert char_roundtrip(value, TrackingMode.NO_NUMERIC).taint == EMPTY_TAINT


def test_char_roundtrip_untainted_stays_untainted():
    assert char_roundtrip(untainted("hi")).taint == EMPTY_TAINT


def test_char_codes_full_carries_record_per_character():
    value = TaintedText("ab", frozenset({("a", ())}))
    codes = char_codes(value)
    assert [c.value for c in codes] == [97, 98]
    assert all(c.taint == value.taint for c in codes)
    assert from_char_codes(codes).taint == value.taint


def test_number_source_only_tainted_in_full_mode():
    assert number_source(7, "db.n").taint == frozenset({("db.n", ())})
    assert number_source(7, "db.n", mode=TrackingMode.NO_NUMERIC).taint == EMPTY_TAINT
    assert number_to_text(number_source(7, "db.n")).text == "7"


def test_join_unions_all_records():
    parts = [make_source("a", "o1"), make_source("b", "o2")]
    out = join(",", parts)
    assert out.text == "a,b"
    assert out.origins == frozenset({"o1", "o2"})


def test_tracking_mode_names_round_trip():
    for mode in TrackingMode:
        assert TrackingMode(mode.value) is mode
    with pytest.raises(ValueError):
        TrackingMode("bogus")


@given(records, records)
def test_merge_commutative(a, b):
    assert merge_taint(a, b) == merge_taint(b, a)


@given(records, records, records)
def test_merge_associative(a, b, c):
    assert merge_taint(merge_taint(a, b), c) == merge_taint(a, merge_taint(b, c))


@given(records)
def test_merge_idempotent_with_identity(a):
    assert merge_taint(a, a) == a
    assert merge_taint(a, EMPTY_TAINT) == a


@given(records, records)
def test_append_distributes_over_merge(a, b):
    merged_then_marked = append_sanitizer(merge_taint(a, b), "s")
    marked_then_merged = merge_taint(
        append_sanitizer(a, "s"), append_sanitizer(b, "s"))
    assert merged_then_marked == marked_then_merged


def test_chain_order_preserved():
    value = make_source("v", "origin")
    value = mark_sanitized(value, "s1")
    value = mark_sanitized(value, "s2")
    assert value.taint == frozenset({("origin", ("s1", "s2"))})


@given(st.text(max_size=20), records)
def test_operations_do_not_mutate_inputs(text, record):
    value = TaintedText(text, record)
    snapshot = (value.text, value.taint, value.safe_marked)
    concat(value, value)
    split(value, ",")
    char_roundtrip(value)
    mark_sanitized(value, "s")
    assert (value.text, value.taint, value.safe_marked) == snapshot
    # Repeating a call gives the same answer: no hidden state anywhere.
    assert concat(value, value) == concat(value, value)


def test_values_are_immutable():
    value = make_source("a", "o")
    with pytest.raises(AttributeError):
        value.text = "b"
    number = TaintedNumber(1)
    with pytest.raises(AttributeError):
        number.value = 2


def test_slicing_and_case_ops_keep_record():
    value = make_source("Hello World", "o")
    assert value[0:5].taint == value.taint
    assert value.upper().taint == value.taint
    assert value.lower().text == "hello world"
    assert value.replace("World", "There").taint == value.taint
    assert value.strip().text == "Hello World"
