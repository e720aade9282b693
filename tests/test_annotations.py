from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxcheck.annotations import (
    TOKEN_LENGTH,
    TOKEN_PREFIX,
    TOKEN_RE,
    RegistrationError,
    SinkRegistry,
    UnknownResidue,
    emit_to_sink,
    strip_annotations,
)
from ctxcheck.sanitizers import html_escape, js_escape, mark_safe, url_encode
from ctxcheck.taint import make_source, untainted
from ctxcheck.template import parse_template, render

from oracles import remove_literal_occurrences, replace_loop_strip


def test_token_shape():
    registry = SinkRegistry(seed=0)
    token = registry.new_token()
    assert len(token) == TOKEN_LENGTH == 36
    assert token.startswith("xtnt")
    assert TOKEN_RE.fullmatch(token)
    assert token.isalnum()
    # The browser's str.find walk over the prefix relies on these: no
    # prefix occurs inside a token's hex digits, and none overlaps
    # another.
    assert set(TOKEN_PREFIX) - set("0123456789abcdef")
    assert not any(TOKEN_PREFIX[:n] == TOKEN_PREFIX[-n:]
                   for n in range(1, len(TOKEN_PREFIX)))


def test_seeded_registries_produce_identical_tokens():
    assert SinkRegistry(seed=5).new_token() == SinkRegistry(seed=5).new_token()


def test_a_registry_draws_its_tokens_from_a_generator_made_when_first_needed():
    # Adding outside tokens makes no generator, and the tokens drawn
    # after them are those of a generator seeded when the registry was.
    rng = random.Random(5)
    with mock.patch.object(random, "Random",
                           side_effect=AssertionError("generator made")):
        registry = SinkRegistry(seed=5)
        registry.add("xtnt" + "0" * 32, frozenset({("o", ())}), "s")
    drawn = [registry.new_token() for _ in range(3)]
    assert drawn == ["xtnt%032x" % rng.getrandbits(128) for _ in range(3)]


def test_emit_untainted_appends_text_only():
    registry = SinkRegistry(seed=0)
    out = []
    emit_to_sink(untainted("hi"), "sink", out, registry)
    assert "".join(out) == "hi"
    assert len(registry) == 0


def test_emit_tainted_prepends_fresh_token():
    registry = SinkRegistry(seed=0)
    out = []
    emit_to_sink(make_source("hi", "o"), "sink", out, registry)
    document = "".join(out)
    assert len(registry) == 1
    token = registry.tokens()[0]
    assert document == token + "hi"
    assert registry[token].sink == "sink"
    assert registry[token].taint == frozenset({("o", ())})


def test_same_value_emitted_twice_gets_two_tokens():
    registry = SinkRegistry(seed=0)
    out = []
    value = make_source("hi", "o")
    emit_to_sink(value, "s1", out, registry)
    emit_to_sink(value, "s2", out, registry)
    assert len(registry) == 2
    first, second = registry.tokens()
    assert first != second


def test_registry_size_equals_tainted_emissions():
    registry = SinkRegistry(seed=0)
    out = []
    for i in range(5):
        emit_to_sink(make_source(str(i), "o"), f"s{i}", out, registry)
    emit_to_sink(untainted("clean"), "s", out, registry)
    assert len(registry) == 5


def test_registry_rejects_untainted_and_duplicates():
    registry = SinkRegistry(seed=0)
    with pytest.raises(RegistrationError):
        registry.register(frozenset(), "s")
    token = registry.register(frozenset({("o", ())}), "s")
    assert token in registry and registry.new_token() not in registry
    assert registry != {token: registry[token]}
    with pytest.raises(RegistrationError):
        registry.add(token, frozenset({("o", ())}), "s")
    with pytest.raises(RegistrationError):
        registry.add("not-a-token", frozenset({("o", ())}), "s")


def test_strip_removes_token_keeps_payload():
    registry = SinkRegistry(seed=0)
    out = []
    out.append("a ")
    emit_to_sink(make_source("X", "o"), "s", out, registry)
    out.append(" b")
    assert strip_annotations("".join(out), registry) == "a X b"


def test_strip_without_tokens_is_identity():
    registry = SinkRegistry(seed=0)
    assert strip_annotations("plain <b>doc</b>", registry) == "plain <b>doc</b>"


def test_strip_removes_all_tokens_in_order():
    registry = SinkRegistry(seed=0)
    out = []
    emit_to_sink(make_source("first", "o"), "s1", out, registry)
    out.append("|")
    emit_to_sink(make_source("second", "o"), "s2", out, registry)
    assert strip_annotations("".join(out), registry) == "first|second"


def test_strip_flags_residue_from_builder_misuse():
    registry = SinkRegistry(seed=0)
    token = registry.register(frozenset({("o", ())}), "s")
    other = SinkRegistry(seed=1).new_token()
    registry.add(other, frozenset({("o", ())}), "s")
    # Removing `other` (processed second) reveals `token`, which the
    # earlier pass already missed.
    crafted = token[:10] + other + token[10:]
    with pytest.raises(UnknownResidue):
        strip_annotations(crafted, registry)


def test_strip_flags_token_revealed_whatever_the_registry_order():
    registry = SinkRegistry(seed=0)
    token = registry.register(frozenset({("o", ())}), "s")
    other = SinkRegistry(seed=1).new_token()
    registry.add(other, frozenset({("o", ())}), "s")
    # Removing `token` joins the halves of `other` around it.  The
    # replace loop happens to remove `other` afterwards because it comes
    # later in the registry; a single pass reports it whatever the order.
    crafted = other[:10] + token + other[10:]
    assert replace_loop_strip(crafted, registry) == ""
    with pytest.raises(UnknownResidue):
        strip_annotations(crafted, registry)


@pytest.mark.parametrize("left", range(1, TOKEN_LENGTH))
def test_strip_flags_a_residue_split_at_every_cut(left):
    """A token with ``left`` of its characters before the point where
    one or two others are removed and the rest after it, alone or
    between other removals, is kept when unregistered and raised when
    registered, wherever the removal splits it."""
    registry = SinkRegistry(seed=0)
    first, inner, last = (registry.register(frozenset({("o", ())}), "s")
                          for _ in range(3))
    outer = SinkRegistry(seed=1).new_token()
    documents = [before + outer[:left] + middle + outer[left:] + after
                 for middle in (inner, inner + last)
                 for before, after in (("", ""), (first, last),
                                       (f"<p>{first}a", f"b{last}</p>"))]
    for document in documents:
        clean = strip_annotations(document, registry)
        assert clean == remove_literal_occurrences(document,
                                                   [first, inner, last])
        assert outer in clean
    registry.add(outer, frozenset({("o", ())}), "s")
    for document in documents:
        with pytest.raises(UnknownResidue, match=outer):
            strip_annotations(document, registry)


_REGISTERED = SinkRegistry(seed=7)
for _ in range(3):
    _REGISTERED.register(frozenset({("o", ())}), "s")
_UNREGISTERED = [SinkRegistry(seed=8 + i).new_token() for i in range(2)]
_TOKENS = list(_REGISTERED.tokens()) + _UNREGISTERED


def _nested(outer: str, cut: int, inner: str) -> str:
    return outer[:cut] + inner + outer[cut:]


_pieces = st.one_of(
    st.text(alphabet="xtn0123456789abcdef<>\" =", max_size=8),
    st.sampled_from(_TOKENS),
    st.builds(_nested, st.sampled_from(_TOKENS),
              st.integers(min_value=0, max_value=36),
              st.sampled_from(_TOKENS)),
    st.builds(lambda token, cut: token[:cut], st.sampled_from(_TOKENS),
              st.integers(min_value=1, max_value=35)),
)


@given(st.lists(_pieces, max_size=10))
def test_strip_matches_replace_loop_oracle(pieces):
    document = "".join(pieces)
    registered = _REGISTERED.tokens()
    literal = remove_literal_occurrences(document, registered)
    try:
        expected = replace_loop_strip(document, _REGISTERED)
    except UnknownResidue:
        expected = None
    try:
        clean = strip_annotations(document, _REGISTERED)
    except UnknownResidue:
        # Raised exactly when removing the document's own occurrences
        # joins text into a registered token.
        assert any(token in literal for token in registered)
        return
    assert not any(token in clean for token in registered)
    assert clean == literal == expected


def test_strip_at_scale_equals_unannotated_render():
    rows = ('<a href="/p?q={{v.q}}" title="{{v.t}}">{{v.t}}</a>'
            '<script>var s = "{{v.s|escapejs}}";</script>\n')
    template = parse_template(rows * 5000)
    env = {"v": {"q": "a&b c", "t": 'x"y<z>', "s": "it's"}}
    document, registry, plain = render(template, env, seed=3)
    assert len(registry) == 20000
    assert strip_annotations(document, registry) == plain


def test_tokens_pass_through_every_sanitizer_unchanged():
    rng = random.Random(3)
    for _ in range(50):
        token = "xtnt" + "%032x" % rng.getrandbits(128)
        for fn in (html_escape, js_escape, url_encode, mark_safe):
            assert fn(untainted(token)).text == token
