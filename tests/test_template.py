from __future__ import annotations

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxcheck.taint import EMPTY_TAINT, TrackingMode
from ctxcheck.template import (
    FILTERS,
    Expansion,
    Template,
    TemplateSyntaxError,
    parse_template,
    render,
    resolve_path,
)

from oracles import reference_parse, reference_render


def test_parse_literal_and_expansion():
    template = parse_template("a {{x}} b")
    assert template == Template(
        ("a ", " b"), (Expansion(("x",), (), "{{x}}"),), (0,))


def test_parse_keeps_each_distinct_expansion_once():
    # Literals around back-to-back expansions, and before the first and
    # after the last, are empty; an expansion written with spaces is
    # another text, though it names the same path and filters.
    template = parse_template("{{a}}{{ a }}x{{a}}{{b|escape}}")
    assert template == Template(
        ("", "", "x", "", ""),
        (Expansion(("a",), (), "{{a}}"), Expansion(("a",), (), "{{ a }}"),
         Expansion(("b",), ("escape",), "{{b|escape}}")),
        (0, 1, 0, 2))


def test_parse_filter_chain():
    template = parse_template("{{request.POST.query | escape | escapejs}}")
    expansion = template.expansions[0]
    assert expansion.path == ("request", "POST", "query")
    assert expansion.filters == ("escape", "escapejs")
    assert template.occurrences == (0,)


def test_parse_unterminated_expansion():
    with pytest.raises(TemplateSyntaxError) as err:
        parse_template("text {{")
    assert err.value.offset == 5


def test_parse_unknown_filter():
    with pytest.raises(TemplateSyntaxError):
        parse_template("{{x | shout}}")


def test_parse_invalid_path():
    with pytest.raises(TemplateSyntaxError):
        parse_template("{{x..y}}")
    with pytest.raises(TemplateSyntaxError):
        parse_template("{{ }}")


def test_parse_error_offset_is_the_first_bad_expansion():
    # Repeats of a valid expansion are parsed once; a bad one raises at
    # its first occurrence, also when the same bad text comes again.
    cases = {
        "{{a}} {{x|shout}} {{x|shout}}": 6,
        "{{a}}{{a}} {{b..c}}{{a}}{{b..c}}": 11,
        "{{ a }}{{a}}{{ a }} {{a | shout}}": 20,
        "{{a|escape}}{{a|escape}}{{": 24,
    }
    for source, offset in cases.items():
        with pytest.raises(TemplateSyntaxError) as err:
            parse_template(source)
        assert err.value.offset == offset, source


def _source(literals, expansions) -> str:
    """The source written back from literals and per-occurrence raw texts."""
    return "".join(literal + raw for literal, (*_, raw)
                   in zip(literals, expansions)) + literals[-1]


def test_template_round_trips_to_source():
    source = "a {{ x | escape }} b {{y}} c {{y}}"
    template = parse_template(source)
    assert _source(template.literals, [template.expansions[number] for number
                                       in template.occurrences]) == source


# Pieces that make every syntax error, braces that an expansion holds or
# that close none, and characters outside Latin-1; and, since few runs
# of pieces spell a whole expansion, expansions built from them.
_PIECES = ("{{", "}}", "{", "}", "|", ".", " ", "\n", "a", "_1", "escape",
           "shout", "\u2192")
_EXPANSIONS = st.builds(
    lambda path, filters, pad: "{{%s%s%s}}" % (pad, "|".join([path, *filters]),
                                                pad),
    st.sampled_from(("a", "_1", "a._1", "escape")),
    st.lists(st.sampled_from(("escape", "shout")), max_size=2),
    st.sampled_from(("", " ", "\n")))


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(_PIECES), _EXPANSIONS),
                max_size=20).map("".join))
@example("{{{x}}}")
@example("{{a {{b}}")
@example("{{a}}{{ a }}{{a|escape}}{{a}}")
def test_parse_matches_the_find_walk(source):
    try:
        literals, expansions = reference_parse(source)
    except TemplateSyntaxError as expected:
        with pytest.raises(TemplateSyntaxError) as err:
            parse_template(source)
        assert (str(err.value), err.value.offset) == (str(expected),
                                                      expected.offset)
        return
    template = parse_template(source)
    assert template.literals == tuple(literals)
    assert [tuple(template.expansions[number])
            for number in template.occurrences] == expansions
    # Each distinct text once, in the order of its first occurrence.
    assert [e.raw for e in template.expansions] == list(
        dict.fromkeys(raw for *_, raw in expansions))
    assert _source(literals, expansions) == source


def test_parse_is_linear_on_unterminated_braces():
    # A search for "}}" from every "{{" would read the rest of the source
    # each time: 8,000 "{" took 0.56 s that way.
    cases = {"{" * 200_000: 0, "{{x" * 70_000: 0, "{{a}}" + "{" * 200_000: 5}
    for source, offset in cases.items():
        started = time.perf_counter()
        with pytest.raises(TemplateSyntaxError) as err:
            parse_template(source)
        elapsed = time.perf_counter() - started
        assert str(err.value) == f"unterminated expansion at offset {offset}"
        assert elapsed < 0.5, (source[:10], elapsed)


def test_sink_ids_are_ordinals():
    # An untainted occurrence registers nothing but keeps its ordinal.
    template = parse_template("{{a}} {{gone}} {{c}} {{a}}")
    _, registry, _ = render(template, {"a": "1", "c": "2"}, seed=0)
    sites = [entry.sink for _, entry in registry.items()]
    assert sites == ["template:0", "template:2", "template:3"]


def test_render_autoescapes_by_default():
    template = parse_template("{{request.POST.query}}")
    document, registry, _ = render(
        template, {"request": {"POST": {"query": 'x"y'}}}, seed=0)
    token = registry.tokens()[0]
    assert document == token + "x&quot;y"
    assert registry[token].taint == frozenset(
        {("request.POST.query", ("html_escape",))})
    assert registry[token].sink == "template:0"


def test_render_safe_filter_suppresses_autoescape():
    template = parse_template("{{q|safe}}")
    document, registry, _ = render(template, {"q": "<b>"}, seed=0)
    token = registry.tokens()[0]
    assert document == token + "<b>"
    assert registry[token].taint == frozenset({("q", ("safe",))})


def test_render_explicit_escapes_suppress_autoescape():
    template = parse_template("{{q|escape|escapejs}}")
    _, registry, _ = render(template, {"q": "v"}, seed=0)
    entry = registry[registry.tokens()[0]]
    assert entry.taint == frozenset({("q", ("html_escape", "js_escape"))})


def test_render_urlencode_still_autoescapes():
    template = parse_template("{{q|urlencode}}")
    _, registry, _ = render(template, {"q": "a b"}, seed=0)
    entry = registry[registry.tokens()[0]]
    assert entry.taint == frozenset({("q", ("url_encode", "html_escape"))})


def test_render_literal_only_template_registers_nothing():
    document, registry, clean = render(parse_template("static <b>text</b>"),
                                       {}, seed=0)
    assert document == clean == "static <b>text</b>"
    assert len(registry) == 0


def test_render_is_deterministic_for_a_seed():
    template = parse_template("{{a}} and {{b}}")
    env = {"a": "1", "b": "2"}
    assert render(template, env, seed=42) == render(template, env, seed=42)


def test_render_without_annotations_matches_stripped_output():
    from ctxcheck.annotations import strip_annotations

    template = parse_template('<a href="{{u}}">{{u}}</a>')
    env = {"u": "https://example.com"}
    annotated, registry, plain = render(template, env, seed=0)
    assert strip_annotations(annotated, registry) == plain
    assert plain == '<a href="https://example.com">https://example.com</a>'


def test_autoescape_applied_iff_not_safe_marked():
    # The chain gains a trailing html_escape exactly when no filter
    # marked the value safe.
    cases = {
        "{{q}}": ("html_escape",),
        "{{q|escape}}": ("html_escape",),
        "{{q|escapejs}}": ("js_escape",),
        "{{q|safe}}": ("safe",),
        "{{q|urlencode}}": ("url_encode", "html_escape"),
        "{{q|escape|escapejs}}": ("html_escape", "js_escape"),
        "{{q|safe|urlencode}}": ("safe", "url_encode"),
    }
    for source, expected_chain in cases.items():
        _, registry, _ = render(parse_template(source), {"q": "v"}, seed=0)
        entry = registry[registry.tokens()[0]]
        assert entry.taint == frozenset({("q", expected_chain)}), source


def test_resolve_path_wraps_leaves_as_sources():
    env = {"request": {"GET": {"language": "cs"}}}
    value = resolve_path(env, ("request", "GET", "language"))
    assert value.text == "cs"
    assert value.taint == frozenset({("request.GET.language", ())})


def test_resolve_path_missing_is_empty_untainted():
    value = resolve_path({}, ("nope", "nothing"))
    assert value.text == ""
    assert value.taint == EMPTY_TAINT


def test_resolve_path_numeric_leaf_modes():
    env = {"db": {"count": 7}}
    full = resolve_path(env, ("db", "count"), mode=TrackingMode.FULL)
    assert full.text == "7"
    assert full.taint == frozenset({("db.count", ())})
    limited = resolve_path(env, ("db", "count"),
                           mode=TrackingMode.NO_NUMERIC)
    assert limited.text == "7"
    assert limited.taint == EMPTY_TAINT


def test_tainted_expansions_register_exactly_once():
    template = parse_template("{{a}}-{{a}}")
    _, registry, _ = render(template, {"a": "v"}, seed=0)
    assert len(registry) == 2
    sinks = sorted(entry.sink for _, entry in registry.items())
    assert sinks == ["template:0", "template:1"]


# Leaves of every kind resolve_path handles, and paths that hit a leaf,
# a mapping, a missing key or a key below a string leaf.
_LEAVES = st.one_of(st.text(alphabet="ab<>\"'&/ %", max_size=4),
                    st.integers(-1000, 1000), st.floats(width=16),
                    st.booleans())
_ENVS = st.fixed_dictionaries({
    "a": _LEAVES, "b": _LEAVES,
    "n": st.fixed_dictionaries({"x": _LEAVES, "y": _LEAVES}),
})
_PATHS = ("a", "b", "n", "n.x", "n.y", "n.z", "a.x", "gone", "gone.deep")


@st.composite
def _templates(draw):
    """Template source over a few paths and filter chains, so that one
    path comes with several chains and each expansion repeats, written
    with and without spaces."""
    paths = draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3))
    chains = draw(st.lists(st.lists(st.sampled_from(sorted(FILTERS)),
                                    max_size=3),
                           min_size=1, max_size=3))
    pieces = draw(st.lists(
        st.one_of(st.tuples(st.sampled_from(paths), st.sampled_from(chains),
                            st.booleans()),
                  st.text(alphabet="<>\"'= ab/", max_size=4)),
        max_size=20))
    source = []
    for piece in pieces:
        if isinstance(piece, str):
            source.append(piece)
        elif piece[2]:
            source.append("{{ %s }}" % " | ".join([piece[0], *piece[1]]))
        else:
            source.append("{{%s}}" % "|".join([piece[0], *piece[1]]))
    return "".join(source)


@given(_templates(), _ENVS, st.integers(0, 2**64))
def test_render_matches_the_per_node_reference(source, env, seed):
    template = parse_template(source)
    for mode in TrackingMode:
        document, registry, clean = render(template, env, seed=seed,
                                           mode=mode)
        expected, reference, expected_clean = reference_render(
            template, env, seed=seed, mode=mode)
        assert (document, clean) == (expected, expected_clean)
        assert list(registry.items()) == list(reference.items())
