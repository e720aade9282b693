from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxcheck.taint import EMPTY_TAINT, TrackingMode
from ctxcheck.template import (
    FILTERS,
    Expansion,
    Literal,
    TemplateSyntaxError,
    parse_template,
    render,
    resolve_path,
)

from oracles import reference_render


def test_parse_literal_and_expansion():
    template = parse_template("a {{x}} b")
    assert template.nodes == (
        Literal("a "),
        Expansion(("x",), (), "template:0", "{{x}}"),
        Literal(" b"),
    )


def test_parse_filter_chain():
    template = parse_template("{{request.POST.query | escape | escapejs}}")
    node = template.nodes[0]
    assert node.path == ("request", "POST", "query")
    assert node.filters == ("escape", "escapejs")
    assert node.site == "template:0"


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


def test_template_round_trips_to_source():
    source = "a {{ x | escape }} b {{y}} c"
    assert "".join(node.text if isinstance(node, Literal) else node.raw
                   for node in parse_template(source).nodes) == source


def test_sink_ids_are_ordinals():
    template = parse_template("{{a}} {{b}} {{c}}")
    sites = [n.site for n in template.nodes if isinstance(n, Expansion)]
    assert sites == ["template:0", "template:1", "template:2"]


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
