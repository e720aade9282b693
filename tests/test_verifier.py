from __future__ import annotations

import json
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcheck.annotations import SinkRegistry
from ctxcheck.contexts import BrowserContext as C
from ctxcheck.contexts import Finding, sequence_from_names
from ctxcheck.verifier import (
    BugPattern,
    ContextMapError,
    SanitizationTriple,
    UnknownSanitizer,
    Verdict,
    aggregate,
    classify,
    default_context_map,
    load_context_map,
    sufficient,
    validate_context_map,
    verify,
)

from oracles import product_sufficient, random_case, random_context_map

CMAP = default_context_map()


def test_empty_chain_handles_only_empty_sequence():
    assert sufficient((), (), CMAP)
    assert not sufficient((), (C.HtmlText,), CMAP)


def test_html_escape_alone_fails_in_script_string():
    assert not sufficient(("html_escape",), (C.HtmlScriptData, C.JsStringDq), CMAP)


def test_html_then_js_escape_succeeds_in_script_string():
    assert sufficient(("html_escape", "js_escape"),
                      (C.HtmlScriptData, C.JsStringDq), CMAP)


def test_html_escape_handles_text():
    assert sufficient(("html_escape",), (C.HtmlText,), CMAP)


def test_chain_order_matters_in_attr_event_handler():
    context = (C.HtmlAttrDq, C.JsStringSq)
    assert sufficient(("js_escape", "html_escape"), context, CMAP)
    assert not sufficient(("html_escape", "js_escape"), context, CMAP)


def test_unknown_sanitizer_raises():
    with pytest.raises(UnknownSanitizer):
        sufficient(("nonexistent",), (C.HtmlText,), CMAP)


def test_default_map_contents():
    assert (C.HtmlText,) in CMAP["html_escape"]
    assert CMAP["safe"] == frozenset({()})
    for sequences in CMAP.values():
        for sequence in sequences:
            assert C.CssDeclValue not in sequence
            assert C.HtmlAttrUnq not in sequence
            assert C.Unknown not in sequence
            assert C.UriScriptSrc not in sequence


def test_url_encode_then_autoescape_covers_href():
    assert sufficient(("url_encode", "html_escape"), (C.HtmlAttrDq, C.Uri), CMAP)


def test_classify_examples():
    assert classify(("html_escape",), (C.HtmlScriptData, C.JsCode)) == \
        BugPattern.HtmlInJsCode
    assert classify(("safe",), (C.HtmlText,)) == BugPattern.NoSanitization
    assert classify(("html_escape",), (C.HtmlAttrUnq,)) == \
        BugPattern.HtmlInUnquotedAttr
    assert classify((), (C.HtmlText,)) == BugPattern.NoSanitization
    assert classify(("html_escape",), (C.HtmlAttrDq, C.Uri)) == BugPattern.HtmlInUri
    assert classify(("html_escape",), (C.HtmlAttrDq, C.CssDeclValue)) == \
        BugPattern.HtmlInCssValue
    assert classify(("js_escape",), (C.HtmlText,)) == BugPattern.OtherMismatch


def test_classify_is_total_on_insufficient_inputs():
    chains = [(), ("safe",), ("html_escape",), ("js_escape", "html_escape"),
              ("url_encode",)]
    contexts = [(ctx,) for ctx in C] + [(C.HtmlScriptData, ctx) for ctx in C]
    for chain in chains:
        for context in contexts:
            if sufficient(chain, context, CMAP):
                continue
            assert isinstance(classify(chain, context), BugPattern)


def _finding_registry(entries, context):
    registry = SinkRegistry(seed=0)
    token = registry.register_all([frozenset(entries)], ["sink:0"])[0]
    return [Finding(token, context)], registry


def test_verify_flags_html_escape_in_uri():
    findings, registry = _finding_registry(
        {("a", ("html_escape",))}, (C.HtmlAttrDq, C.Uri))
    verdicts = verify(findings, registry, CMAP)
    assert len(verdicts) == 1
    assert not verdicts[0].sufficient
    assert verdicts[0].pattern == BugPattern.HtmlInUri


def test_verify_emits_one_verdict_per_taint_entry():
    findings, registry = _finding_registry(
        {("a", ("html_escape",)), ("b", ())}, (C.HtmlText,))
    verdicts = verify(findings, registry, CMAP)
    assert len(verdicts) == 2
    by_origin = {v.triple.origin: v for v in verdicts}
    assert by_origin["a"].sufficient
    assert not by_origin["b"].sufficient
    assert by_origin["b"].pattern == BugPattern.NoSanitization


def test_verify_empty_findings():
    assert verify([], SinkRegistry(seed=0), CMAP) == []


def test_verify_deduplicates_by_triple_and_context():
    registry = SinkRegistry(seed=0)
    token = registry.register_all([frozenset({("a", ())})], ["sink:0"])[0]
    findings = [Finding(token, (C.HtmlText,)), Finding(token, (C.HtmlText,))]
    assert len(verify(findings, registry, CMAP)) == 1


def test_verify_decides_each_chain_and_context_pair_once(monkeypatch):
    calls = []

    def counting(chain, context, cmap):
        calls.append((chain, context))
        return sufficient(chain, context, cmap)

    monkeypatch.setattr("ctxcheck.verifier.sufficient", counting)
    rng = random.Random(4)
    chains = [(), ("html_escape",), ("js_escape", "html_escape")]
    contexts = [(C.HtmlText,), (C.HtmlAttrDq, C.Uri),
                (C.HtmlScriptData, C.JsStringDq)]
    registry = SinkRegistry(seed=0)
    findings = []
    for i in range(60):
        taint = frozenset({(f"o{i % 5}", rng.choice(chains))})
        token = registry.register_all([taint], [f"s{i % 7}"])[0]
        findings.append(Finding(token, rng.choice(contexts)))
    verdicts = verify(findings, registry, CMAP)
    assert len(calls) == len(set(calls))
    assert {(v.triple.chain, v.context) for v in verdicts} == set(calls)
    for v in verdicts:
        ok = sufficient(v.triple.chain, v.context, CMAP)
        assert v.sufficient == ok
        assert v.pattern == (None if ok else classify(v.triple.chain, v.context))


def test_verdict_is_sufficient_exactly_when_it_has_no_pattern():
    triple = SanitizationTriple("o", ("html_escape",), "s")
    assert Verdict("xtnt" + "0" * 32, triple, (C.HtmlText,),
                   pattern=None).sufficient is True
    assert Verdict("xtnt" + "0" * 32, triple, (C.HtmlAttrDq, C.Uri),
                   pattern=BugPattern.HtmlInUri).sufficient is False


def test_unknown_and_script_src_contexts_never_verify():
    for chain in [(), ("html_escape",), ("html_escape", "js_escape"),
                  ("url_encode", "html_escape")]:
        assert not sufficient(chain, (C.Unknown,), CMAP)
        assert not sufficient(chain, (C.HtmlAttrDq, C.UriScriptSrc), CMAP)


def test_appending_safe_never_changes_the_outcome():
    rng = random.Random(9)
    contexts = [(), (C.HtmlText,), (C.HtmlAttrDq, C.Uri),
                (C.HtmlScriptData, C.JsStringDq), (C.Unknown,)]
    chains = [(), ("html_escape",), ("url_encode",),
              ("html_escape", "js_escape")]
    for _ in range(200):
        chain = rng.choice(chains)
        context = rng.choice(contexts)
        for run in (1, 5000):
            with_safe = chain + ("safe",) * run
            assert sufficient(chain, context, CMAP) == \
                sufficient(with_safe, context, CMAP)


def test_empty_chain_insufficient_for_every_nonempty_context():
    for ctx in C:
        assert not sufficient((), (ctx,), CMAP)


def test_double_html_escape_allowed_where_single_is():
    assert sufficient(("html_escape", "html_escape"), (C.HtmlText,), CMAP)


def test_sufficient_agrees_with_product_oracle():
    rng = random.Random(1234)
    for _ in range(2000):
        cmap = random_context_map(rng)
        chain, context = random_case(rng, cmap)
        assert sufficient(chain, context, cmap) == \
            product_sufficient(chain, context, cmap), (chain, context, cmap)


def test_aggregate_counts_unique_triples():
    # The same origin and chain reaching two distinct sinks makes two
    # triples; the same triple seen twice stays one.
    registry = SinkRegistry(seed=0)
    tok1, tok2 = registry.register_all(
        [frozenset({("a", ("html_escape",))})] * 2, ["s1", "s2"])
    findings = [Finding(tok1, (C.HtmlAttrDq, C.Uri)),
                Finding(tok2, (C.HtmlAttrDq, C.Uri)),
                Finding(tok2, (C.HtmlAttrDq, C.Uri))]
    verdicts = verify(findings, registry, CMAP)
    summary = aggregate(verdicts)
    assert summary.incorrect == 2
    assert summary.correct == 0
    assert summary.sanitizations == 2
    assert summary.pattern_counts == {BugPattern.HtmlInUri: 2}
    assert {v.triple for v in verdicts} == {
        SanitizationTriple("a", ("html_escape",), "s1"),
        SanitizationTriple("a", ("html_escape",), "s2"),
    }


def test_aggregate_partitions_triples():
    registry = SinkRegistry(seed=0)
    good, bad = registry.register_all(
        [frozenset({("a", ("html_escape",))}), frozenset({("b", ())})],
        ["s1", "s2"])
    findings = [Finding(good, (C.HtmlText,)), Finding(bad, (C.HtmlText,))]
    summary = aggregate(verify(findings, registry, CMAP))
    assert summary.correct + summary.incorrect == summary.sanitizations == 2


def test_validate_rejects_unknown_context_in_map():
    with pytest.raises(ContextMapError):
        validate_context_map({"x": frozenset({(C.Unknown,)})})
    with pytest.raises(ContextMapError):
        validate_context_map({"x": frozenset({(C.UriScriptSrc,)})})


def test_load_context_map_round_trip(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({
        "strip_tags": [["HtmlText"], []],
        "css_escape": [["HtmlAttrDq", "CssDeclValue"]],
    }), encoding="utf-8")
    cmap = load_context_map(path)
    assert cmap["strip_tags"] == frozenset({(C.HtmlText,), ()})
    assert sufficient(("css_escape",), (C.HtmlAttrDq, C.CssDeclValue), cmap)
    # Contexts and patterns hash by identity; members that come back
    # from names, values and pickles are the same objects, so they
    # still find their dict entries.
    assert (sequence_from_names(["HtmlAttrDq", "CssDeclValue"])
            in cmap["css_escape"])
    by_sequence = {sequence: index
                   for index, sequence in enumerate(sorted(
                       cmap["strip_tags"], key=len))}
    assert by_sequence[sequence_from_names(["HtmlText"])] == 1
    names = [ctx.value for ctx in C]
    by_context = {ctx: ctx.value for ctx in C}
    assert [by_context[ctx] for ctx in sequence_from_names(names)] == names
    assert pickle.loads(pickle.dumps(tuple(C))) in {tuple(C): True}
    by_pattern = {pattern: pattern.value for pattern in BugPattern}
    for pattern in BugPattern:
        for same in (BugPattern(pattern.value), BugPattern[pattern.name],
                     pickle.loads(pickle.dumps(pattern))):
            assert by_pattern[same] == pattern.value


def test_load_context_map_rejects_bad_names(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"x": [["NoSuchContext"]]}), encoding="utf-8")
    with pytest.raises(ContextMapError):
        load_context_map(path)


# Sanitizer ids a map may lack, and contexts of any kind, Unknown too;
# a map's handled sequences are only those validate_context_map allows.
_IDS = st.sampled_from(("html_escape", "js_escape", "s0", "s1", "missing"))
_HANDLED = st.lists(st.sampled_from(
    [c for c in C if c not in (C.Unknown, C.UriScriptSrc)]), max_size=2)
_MAPS = st.dictionaries(_IDS, st.frozensets(_HANDLED.map(tuple), max_size=3),
                        max_size=4).map(validate_context_map)
_CONTEXTS = st.lists(st.sampled_from(list(C)), max_size=4).map(tuple)
_TAINTS = st.frozensets(st.tuples(st.sampled_from("ab"),
                                  st.lists(_IDS, max_size=3).map(tuple)),
                        min_size=1, max_size=3)


@st.composite
def _verifier_inputs(draw):
    """A map, a registry of any taints and sinks, and findings of its
    tokens in any contexts, a token in several or none."""
    registry = SinkRegistry(seed=draw(st.integers(0, 2 ** 32)))
    taints = draw(st.lists(_TAINTS, min_size=1, max_size=4))
    tokens = registry.register_all(
        taints, [draw(st.sampled_from(("p:0", "p:1"))) for _ in taints])
    findings = [Finding(token, context, token) for token, context in draw(
        st.lists(st.tuples(st.sampled_from(tokens), _CONTEXTS), max_size=6))]
    return findings, registry, draw(_MAPS)


@settings(max_examples=300, deadline=None)
@given(_verifier_inputs())
def test_verify_and_aggregate_hold_on_any_input(case):
    """verify returns, or raises UnknownSanitizer for an id the map
    lacks; a verdict names a pattern exactly when the brute-force oracle
    finds its chain insufficient, each (triple, context) has one verdict
    and every one has a verdict, and aggregate partitions the triples."""
    findings, registry, cmap = case
    pairs = {(SanitizationTriple(origin, chain, registry[f.token].sink),
              f.context)
             for f in findings for origin, chain in registry[f.token].taint}
    unknown = {s for triple, _ in pairs for s in triple.chain} - set(cmap)
    try:
        verdicts = verify(findings, registry, cmap)
    except UnknownSanitizer as exc:
        assert exc.sanitizer in unknown
        return
    assert not unknown
    keys = [(v.triple, v.context) for v in verdicts]
    assert len(keys) == len(set(keys)) and set(keys) == pairs
    for v in verdicts:
        assert (v.pattern is None) == product_sufficient(
            v.triple.chain, v.context, cmap)
    summary = aggregate(verdicts)
    assert summary.correct + summary.incorrect == summary.sanitizations
    assert summary.sanitizations == len({triple for triple, _ in pairs})
    flagged = {(v.triple, v.pattern) for v in verdicts if v.pattern}
    assert summary.incorrect == len({triple for triple, _ in flagged})
    assert summary.pattern_counts == Counter(p for _, p in flagged)
