"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from ctxcheck.annotations import SinkRegistry, emit_to_sink, strip_annotations
from ctxcheck.browser import analyze
from ctxcheck.bundle import dump_bundle, load_bundle
from ctxcheck.cli import main
from ctxcheck.decoders import css_unescape, entity_decode, js_string_decode, percent_decode
from ctxcheck.taint import (
    TrackingMode,
    append_sanitizer,
    char_roundtrip,
    concat,
    join,
    make_source,
    merge_taint,
    split,
)
from ctxcheck.template import render
from ctxcheck.verifier import default_context_map, sufficient, verify

from corpus import (
    BUG_PATTERN_CASES,
    CORRECTED_SCRIPT_STRING,
    FLAWED_SCRIPT_STRING,
    SNIPPETS,
    TEMPLATE_CASES,
    build_snippet,
    render_case,
)
from oracles import product_sufficient, random_case, random_context_map, random_token

_MODULE_START = time.monotonic()
CMAP = default_context_map()


def _passed(line: str) -> None:
    print(f"PASS {line}")


def _write_case(tmp_path, case):
    template = tmp_path / f"{case.name}.tpl"
    env = tmp_path / f"{case.name}.env.json"
    template.write_text(case.template, encoding="utf-8")
    env.write_text(json.dumps(case.env), encoding="utf-8")
    return str(template), str(env)


def _run_check(tmp_path, capsys, case):
    template, env = _write_case(tmp_path, case)
    code = main(["check", template, env, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def _case_verdicts(case, seed=0):
    document, registry, _ = render_case(case, seed=seed)
    findings = analyze(document, registry)
    return verify(findings, registry, CMAP)


def test_criterion_1_script_string_fragment_pair(tmp_path, capsys):
    started = time.monotonic()
    code, report = _run_check(tmp_path, capsys, FLAWED_SCRIPT_STRING)
    assert code == 1
    assert report["summary"]["incorrect"] == 1
    assert report["patterns"] == {"HtmlInJsString": 1}
    flaws = [v for v in report["verdicts"] if not v["sufficient"]]
    assert len(flaws) == 1
    assert flaws[0]["context"] == ["HtmlScriptData", "JsStringDq"]
    assert flaws[0]["pattern"] == "HtmlInJsString"

    code, report = _run_check(tmp_path, capsys, CORRECTED_SCRIPT_STRING)
    assert code == 0
    assert report["summary"]["incorrect"] == 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(f"criterion 1: script-string fragment pair ({elapsed:.3f}s)")


def test_criterion_2_bug_pattern_fixture_corpus():
    expected_focal = ["HtmlInUnquotedAttr", "HtmlInJsCode", "HtmlInJsString",
                      "HtmlInCssValue", "HtmlInUri", "HtmlInUri"]
    assert len(BUG_PATTERN_CASES) == 6
    for case, focal in zip(BUG_PATTERN_CASES, expected_focal):
        verdicts = _case_verdicts(case)
        by_sink = {v.triple.sink: v for v in verdicts}
        assert set(by_sink) == set(case.expected), case.name
        for sink, (ok, pattern, context) in case.expected.items():
            verdict = by_sink[sink]
            assert verdict.sufficient == ok, (case.name, sink)
            assert (verdict.pattern.value if verdict.pattern else None) == pattern
            assert tuple(c.value for c in verdict.context) == context
        focal_verdict = by_sink[case.focal_sink]
        assert focal_verdict.pattern.value == focal == case.focal_pattern
    _passed("criterion 2: six mismatch fixtures classify to their patterns")


def test_criterion_3_verifier_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20240817)
    disagreements = 0
    cases = 10_000
    for _ in range(cases):
        cmap = random_context_map(rng)
        chain, context = random_case(rng, cmap)
        if sufficient(chain, context, cmap) != \
                product_sufficient(chain, context, cmap):
            disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 10.0
    _passed(f"criterion 3: {cases} oracle comparisons, "
            f"0 disagreements ({elapsed:.2f}s)")


def _random_record(rng):
    entries = set()
    for _ in range(rng.randint(0, 4)):
        origin = f"o{rng.randint(0, 3)}"
        chain = tuple(rng.choice("hjus") for _ in range(rng.randint(0, 3)))
        entries.add((origin, chain))
    return frozenset(entries)


def test_criterion_4_taint_algebra_properties():
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = (_random_record(rng) for _ in range(3))
        assert merge_taint(a, b) == merge_taint(b, a)
        assert merge_taint(merge_taint(a, b), c) == merge_taint(a, merge_taint(b, c))
        assert merge_taint(a, a) == a
        assert merge_taint(a, frozenset()) == a

    for _ in range(1000):
        a, b = _random_record(rng), _random_record(rng)
        sanitizer = rng.choice("hjus")
        assert append_sanitizer(merge_taint(a, b), sanitizer) == \
            merge_taint(append_sanitizer(a, sanitizer),
                        append_sanitizer(b, sanitizer))

    texts = ["alpha", "a,b,c", "x, y", "", "one,two", "padded , text"]
    for _ in range(1000):
        value = make_source(rng.choice(texts), f"o{rng.randint(0, 3)}")
        expected = set(value.origins)
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            if op == 0:
                other = make_source(rng.choice(texts), f"o{rng.randint(0, 3)}")
                expected |= other.origins
                value = concat(value, other)
            elif op == 1:
                value = char_roundtrip(value, TrackingMode.FULL)
            else:
                value = join(",", split(value, ",", TrackingMode.FULL))
        assert set(value.origins) == expected
    _passed("criterion 4: taint algebra properties, 3x1000 randomized cases")


def test_criterion_5_annotation_round_trip_and_decoder_fixed_point():
    documents = 0
    for case in TEMPLATE_CASES:
        annotated, registry, plain = render_case(case, seed=11)
        assert strip_annotations(annotated, registry) == plain, case.name
        documents += 1
    for snippet in SNIPPETS:
        if callable(snippet.doc):
            continue  # token only appears encoded, not literally
        document, registry, _ = build_snippet(snippet, seed=3)
        assert strip_annotations(document, registry) == snippet.build(""), \
            snippet.name
        documents += 1

    rng = random.Random(5)
    for _ in range(1000):
        token = random_token(rng)
        for decode in (entity_decode, percent_decode, css_unescape,
                       js_string_decode):
            assert decode(token) == token
    _passed(f"criterion 5: round trip on {documents} corpus documents, "
            "decoder fixed point on 1000 tokens")


def test_criterion_6_context_resolution_table():
    # A known gap, a row that names the item that closes it, is a strict
    # expected failure of test_snippet_contexts instead.
    cases = [case for case in SNIPPETS if case.closes is None]
    assert len(cases) >= 20
    names = {case.name for case in cases}
    assert "data-html-nested" in names
    assert "javascript-uri-string" in names
    for case in cases:
        document, registry, token = build_snippet(case, seed=2)
        findings = analyze(document, registry)
        assert len(findings) == 1, case.name
        resolved = tuple(ctx.value for ctx in findings[0].context)
        assert resolved == case.expected, (case.name, resolved)
    _passed(f"criterion 6: {len(cases)} snippets resolve to their "
            "exact context sequences")


def _flagged_through(transform, mode):
    registry = SinkRegistry(seed=0)
    out = ["<p>"]
    for value in transform(mode):
        emit_to_sink(value, "sink:0", out, registry)
    out.append("</p>")
    verdicts = verify(analyze("".join(out), registry), registry, CMAP)
    return any(not v.sufficient for v in verdicts)


def test_criterion_7_tracking_mode_behavior():
    def through_numbers(mode):
        value = make_source("volatile", "db.name")
        return [char_roundtrip(value, mode)]

    def through_split(mode):
        value = make_source("a,b", "get.csv")
        return split(value, ",", mode)

    assert _flagged_through(through_numbers, TrackingMode.FULL)
    assert not _flagged_through(through_numbers, TrackingMode.NO_NUMERIC)
    assert _flagged_through(through_split, TrackingMode.NO_NUMERIC)
    assert not _flagged_through(through_split,
                                TrackingMode.NO_NUMERIC_NO_CONTAINER)
    _passed("criterion 7: numeric and container hops gate flaws by mode")


def test_criterion_8_chunk_equivalence():
    rng = random.Random(13)
    for case in TEMPLATE_CASES:
        document, registry, _ = render_case(case, seed=7)
        base_findings = analyze(document, registry)
        base_verdicts = verify(base_findings, registry, CMAP)
        cuts = {rng.randint(0, len(document)) for _ in range(10)}
        for token in registry.tokens():
            cuts.add(document.find(token) + rng.randint(1, 35))
        points = sorted(cut for cut in cuts if 0 <= cut <= len(document))
        chunks = [document[a:b] for a, b in
                  zip([0, *points], [*points, len(document)])]
        data = dump_bundle(document, registry)
        data["document"] = chunks
        reassembled = load_bundle(data).document
        assert reassembled == document
        findings = analyze(reassembled, registry)
        assert findings == base_findings, case.name
        assert verify(findings, registry, CMAP) == base_verdicts, case.name
    _passed("criterion 8: chunked analysis equals monolithic for all "
            f"{len(TEMPLATE_CASES)} corpus documents")


def test_criterion_9_runtime_budget():
    elapsed = time.monotonic() - _MODULE_START
    assert elapsed < 120.0
    _passed(f"criterion 9: corpus and property suites in {elapsed:.2f}s "
            "(budget 120s)")
