from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxcheck import cli as cli_module
from ctxcheck.annotations import SinkRegistry
from ctxcheck.browser import analyze
from ctxcheck.cli import _report_json, main
from ctxcheck.contexts import BrowserContext, Finding, sequence_names
from ctxcheck.template import parse_template, render
from ctxcheck.verifier import (BugPattern, ReportSummary, SanitizationTriple,
                               Verdict, aggregate, default_context_map, verify)

from corpus import (
    ALL_CORRECT_SHOP,
    CORRECTED_SCRIPT_STRING,
    FLAWED_SCRIPT_STRING,
    HREF_URI,
    JS_CODE_ARGUMENT,
    TEMPLATE_CASES,
)
from oracles import reference_report_dict


def _write_case(tmp_path, case):
    template = tmp_path / f"{case.name}.tpl"
    env = tmp_path / f"{case.name}.env.json"
    template.write_text(case.template, encoding="utf-8")
    env.write_text(json.dumps(case.env), encoding="utf-8")
    return str(template), str(env)


def _check(tmp_path, capsys, case, *extra):
    template, env = _write_case(tmp_path, case)
    code = main(["check", template, env, "--format", "json", *extra])
    report = json.loads(capsys.readouterr().out)
    return code, report


def test_check_flawed_fragment(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, FLAWED_SCRIPT_STRING)
    assert code == 1
    assert report["summary"]["incorrect"] == 1
    assert report["patterns"] == {"HtmlInJsString": 1}
    flaw = [v for v in report["verdicts"] if not v["sufficient"]][0]
    assert flaw["context"] == ["HtmlScriptData", "JsStringDq"]
    assert len(report["findings"]) == 1
    assert report["findings"][0]["token"].startswith("xtnt")
    assert report["findings"][0]["token"] in report["findings"][0]["excerpt"]
    assert report["findings"][0]["token"] not in report["clean_document"]


def test_json_report_is_one_line_with_expected_verdicts(tmp_path, capsys):
    verdict_keys = {"token", "origin", "chain", "sink", "context",
                    "sufficient", "pattern"}
    for case in TEMPLATE_CASES:
        template, env = _write_case(tmp_path, case)
        main(["check", template, env, "--format", "json"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n"), case.name
        report = json.loads(out)
        assert set(report) == {"summary", "findings", "patterns",
                               "verdicts", "clean_document"}
        by_sink = {}
        for verdict in report["verdicts"]:
            assert set(verdict) == verdict_keys
            by_sink.setdefault(verdict["sink"], []).append(
                (verdict["sufficient"], verdict["pattern"],
                 tuple(verdict["context"])))
        # A sink reported in several contexts expects a list of verdicts.
        assert by_sink == {sink: expected if isinstance(expected, list)
                           else [expected]
                           for sink, expected in case.expected.items()}, \
            case.name


def test_render_bundle_stays_indented(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    assert main(["render", template, env]) == 0
    assert capsys.readouterr().out.startswith('{\n  "document": ')


def test_check_corrected_fragment(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, CORRECTED_SCRIPT_STRING)
    assert code == 0
    assert report["summary"]["incorrect"] == 0


def test_check_href_fixture_reports_uri_flaw(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, HREF_URI)
    assert code == 1
    assert report["patterns"] == {"HtmlInUri": 1}


def test_check_js_code_fixture(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, JS_CODE_ARGUMENT)
    assert code == 1
    assert "HtmlInJsCode" in report["patterns"]


def test_check_clean_fixture_exits_zero(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, ALL_CORRECT_SHOP)
    assert code == 0
    assert report["summary"]["correct"] == report["summary"]["sanitizations"] == 4


def test_render_then_analyze_matches_check(tmp_path, capsys):
    # check takes its clean document from the render and analyze strips
    # the bundle's tokens: both paths print the same bytes and write the
    # same --clean-out file.
    bundle_path = tmp_path / "bundle.json"
    checked_clean = tmp_path / "checked.html"
    analyzed_clean = tmp_path / "analyzed.html"
    for case in TEMPLATE_CASES:
        template, env = _write_case(tmp_path, case)
        assert main(["render", template, env, "--seed", "0",
                     "--out", str(bundle_path)]) == 0
        for fmt in ("json", "text"):
            capsys.readouterr()
            check_code = main(["check", template, env, "--seed", "0",
                               "--format", fmt,
                               "--clean-out", str(checked_clean)])
            checked = capsys.readouterr()
            code = main(["analyze", str(bundle_path), "--format", fmt,
                         "--clean-out", str(analyzed_clean)])
            analyzed = capsys.readouterr()
            assert (code, analyzed) == (check_code, checked), (case.name, fmt)
            assert code in (0, 1), case.name
            assert (analyzed_clean.read_bytes()
                    == checked_clean.read_bytes()), (case.name, fmt)


def test_render_is_deterministic_per_seed(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    outputs = []
    for _ in range(2):
        assert main(["render", template, env, "--seed", "9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["render", template, env, "--seed", "10"]) == 0
    assert capsys.readouterr().out != outputs[0]


def test_tokens_come_from_os_entropy_without_a_seed(tmp_path, capsys):
    template, env = _write_case(tmp_path, ALL_CORRECT_SHOP)
    tokens = []
    for _ in range(2):
        assert main(["render", template, env]) == 0
        tokens.append(set(json.loads(capsys.readouterr().out)["registry"]))
    assert tokens[0] and not tokens[0] & tokens[1]
    runs = []
    for index in range(2):
        clean = tmp_path / f"clean{index}.html"
        code = main(["check", template, env, "--format", "json",
                     "--clean-out", str(clean)])
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        runs.append((code, clean.read_bytes(),
                     [{k: v for k, v in verdict.items() if k != "token"}
                      for verdict in verdicts],
                     {verdict["token"] for verdict in verdicts}))
    assert runs[0][:3] == runs[1][:3]
    assert not runs[0][3] & runs[1][3]


def test_json_report_with_shared_contexts_encodes_as_before(tmp_path,
                                                            capsys):
    # Findings that share context sequences and patterns: the report
    # must encode to the text that fresh per-finding lists gave.
    source = ('<p>{{a}}</p><p>{{b}}</p><p>{{a}}</p><a href="{{a}}">x</a>'
              '<a href="{{b}}">y</a><script>var s = "{{a|escapejs}}",'
              ' t = "{{b}}", u = "{{a}}";</script>\n')
    env = {"a": "O'Neil & <co>", "b": 7}
    template_path = tmp_path / "shared.tpl"
    env_path = tmp_path / "shared.env.json"
    template_path.write_text(source, encoding="utf-8")
    env_path.write_text(json.dumps(env), encoding="utf-8")
    assert main(["check", str(template_path), str(env_path), "--format",
                 "json", "--seed", "5"]) == 1
    out = capsys.readouterr().out

    document, registry, clean = render(parse_template(source), env, seed=5)
    findings = analyze(document, registry)
    verdicts = verify(findings, registry, default_context_map())
    summary = aggregate(verdicts)
    expected = json.dumps({
        "summary": {"sanitizations": summary.sanitizations,
                    "correct": summary.correct,
                    "incorrect": summary.incorrect},
        "findings": [{"token": f.token,
                      "context": sequence_names(f.context),
                      "excerpt": f.excerpt} for f in findings],
        "patterns": {pattern.value: count
                     for pattern, count in summary.pattern_counts.items()},
        "verdicts": [{"token": v.token, "origin": v.triple.origin,
                      "chain": list(v.triple.chain), "sink": v.triple.sink,
                      "context": sequence_names(v.context),
                      "sufficient": v.sufficient,
                      "pattern": v.pattern.value if v.pattern else None}
                     for v in verdicts],
        "clean_document": clean,
    })
    assert len({f.context for f in findings}) < len(findings)
    assert out == expected + "\n"


# Text that json escapes in every way it can: quotes, backslashes, C0
# controls, DEL, the line and paragraph separators, lone surrogates and
# characters outside the BMP, among any others.
_AWKWARD_TEXT = st.text(st.one_of(st.sampled_from([
    '"', "\\", "/", "\x7f", "\u2028", "\u2029", "\ud800", "\udbff", "\udc00",
    "\udfff", "\U00010000", "\U0001f600", "\U0010ffff",
    *map(chr, range(0x20))]), st.characters()), max_size=12)
_TOKENS = st.integers(0, (1 << 128) - 1).map("xtnt%032x".__mod__)
_COUNTS = st.integers(0, 1 << 40)


@st.composite
def _reports(draw):
    """Findings, verdicts on their contexts, a summary and a document."""
    findings = draw(st.lists(st.builds(
        Finding, _TOKENS,
        st.lists(st.sampled_from(BrowserContext), max_size=3).map(tuple),
        _AWKWARD_TEXT), max_size=4))
    verdicts = draw(st.lists(st.builds(
        Verdict, _TOKENS,
        st.builds(SanitizationTriple, _AWKWARD_TEXT,
                  st.lists(_AWKWARD_TEXT, max_size=3).map(tuple),
                  _AWKWARD_TEXT),
        st.sampled_from([f.context for f in findings]),
        st.one_of(st.none(), st.sampled_from(BugPattern))),
        max_size=4)) if findings else []
    summary = draw(st.builds(
        ReportSummary, _COUNTS, _COUNTS, _COUNTS,
        st.dictionaries(st.sampled_from(BugPattern), _COUNTS)))
    return findings, verdicts, summary, draw(_AWKWARD_TEXT)


# One verdict per bug pattern, one sufficient, and every pattern counted.
_EVERY_PATTERN = (
    [Finding("xtnt" + "0" * 32, (BrowserContext.HtmlText,), "\ud800\"")],
    [Verdict("xtnt" + "0" * 32, SanitizationTriple("o", ("s",), "k"),
             (BrowserContext.HtmlText,), pattern)
     for pattern in (None, *BugPattern)],
    ReportSummary(8, 1, 7, dict.fromkeys(BugPattern, 1)), "")


@settings(max_examples=150, deadline=None)
@given(_reports())
@example(_EVERY_PATTERN)
@example(([], [], ReportSummary(0, 0, 0, {}), ""))
def test_json_report_is_the_text_json_dumps_writes(report):
    """The report writer's parts, joined, give byte for byte what
    json.dumps gives for the same report as dicts and lists."""
    expected = json.dumps(reference_report_dict(*report), check_circular=False)
    assert "".join(_report_json(*report)) == expected


def test_render_literals_only_has_empty_registry(tmp_path, capsys):
    template = tmp_path / "static.tpl"
    template.write_text("<p>static</p>", encoding="utf-8")
    env = tmp_path / "env.json"
    env.write_text("{}", encoding="utf-8")
    assert main(["render", str(template), str(env)]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert bundle["registry"] == {}


def test_clean_out_matches_annotation_free_render(tmp_path, capsys):
    from corpus import render_case

    template, env = _write_case(tmp_path, HREF_URI)
    clean_path = tmp_path / "clean.html"
    main(["check", template, env, "--clean-out", str(clean_path),
          "--format", "json"])
    capsys.readouterr()
    _, _, plain = render_case(HREF_URI, seed=0)
    assert clean_path.read_text(encoding="utf-8") == plain


def test_check_clean_document_keeps_a_value_that_spells_a_seeded_token(
        tmp_path, capsys):
    # The value spells the token --seed 0 gives its sink.  The page
    # without annotations holds the value as written; stripping every
    # registered occurrence wrote <p></p>.
    token = SinkRegistry(seed=0).new_token()
    template = tmp_path / "page.tpl"
    env = tmp_path / "env.json"
    clean_path = tmp_path / "clean.html"
    template.write_text("<p>{{q}}</p>", encoding="utf-8")
    env.write_text(json.dumps({"q": token}), encoding="utf-8")
    assert main(["check", str(template), str(env), "--seed", "0",
                 "--format", "json", "--clean-out", str(clean_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert clean_path.read_text(encoding="utf-8") == f"<p>{token}</p>"
    assert report["clean_document"] == f"<p>{token}</p>"


def test_analyze_chunked_bundle_equals_monolithic(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    main(["render", template, env, "--out", str(bundle_path)])
    data = json.loads(bundle_path.read_text(encoding="utf-8"))
    main(["analyze", str(bundle_path), "--format", "json"])
    monolithic = json.loads(capsys.readouterr().out)

    document = data["document"]
    data["document"] = [document[:15], document[15:16], document[16:]]
    chunked_path = tmp_path / "chunked.json"
    chunked_path.write_text(json.dumps(data), encoding="utf-8")
    main(["analyze", str(chunked_path), "--format", "json"])
    chunked = json.loads(capsys.readouterr().out)
    assert chunked == monolithic


def test_analyze_rejects_unknown_sanitizer_id(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    main(["render", template, env, "--out", str(bundle_path)])
    data = json.loads(bundle_path.read_text(encoding="utf-8"))
    entry = next(iter(data["registry"].values()))
    entry["taints"][0]["chain"] = ["made_up_filter"]
    bundle_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(bundle_path)]) == 2
    assert "made_up_filter" in capsys.readouterr().err


def test_analyze_missing_token_is_operational_error(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    main(["render", template, env, "--out", str(bundle_path)])
    data = json.loads(bundle_path.read_text(encoding="utf-8"))
    token = next(iter(data["registry"]))
    data["document"] = data["document"].replace(token, "")
    bundle_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(bundle_path)]) == 2


def test_analyze_nested_token_is_operational_error(tmp_path, capsys):
    # `outer` occurs once on its own and once split around `inner`;
    # stripping both leaves a second `outer` behind.
    outer = "xtnt" + "a" * 32
    inner = "xtnt" + "b" * 32
    taints = [{"origin": "get.q", "chain": []}]
    bundle = {
        "document": f"<p>{outer}</p><p>{outer[:9]}{inner}{outer[9:]}</p>",
        "registry": {inner: {"sink": "page:1", "taints": taints},
                     outer: {"sink": "page:0", "taints": taints}},
    }
    bundle_path = tmp_path / "nested.json"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(["analyze", str(bundle_path)]) == 2
    assert outer in capsys.readouterr().err


def test_analyze_deeply_nested_data_uris_reports_unknown(tmp_path, capsys):
    # 300 nested data: URIs used to end in a RecursionError traceback
    # and exit code 1, which is the "flaw found" code.
    token = "xtnt" + "c" * 32
    bundle = {
        "document": "<iframe/src=data:text/html," * 300 + token,
        "registry": {token: {"sink": "page:0", "taints": [
            {"origin": "get.q", "chain": ["html_escape"]}]}},
    }
    bundle_path = tmp_path / "deep.json"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(["analyze", str(bundle_path), "--format", "json"]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [f["context"][-1] for f in findings] == ["Unknown"]


def test_analyze_long_safe_chain_reports_no_sanitization(tmp_path, capsys):
    # A chain of 1,000 safe ids used to exhaust the recursion limit in the
    # verifier: a traceback and exit code 1, the "flaw found" code.
    token = "xtnt" + "d" * 32
    bundle = {
        "document": f"<p>{token}</p>",
        "registry": {token: {"sink": "page:0", "taints": [
            {"origin": "get.q", "chain": ["safe"] * 1000}]}},
    }
    bundle_path = tmp_path / "long_chain.json"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(["analyze", str(bundle_path), "--format", "json"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["pattern"] for v in verdicts] == ["NoSanitization"]


def test_exit_code_two_on_template_syntax_error(tmp_path, capsys):
    template = tmp_path / "broken.tpl"
    template.write_text("{{", encoding="utf-8")
    env = tmp_path / "env.json"
    env.write_text("{}", encoding="utf-8")
    assert main(["check", str(template), str(env)]) == 2
    assert "error：" not in capsys.readouterr().err  # message goes to stderr


def test_exit_code_two_on_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_exit_code_three_on_an_internal_error(tmp_path, capsys, monkeypatch):
    # A bug in ctxcheck used to end in a traceback and exit code 1, the
    # "flaw found" code; it exits 3, with the traceback on stderr.
    def broken(document, registry):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "analyze", broken)
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    assert main(["check", template, env]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "error: internal error: RuntimeError('boom')"
    assert lines[1] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: boom"


def test_contexts_lists_sequences(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    main(["render", template, env, "--out", str(bundle_path)])
    capsys.readouterr()
    assert main(["contexts", str(bundle_path)]) == 0
    out = capsys.readouterr().out
    assert "(HtmlScriptData, JsStringDq)" in out
    assert out.strip().startswith("xtnt")


def test_contexts_on_handwritten_bundle(tmp_path, capsys):
    text_token = "xtnt" + "0" * 32
    data_token = "xtnt" + "1" * 32
    bundle = {
        "document": (
            f"<p>{text_token}</p>"
            f'<iframe src="data:text/html,<b>{data_token}</b>">'
        ),
        "registry": {
            text_token: {"sink": "page:0", "taints": [
                {"origin": "get.q", "chain": []}]},
            data_token: {"sink": "page:1", "taints": [
                {"origin": "get.u", "chain": ["html_escape"]}]},
        },
    }
    bundle_path = tmp_path / "handmade.json"
    bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
    assert main(["contexts", str(bundle_path)]) == 0
    out = capsys.readouterr().out
    assert f"{text_token}\t(HtmlText)" in out
    assert f"{data_token}\t(HtmlAttrDq, Uri, HtmlText)" in out


def test_custom_context_map_changes_verdicts(tmp_path, capsys):
    # A permissive map that blesses html_escape inside script strings
    # turns the flawed fixture green.
    cmap = {
        "html_escape": [[], ["HtmlText"], ["HtmlAttrDq"], ["HtmlAttrSq"],
                        ["HtmlScriptData", "JsStringDq"]],
        "js_escape": [["JsStringDq"], ["JsStringSq"]],
        "url_encode": [["Uri"]],
        "safe": [[]],
    }
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(cmap), encoding="utf-8")
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    assert main(["check", template, env, "--context-map", str(map_path)]) == 0
    capsys.readouterr()


def test_parser_reuse_carries_nothing_between_calls(tmp_path, capsys):
    # The parser is built once per process; options given to one call
    # must not become the defaults of the next.
    cmap = {"html_escape": [[], ["HtmlScriptData", "JsStringDq"]],
            "safe": [[]]}
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(cmap), encoding="utf-8")
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    assert main(["check", template, env, "--format", "json",
                 "--context-map", str(map_path)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["incorrect"] == 0
    assert main(["check", template, env]) == 1
    out = capsys.readouterr().out
    assert out.startswith("sanitizations:")
    assert "HTML escaping in JavaScript string" in out


def test_exit_code_two_on_input_that_is_not_utf8(tmp_path, capsys):
    # A UnicodeDecodeError used to end in a traceback and exit code 1,
    # the "flaw found" code.
    not_utf8 = tmp_path / "bad"
    not_utf8.write_bytes(b"\xff")
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    for argv in (["analyze", str(not_utf8)],
                 ["check", str(not_utf8), env],
                 ["check", template, env, "--context-map", str(not_utf8)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_exit_code_two_on_deeply_nested_json(tmp_path, capsys):
    # json.load raises RecursionError on deep nesting, and ValueError on
    # an integer of more than 4,300 digits; each used to end in a
    # traceback and exit code 1, the "flaw found" code.
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    for name, text in (("nested.json", "[" * 200_000 + "]" * 200_000),
                       ("long.json", '{"a": ' + "9" * 5000 + "}")):
        hostile = tmp_path / name
        hostile.write_text(text, encoding="utf-8")
        for argv in (["analyze", str(hostile)],
                     ["check", template, str(hostile)],
                     ["check", template, env, "--context-map", str(hostile)]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv


def test_report_counts_match_verdict_recount(tmp_path, capsys):
    code, report = _check(tmp_path, capsys, JS_CODE_ARGUMENT)
    assert code == 1
    triples = {(v["origin"], tuple(v["chain"]), v["sink"])
               for v in report["verdicts"]}
    flawed = {(v["origin"], tuple(v["chain"]), v["sink"])
              for v in report["verdicts"] if not v["sufficient"]}
    assert report["summary"]["sanitizations"] == len(triples)
    assert report["summary"]["incorrect"] == len(flawed)
    assert report["summary"]["correct"] == len(triples) - len(flawed)
    assert sum(report["patterns"].values()) == len(flawed)


def test_exit_code_two_on_malformed_bundle_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_two_on_malformed_env_and_map_json_names_the_file(
        tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    for argv, name in ((["check", template, str(bad)], "environment file"),
                       (["check", template, env, "--context-map", str(bad)],
                        "context map")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"error: {name} is not valid JSON: "), \
            argv


def test_exit_code_two_on_invalid_context_map(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bad_map = tmp_path / "map.json"
    for cmap in ({"x": [["Unknown"]]}, {"x": [[["HtmlText"]]]},
                 {"x": [[{"a": 1}]]}):
        bad_map.write_text(json.dumps(cmap), encoding="utf-8")
        assert main(["check", template, env,
                     "--context-map", str(bad_map)]) == 2, cmap
        assert "error:" in capsys.readouterr().err


def test_text_format_report(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    code = main(["check", template, env])
    out = capsys.readouterr().out
    assert code == 1
    assert "incorrect: 1" in out
    assert "HTML escaping in JavaScript string" in out
    assert "FLAW" in out


def test_exit_code_two_on_a_lone_surrogate_in_the_output(tmp_path, capsys):
    # JSON input can hold "\ud800", which has no UTF-8 form: writing the
    # clean document or the text report raised UnicodeEncodeError, a
    # traceback and exit code 1, the "flaw found" code.
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    main(["render", template, env, "--out", str(bundle_path)])
    data = json.loads(bundle_path.read_text(encoding="utf-8"))
    clean_out = tmp_path / "clean.html"

    in_document = tmp_path / "document.json"
    in_document.write_text(
        json.dumps({**data, "document": data["document"] + "\ud800"}),
        encoding="utf-8")
    surrogate_env = tmp_path / "surrogate.env.json"
    surrogate_env.write_text(
        json.dumps({"request": {"POST": {"query": "\ud800"}}}),
        encoding="utf-8")
    in_sink = tmp_path / "sink.json"
    entry = next(iter(data["registry"].values()))
    entry["sink"] = "page:\ud800"
    in_sink.write_text(json.dumps(data), encoding="utf-8")

    for argv in (["analyze", str(in_document), "--clean-out", str(clean_out)],
                 ["check", template, str(surrogate_env),
                  "--clean-out", str(clean_out)],
                 ["analyze", str(in_sink)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert not clean_out.exists(), argv
    # The JSON report escapes the surrogate and stays valid.
    assert main(["analyze", str(in_sink), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {v["sink"] for v in report["verdicts"]} == {"page:\ud800"}


# Text of any code point, lone surrogates included, which JSON input
# may escape, and often of a surrogate or a character markup reads.
_ANY_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from("\ud800<>&'\"\\"), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_ANY_TEXT, inner, max_size=3),
    max_leaves=12)
_FUZZ_TOKENS = tuple(SinkRegistry(seed=6).new_token() for _ in range(3))
# The sanitizer ids the default map knows, and one it does not.
_SANITIZER_IDS = st.sampled_from(
    ("html_escape", "js_escape", "url_encode", "safe", "unknown"))
_DOCUMENT_PIECES = st.sampled_from((
    *_FUZZ_TOKENS, "<script>var s='", "';</script>", "<style>a{b:",
    "}</style>", '<a href="', "javascript:", "data:text/html,", '">',
    "<a onclick=", "<!--", "-->", "&amp;", "%27", "url(", ")", "<p>", " "))
_NAMES = st.text(min_size=1, max_size=6)
_ENTRIES = st.fixed_dictionaries({"sink": _NAMES, "taints": st.lists(
    st.fixed_dictionaries({"origin": _NAMES,
                           "chain": st.lists(_SANITIZER_IDS, max_size=3)}),
    min_size=1, max_size=2)})


@st.composite
def _bundles(draw):
    """A bundle whose registry holds the tokens its document holds, each
    with a well-formed or an arbitrary entry, and maybe one more key."""
    pieces = draw(st.lists(_DOCUMENT_PIECES | _ANY_TEXT, max_size=12))
    registry = draw(st.fixed_dictionaries(
        {piece: _ENTRIES | _JSON_VALUES
         for piece in pieces if piece in _FUZZ_TOKENS},
        optional={draw(_ANY_TEXT): _ENTRIES}))
    document = draw(st.sampled_from(("".join(pieces), pieces)))
    return {"document": document, "registry": registry}


_BUNDLES = _bundles() | _JSON_VALUES
_ENVS = _JSON_VALUES | st.fixed_dictionaries(
    {"a": _JSON_VALUES, "b": _JSON_VALUES | st.fixed_dictionaries(
        {"c": _JSON_VALUES})})
_CONTEXT_NAMES = st.sampled_from([c.value for c in BrowserContext]) | _ANY_TEXT
_MAPS = _JSON_VALUES | st.dictionaries(
    _SANITIZER_IDS | _ANY_TEXT,
    st.lists(st.lists(_CONTEXT_NAMES, max_size=3), max_size=3), max_size=4)
_FUZZ_TEMPLATE = ('<a href="{{a|urlencode}}" onclick="f(\'{{b|escapejs}}\')">'
                  "{{a}}</a><style>p{x:{{b.c}}}</style><script>{{b.c|safe}}"
                  "</script>")


@settings(max_examples=150, deadline=None)
@given(_BUNDLES, _ENVS, _MAPS, st.booleans(), st.sampled_from(("json", "text")),
       st.sampled_from((None, None, "bundle", "env", "map")),
       st.floats(min_value=0, max_value=1))
def test_any_json_input_exits_zero_one_or_two(bundle, env, cmap, use_map, fmt,
                                              truncated, keep):
    """Whatever JSON the bundle, environment and context map files hold,
    and with one of them sometimes cut short, every subcommand returns
    0, 1 or 2 and raises nothing, and prints nothing on standard output
    when it returns 2.  Output goes to UTF-8 text streams with the error
    handlers of a UTF-8 terminal: strict for standard output,
    backslashreplace for standard error."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in (("bundle", bundle), ("env", env), ("map", cmap),
                           ("template", None)):
            paths[name] = os.path.join(tmp, name)
            text = _FUZZ_TEMPLATE if name == "template" else json.dumps(data)
            if name == truncated:
                text = text[:int(len(text) * keep)]
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        options = ["--format", fmt, "--clean-out", os.path.join(tmp, "clean")]
        if use_map:
            options += ["--context-map", paths["map"]]
        for argv in (["analyze", paths["bundle"], *options],
                     ["contexts", paths["bundle"]],
                     ["check", paths["template"], paths["env"], *options],
                     ["render", paths["template"], paths["env"],
                      "--out", os.path.join(tmp, "out")]):
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                   errors="backslashreplace")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            out.flush()
            assert code != 2 or out.buffer.getvalue() == b"", argv
