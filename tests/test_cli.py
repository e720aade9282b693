from __future__ import annotations

import json

from ctxcheck.cli import main

from corpus import (
    ALL_CORRECT_SHOP,
    CORRECTED_SCRIPT_STRING,
    FLAWED_SCRIPT_STRING,
    HREF_URI,
    JS_CODE_ARGUMENT,
    TEMPLATE_CASES,
)


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
            by_sink[verdict["sink"]] = (verdict["sufficient"],
                                        verdict["pattern"],
                                        tuple(verdict["context"]))
        assert by_sink == case.expected, case.name


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
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bundle_path = tmp_path / "bundle.json"
    assert main(["render", template, env, "--out", str(bundle_path)]) == 0
    capsys.readouterr()
    code = main(["analyze", str(bundle_path), "--format", "json"])
    analyzed = json.loads(capsys.readouterr().out)
    check_code, checked = _check(tmp_path, capsys, FLAWED_SCRIPT_STRING)
    assert code == check_code == 1
    assert analyzed["summary"] == checked["summary"]


def test_render_is_deterministic_per_seed(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    outputs = []
    for _ in range(2):
        assert main(["render", template, env, "--seed", "9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(["render", template, env, "--seed", "10"]) == 0
    assert capsys.readouterr().out != outputs[0]


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
    plain, _ = render_case(HREF_URI, seed=0, annotate=False)
    assert clean_path.read_text(encoding="utf-8") == plain


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


def test_exit_code_two_on_invalid_context_map(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    bad_map = tmp_path / "map.json"
    bad_map.write_text(json.dumps({"x": [["Unknown"]]}), encoding="utf-8")
    assert main(["check", template, env, "--context-map", str(bad_map)]) == 2
    capsys.readouterr()


def test_text_format_report(tmp_path, capsys):
    template, env = _write_case(tmp_path, FLAWED_SCRIPT_STRING)
    code = main(["check", template, env])
    out = capsys.readouterr().out
    assert code == 1
    assert "incorrect: 1" in out
    assert "HTML escaping in JavaScript string" in out
    assert "FLAW" in out
