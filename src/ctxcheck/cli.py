"""Command-line front end.

Subcommands:

  render     expand a template against an environment into a bundle
  analyze    resolve contexts and verdicts for a bundle
  check      render and analyze in one step
  contexts   list resolved context sequences without verification

Exit codes: 0 when no insufficient sanitization was found, 1 when at
least one was, 2 on operational errors (unparseable input, unknown
sanitizers, tokens missing from the document or nested inside another).
"""

from __future__ import annotations

import argparse
import json
import sys

from .annotations import UnknownResidue, strip_annotations
from .browser import MissingToken, analyze
from .bundle import Bundle, BundleError, dump_bundle, read_bundle
from .contexts import format_sequence, sequence_names
from .taint import TrackingMode
from .template import TemplateSyntaxError, parse_template, render
from .verifier import (
    BugPattern,
    ContextMapError,
    ReportSummary,
    UnknownSanitizer,
    Verdict,
    aggregate,
    default_context_map,
    load_context_map,
    verify,
)

PATTERN_LABELS = {
    BugPattern.NoSanitization: "no sanitization",
    BugPattern.HtmlInJsCode: "HTML escaping in JavaScript code",
    BugPattern.HtmlInJsString: "HTML escaping in JavaScript string",
    BugPattern.HtmlInUri: "HTML escaping in URI",
    BugPattern.HtmlInUnquotedAttr: "HTML escaping in unquoted attribute",
    BugPattern.HtmlInCssValue: "HTML escaping in CSS declaration value",
    BugPattern.OtherMismatch: "sanitizer does not match context",
}


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _read_env(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise BundleError("environment file must hold an object")
    return data


def _load_map(args) -> dict:
    if getattr(args, "context_map", None):
        return load_context_map(args.context_map)
    return default_context_map()


def _render_bundle(args) -> Bundle:
    template = parse_template(_read_text(args.template))
    env = _read_env(args.env)
    mode = TrackingMode.from_name(args.mode)
    document, registry = render(template, env, seed=args.seed, mode=mode)
    return Bundle(document, registry)


def _validate_chains(bundle: Bundle, cmap: dict) -> None:
    for _, entry in bundle.registry.items():
        for _, chain in entry.taint:
            for sanitizer in chain:
                if sanitizer not in cmap:
                    raise UnknownSanitizer(sanitizer)


def _report_dict(findings, verdicts: list[Verdict], summary: ReportSummary,
                 clean_document: str) -> dict:
    return {
        "summary": {
            "sanitizations": summary.sanitizations,
            "correct": summary.correct,
            "incorrect": summary.incorrect,
        },
        "findings": [
            {
                "token": f.token,
                "context": sequence_names(f.context),
                "excerpt": f.excerpt,
            }
            for f in findings
        ],
        "patterns": {
            pattern.value: count
            for pattern, count in sorted(summary.pattern_counts.items(),
                                         key=lambda item: item[0].value)
        },
        "verdicts": [
            {
                "token": v.token,
                "origin": v.triple.origin,
                "chain": list(v.triple.chain),
                "sink": v.triple.sink,
                "context": sequence_names(v.context),
                "sufficient": v.sufficient,
                "pattern": v.pattern.value if v.pattern else None,
            }
            for v in verdicts
        ],
        "clean_document": clean_document,
    }


def _report_text(verdicts: list[Verdict], summary: ReportSummary) -> str:
    lines = [
        f"sanitizations: {summary.sanitizations}"
        f"  correct: {summary.correct}  incorrect: {summary.incorrect}",
    ]
    if summary.pattern_counts:
        lines.append("")
        lines.append("bug patterns:")
        for pattern, count in sorted(summary.pattern_counts.items(),
                                     key=lambda item: item[0].value):
            lines.append(f"  {PATTERN_LABELS[pattern]}: {count}")
    if verdicts:
        lines.append("")
        lines.append("verdicts:")
        for v in verdicts:
            status = "ok  " if v.sufficient else "FLAW"
            chain = "|".join(v.triple.chain) or "-"
            line = (f"  {status} origin={v.triple.origin} chain={chain}"
                    f" sink={v.triple.sink} context={format_sequence(v.context)}")
            if v.pattern:
                line += f" pattern={v.pattern.value}"
            lines.append(line)
    return "\n".join(lines)


def _analyze_bundle(bundle: Bundle, args) -> int:
    cmap = _load_map(args)
    _validate_chains(bundle, cmap)
    findings = analyze(bundle.document, bundle.registry)
    verdicts = verify(findings, bundle.registry, cmap)
    summary = aggregate(verdicts)
    clean = strip_annotations(bundle.document, bundle.registry)
    if args.clean_out:
        with open(args.clean_out, "w", encoding="utf-8") as handle:
            handle.write(clean)
    if args.format == "json":
        # Without indent, json uses its C encoder: one line, same value.
        print(json.dumps(_report_dict(findings, verdicts, summary, clean)))
    else:
        print(_report_text(verdicts, summary))
    return 1 if summary.incorrect else 0


def cmd_render(args) -> int:
    bundle = _render_bundle(args)
    payload = json.dumps(dump_bundle(bundle.document, bundle.registry), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return 0


def cmd_analyze(args) -> int:
    return _analyze_bundle(read_bundle(args.bundle), args)


def cmd_check(args) -> int:
    return _analyze_bundle(_render_bundle(args), args)


def cmd_contexts(args) -> int:
    bundle = read_bundle(args.bundle)
    findings = analyze(bundle.document, bundle.registry)
    for finding in findings:
        print(f"{finding.token}\t{format_sequence(finding.context)}")
    return 0


def _add_render_arguments(parser) -> None:
    parser.add_argument("template", help="template file")
    parser.add_argument("env", help="environment JSON file")
    parser.add_argument("--seed", type=int, default=0,
                        help="token generator seed (default 0)")
    parser.add_argument("--mode", default="full",
                        choices=[m.value for m in TrackingMode],
                        help="taint tracking mode")


def _add_analyze_arguments(parser) -> None:
    parser.add_argument("--context-map", metavar="PATH",
                        help="JSON context map overriding the built-in one")
    parser.add_argument("--format", default="text", choices=("json", "text"))
    parser.add_argument("--clean-out", metavar="PATH",
                        help="write the annotation-free document here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxcheck",
        description="Verify that sanitizer chains match the browser "
                    "contexts values are rendered into.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_render = sub.add_parser("render", help="render a template to a bundle")
    _add_render_arguments(p_render)
    p_render.add_argument("--out", metavar="PATH", help="bundle output file")
    p_render.set_defaults(func=cmd_render)

    p_analyze = sub.add_parser("analyze", help="analyze a bundle")
    p_analyze.add_argument("bundle", help="bundle JSON file")
    _add_analyze_arguments(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="render and analyze in one step")
    _add_render_arguments(p_check)
    _add_analyze_arguments(p_check)
    p_check.set_defaults(func=cmd_check)

    p_contexts = sub.add_parser(
        "contexts", help="list resolved context sequences for a bundle")
    p_contexts.add_argument("bundle", help="bundle JSON file")
    p_contexts.set_defaults(func=cmd_contexts)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TemplateSyntaxError, BundleError, ContextMapError,
            UnknownSanitizer, MissingToken, UnknownResidue) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
