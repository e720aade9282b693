"""Command-line front end.

Subcommands:

  render     expand a template against an environment into a bundle
  analyze    resolve contexts and verdicts for a bundle
  check      render and analyze in one step
  contexts   list resolved context sequences without verification

Exit codes: 0 when no insufficient sanitization was found, 1 when at
least one was, 2 on operational errors (unparseable input, unknown
sanitizers, tokens missing from the document or nested inside another,
output that has no UTF-8 form), and 3 on an internal error, a bug in
ctxcheck, whose traceback goes to standard error: exit 1 never means a
crash.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .annotations import UnknownResidue, strip_annotations
from .browser import MissingToken, analyze
from .bundle import Bundle, BundleError, dump_bundle, read_bundle, read_json
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
    data = read_json(path, BundleError, "environment file")
    if not isinstance(data, dict):
        raise BundleError("environment file must hold an object")
    return data


def _load_map(args) -> dict:
    if args.context_map:
        return load_context_map(args.context_map)
    return default_context_map()


def _render_bundle(args) -> tuple[Bundle, str]:
    """The rendered bundle and the render's own clean document."""
    template = parse_template(_read_text(args.template))
    env = _read_env(args.env)
    mode = TrackingMode(args.mode)
    document, registry, clean = render(template, env, seed=args.seed,
                                       mode=mode)
    return Bundle(document, registry), clean


_REPORT_JSON = ('{"summary": {"sanitizations": %d, "correct": %d,'
                ' "incorrect": %d}, "findings": [%s], "patterns": {%s},'
                ' "verdicts": [%s], "clean_document": ')
_FINDING_JSON = '{"token": "%s", "context": %s, "excerpt": %s}'
_VERDICT_JSON = ('{"token": "%s", "origin": %s, "chain": %s, "sink": %s,'
                 ' "context": %s, "sufficient": %s, "pattern": %s}')


def _report_json(findings, verdicts: list[Verdict], summary: ReportSummary,
                 clean_document: str) -> tuple[str, str, str]:
    """The JSON report in three parts whose concatenation is the text
    json.dumps writes for it: one line, ASCII, default separators.  The
    encoded clean document is a part of its own, so writing the parts
    in order never copies it into a second string.  Strings from input
    go through the C encoder json.dumps uses; tokens are hex, and
    context and pattern names identifiers.  Each distinct context
    sequence, chain and pattern is encoded once; every verdict's
    context is a finding's."""
    quote = encode_basestring_ascii
    contexts = {ctx: "[%s]" % ", ".join(map(quote, sequence_names(ctx)))
                for ctx in {f.context for f in findings}}
    chains = {chain: "[%s]" % ", ".join(map(quote, chain))
              for chain in {v.triple.chain for v in verdicts}}
    outcomes = {None: ("true", "null"),
                **{p: ("false", f'"{p.value}"') for p in BugPattern}}
    return _REPORT_JSON % (
        summary.sanitizations, summary.correct, summary.incorrect,
        ", ".join([_FINDING_JSON % (token, contexts[context], quote(excerpt))
                   for token, context, excerpt in findings]),
        ", ".join([f'"{p.value}": {count}'
                   for p, count in summary.pattern_counts.items()]),
        ", ".join([_VERDICT_JSON % (token, quote(origin), chains[chain],
                                    quote(sink), contexts[context],
                                    *outcomes[pattern])
                   for token, (origin, chain, sink), context, pattern
                   in verdicts])), quote(clean_document), "}"


def _report_text(verdicts: list[Verdict], summary: ReportSummary) -> str:
    lines = [
        f"sanitizations: {summary.sanitizations}"
        f"  correct: {summary.correct}  incorrect: {summary.incorrect}",
    ]
    if summary.pattern_counts:
        lines.append("")
        lines.append("bug patterns:")
        for pattern, count in summary.pattern_counts.items():
            lines.append(f"  {PATTERN_LABELS[pattern]}: {count}")
    if verdicts:
        formatted = {context: format_sequence(context)
                     for context in {v.context for v in verdicts}}
        lines.append("")
        lines.append("verdicts:")
        for v in verdicts:
            status = "ok  " if v.sufficient else "FLAW"
            chain = "|".join(v.triple.chain) or "-"
            line = (f"  {status} origin={v.triple.origin} chain={chain}"
                    f" sink={v.triple.sink} context={formatted[v.context]}")
            if v.pattern:
                line += f" pattern={v.pattern.value}"
            lines.append(line)
    return "\n".join(lines)


def _analyze_bundle(bundle: Bundle, args, clean: str | None = None) -> int:
    """Analyze, verify and report.  ``clean`` is the render's own clean
    document; a bundle read from a file carries none, so its tokens are
    stripped."""
    cmap = _load_map(args)
    findings = analyze(bundle.document, bundle.registry)
    verdicts = verify(findings, bundle.registry, cmap)
    summary = aggregate(verdicts)
    if clean is None:
        clean = strip_annotations(bundle.document, bundle.registry)
    if args.clean_out:
        # JSON input can hold a lone surrogate, which has no UTF-8 form;
        # encoding first raises before the file is touched.
        data = clean.encode("utf-8")
        with open(args.clean_out, "wb") as handle:
            handle.write(data)
    if args.format == "json":
        # Every part is built before the first write, so an error
        # leaves standard output empty.
        print(*_report_json(findings, verdicts, summary, clean), sep="")
    else:
        print(_report_text(verdicts, summary))
    return 1 if summary.incorrect else 0


def cmd_render(args) -> int:
    bundle, _ = _render_bundle(args)
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
    bundle, clean = _render_bundle(args)
    return _analyze_bundle(bundle, args, clean)


def cmd_contexts(args) -> int:
    bundle = read_bundle(args.bundle)
    findings = analyze(bundle.document, bundle.registry)
    for finding in findings:
        print(f"{finding.token}\t{format_sequence(finding.context)}")
    return 0


def _add_render_arguments(parser) -> None:
    parser.add_argument("template", help="template file")
    parser.add_argument("env", help="environment JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="token generator seed, for reproducible tokens "
                             "(default: fresh OS entropy on every run)")
    parser.add_argument("--mode", default="full",
                        choices=[m.value for m in TrackingMode],
                        help="taint tracking mode")


def _add_analyze_arguments(parser) -> None:
    parser.add_argument("--context-map", metavar="PATH",
                        help="JSON context map overriding the built-in one")
    parser.add_argument("--format", default="text", choices=("json", "text"))
    parser.add_argument("--clean-out", metavar="PATH",
                        help="write the annotation-free document here")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after.

    Each parse_args call fills a fresh namespace, so nothing carries
    over from one call to the next.
    """
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
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:
        # A lone surrogate from JSON input in a text report or a clean
        # document; the JSON report escapes it.
        print(f"error: output cannot be written as UTF-8: {exc}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        # The traceback as the interpreter prints an uncaught one.
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
