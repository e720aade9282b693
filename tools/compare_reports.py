"""Compare what two ctxcheck source trees print for the benchmark inputs.

Usage: python tools/compare_reports.py OLD_SRC NEW_SRC

Each argument is a directory that holds the ``ctxcheck`` package, such
as a checkout's ``src``, or a checkout whose ``src`` holds it.  Every
input that ``benchmarks/workloads.py`` generates for seeds 1 and 2 is
run through ``ctxcheck.cli.main`` once with ``--format json`` and once
with ``--format text``; ``check`` also gets ``--seed 0``, so that its
tokens are the same in both trees.  So is each of ``edge_documents()``,
markup the benchmark inputs hold none of, written as a bundle and run
through ``analyze``.  Each of ``edge_templates()``, template shapes the
benchmark inputs hold none of, runs through ``check --seed 0`` in both
formats and through ``render --seed 0``.  Each tree runs in its own
process.  The inputs are written to a temporary directory; nothing
under ``benchmarks/`` is changed.

Prints the number of runs and of those whose standard output, standard
error or exit code differs between the trees, then the input and format
of each differing run, and where the first of them differs.  Exits 1 if any
run differs, 2 if a tree cannot be run, and 0 otherwise.
"""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
FORMATS = ("json", "text")
# The tokens the edge documents register, each with its own chain, and
# a well-formed one they do not.
EDGE_CHAINS = {f"xtnt{i:032x}": chain for i, chain in enumerate(
    (["html_escape"], ["js_escape", "html_escape"], ["url_encode"]), 1)}
UNREGISTERED = "xtnt" + "f" * 32
# The environment of the edge templates: string, number, list, null,
# boolean and mapping leaves.
EDGE_ENV = {"a": "O'Neil <b> & \u2028", "b": "javascript:alert(1)", "n": 7,
            "f": 2.5, "l": ["x", "y"], "z": None, "t": True,
            "d": {"x": "v"}}


def edge_documents() -> list[str]:
    """Markup whose lexing the benchmark inputs do not reach: declarations,
    processing instructions, unclosed end tags, stray "<", comments,
    tokens at the ends of lexer ranges, declaration-dense CSS,
    javascript: and data: URLs escaped with entities or percent signs,
    strides over 20,000 characters of a tag, a style value or a script,
    url()s that hand their payloads on, an SVG link, a named reference
    without its ";", data: and javascript: scheme and MIME type forms,
    script and style bodies whose next token prefix lies in their tag,
    after a wide character, past an unclosed end or after them, //
    comments that a line terminator other than LF ends, and javascript:
    links with and without "%" where a stride runs up to them.
    A token is registered when the document spells it whole or with its
    "x" escaped."""
    a, b, c = EDGE_CHAINS
    ea, pa = "&#x78;" + a[1:], "%78" + a[1:]
    page = f"<p title='{pa}'>{b}</p>"
    declarations = "".join(f"m{i}:'a;b:{i}' 0;" for i in range(200))
    live_urls = "p{b:url(a:b)}" * 1000
    inert = '<div class="c" data-x=1>&amp; x</div>' * 6
    return [
        # declarations and processing instructions, closed or not
        f"<!DOCTYPE html {a}><p>{b}</p>",
        f"<p>{a}</p><!DOCTYPE {b}",
        f"<?xml version='1.0' {a}?><p title=\"{b}\">x</p><?{c}",
        f"<!{a}><![CDATA[{b}]]>",
        # end tags, closed and unclosed, with tokens in and after them
        f"<p>{a}</p {b}>{c}</{a}",
        f"</{a}> <p>x</ {b} y",
        f"<script>var s = '</{a}';</script></{b}",
        # stray "<", and a token as a tag name
        f"a < {a} <3 <<{b} <",
        f"<{a} x=1>{b}<{c}",
        # comments, closed, empty, bogus and unclosed
        f"<!-- {a} --><!---->{b}<!--->{c}--><!-- {a}",
        f"<!--{a}--!>{b}<!- {c} ->",
        # tokens at the ends of ranges, back to back, after a prefix and
        # after an unregistered token
        f"{a}<p title=\"{b}\" id={c}>{a}</p>{b}",
        f"<p>xtnt{a}{UNREGISTERED}{b}xtnt{c}xtnt</p>",
        f"<script>var s='{a}';//{b}\n/*{c}*/</script>",
        f"<style>p{{color:{a}}}/*{b}*/a{{background:url({c})}}</style>",
        f"<p title=\"{a[:30]}\">{a}</p>",
        # 200 declarations whose strings hold ";" and ":", and a token
        # in the last value
        f"<style>p{{{declarations}z:{a}}}</style>",
        f"<p style=\"{declarations}z:{b}\">x</p>",
        # escaped javascript: and data: URLs
        f"<a href=\"&#106;avascript:f('{ea}')\">{b}</a>",
        f"<a href=\"javascript&colon;f('{pa}')\" onclick=\"g('{ea}')\">x</a>",
        f"<a href=\"java&#x09;script:f({b})\">x</a>"
        f"<a href=\"%6Aavascript:{c}\">",
        f"<a href=\"data:text/html,{page}\">x</a>",
        f"<iframe src=\"data&colon;text/html,%3Cscript%3Evar%20s='{pa}'"
        f"%3C/script%3E\"></iframe><!-- {b} -->",
        "<iframe src=\"data:text/html;base64,"
        f"{base64.b64encode(page.encode()).decode()}\"></iframe>{a}{b}{c}",
        f"<a href=\"data:text/html,&lt;p title=&quot;{ea}&quot;&gt;\">{b}</a>",
        # a long text without "<" ending in a token
        "plain words and no markup, " * 400 + a,
        # a 20,000-character tag and style value that hand nothing on,
        # 20,000 characters of script without a construct, and a style
        # whose url()s all hand their payloads on
        f"<p title=\"{'&amp;' * 4000}\">{a}</p>{b}",
        f"<b style=\"{'a:url(/i.png);' * 1430}\">{a}</b><p>{c}</p>",
        f"<script>{'a' * 20000}f({a});</script>",
        f"<style>{live_urls}p{{c:{b}}}{live_urls}</style>",
        # an SVG link, and references without ";" that a letter follows
        f"<svg><a xlink:href=\"javascript:{a}\">x</a></svg>",
        f"<a href=\"javascript:f(&quot{b}&quot)\" title=\"&amp{c}\">x</a>",
        f"<a href=\"javascript:f(&quot;a&quot{a}&quot;)\">x</a>",
        # a long inert value beside a live one, so no stride takes the tag
        f"<p title=\"{'&amp;' * 4000}\" onclick=\"f()\">{a}</p>",
        # data: and javascript: URLs: a MIME type in any case, between
        # whitespace, before parameters, or not text/html; a scheme in
        # any case, or after a leading no-break space
        *(f"<a href=\"{head}<i>{a}</i>\">x</a><iframe src=\"{head}{b}\">"
          for head in ("DATA:TEXT/HTML,", "data: text/html ;charset=x,",
                       "data:\xa0text/html\xa0,",
                       "data:text/html;a=b;base64;c=d,", "data:text/html,a,",
                       "data:text/plain;text/html,", "data:text/htmlx,",
                       "data:text/html", "data:,text/html",
                       "JavaScript:f('", "\xa0javascript:f('")),
        # raw text handed the HTML level's next token prefix: one in the
        # tag before it, one after a character outside Latin-1, one in a
        # script the end of the page closes, and one after the body
        f"<script title=\"{a}\">var s='{b}';</script>",
        f"<style title=\"{a}\">p{{c:'{b}'}}</style>",
        f"<script>var s='\u2192{a}';</script>",
        f"<p>{a}</p><script>var s='{b}';",
        f"<script>var s=1;</script>{a}",
        # // comments that a CR, U+2028 or U+2029 ends, raw in a script
        # and as a reference in a handler
        *(f"<script>// x{end} /*\nvar s='{a}'; // */</script>"
          f"<p onclick=\"// y&#x{ord(end):x}; /*&#10;f('{b}') // */\">x</p>"
          for end in ("\r", "\u2028", "\u2029")),
        # javascript: links with and without "%", in any case, with
        # references, after enough inert markup for a stride to run up
        # to them, before a token and after the last one
        f"{inert}<a href=\"javascript:void(0)\">x</a><a HREF=\"JavaScript:"
        f"void(0)\" onclick=\"f()\">y</a>{inert}<p>{a}</p>"
        f"<a href=javascript:history.back()>z</a>{inert}",
        f"{inert}<a href=\"javascript:f('{pa}')\">x</a>{inert}"
        f"<a href='jAvAsCrIpT:g(\"{b}\")'>y</a>{inert}"
        f"<a href=\"javascript:f(%27c%27)\">z</a>{inert}",
        f"{inert}<a href=\"javascript:a&amp;&amp;b:c\">x</a><a href=\""
        f"javascript:f(&quot;{c}&quot;)\">y</a>{inert}"
        f"<a href=\" javascript:void(0)\" title=\"&#x78;{a[1:]}\">w</a>",
    ]


def edge_templates() -> list[tuple[str, str]]:
    """Template sources, each with the tracking mode to render it in,
    whose parsing or expansion the benchmark inputs do not reach:
    expansions back to back and at both ends of the source, one written
    with and without spaces, paths that are missing or end at a list,
    null, boolean or mapping, numbers under both modes, and each syntax
    error."""
    numbers = ("<p title={{n}}>{{f|urlencode}}</p>"
               "<script>var n = {{n}};</script>")
    return [
        ("{{a}}{{b|urlencode}}<p title=\"{{a|escape}}\">{{a}}{{a}}</p>"
         "<script>var s = '{{a|escapejs}}';</script>{{b}}", "full"),
        ("<a href=\"{{ b }}\">{{b}}</a>{{ a | escapejs }}"
         "<script>f('{{a|escapejs}}', '{{ a|escapejs }}')</script>", "full"),
        ("<p>{{gone}}{{d.x.y}}{{l}}{{z}}{{t}}{{d}}{{d.x}}</p>", "full"),
        (numbers, "full"),
        (numbers, "no-numeric"),
        ("<p>{{a}}</p> {{", "full"),
        ("{{a}} {{b..c}}", "full"),
        ("{{a}}{{ a | shout }}", "full"),
    ]


# Runs in the child: SRC RUNS OUT.  One JSON line per run in OUT:
# [exit code, stdout, stderr].  An exception that escapes main is
# recorded by its last traceback line, which names no file of the tree.
RUNNER = r"""
import contextlib, io, json, os, sys, traceback
src, runs, out = sys.argv[1:]
sys.path.insert(0, src)
import ctxcheck.cli
if not os.path.abspath(ctxcheck.cli.__file__).startswith(src + os.sep):
    sys.exit(f"ctxcheck was imported from outside {src}")
with open(runs, encoding="utf-8") as handle:
    argvs = json.load(handle)
with open(out, "w", encoding="utf-8") as results:
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = ctxcheck.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = traceback.format_exception_only(type(exc), exc)[-1]
        results.write(json.dumps([code, stdout.getvalue(),
                                  stderr.getvalue()]) + "\n")
"""


class TreeError(Exception):
    """A tree has no ctxcheck package, or its runs did not finish."""


def package_dir(tree: str) -> str:
    """The directory holding ``ctxcheck`` for a tree argument."""
    for candidate in (tree, os.path.join(tree, "src")):
        if os.path.isfile(os.path.join(candidate, "ctxcheck", "cli.py")):
            return os.path.abspath(candidate)
    raise TreeError(f"no ctxcheck package in {tree} or {tree}/src")


def write_runs(work: str) -> list:
    """Write every input file under ``work``; return (label, argv) pairs."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS

    runs = []
    for seed in SEEDS:
        for workload, generate in WORKLOADS.items():
            directory = os.path.join(work, f"{workload}-{seed}")
            os.mkdir(directory)
            cases = generate(seed)
            names = set()
            for case in cases:
                for name, content in case.files.items():
                    with open(os.path.join(directory, name), "w",
                              encoding="utf-8") as handle:
                        handle.write(content)
                names.update(case.files)
            for case in cases:
                argv = [os.path.join(directory, arg) if arg in names else arg
                        for arg in case.argv]
                argv = argv[:argv.index("--format")]
                if argv[0] == "check":
                    argv += ["--seed", "0"]
                label = f"{workload} seed {seed}: {' '.join(case.argv[:2])}"
                for fmt in FORMATS:
                    runs.append((f"{label} --format {fmt}",
                                 argv + ["--format", fmt]))
    for number, document in enumerate(edge_documents()):
        path = os.path.join(work, f"edge-{number}.json")
        registry = {token: {"sink": f"edge:{number}",
                            "taints": [{"origin": "edge", "chain": chain}]}
                    for token, chain in EDGE_CHAINS.items()
                    if token[1:] in document}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"document": document, "registry": registry}, handle)
        for fmt in FORMATS:
            runs.append((f"edge document {number} --format {fmt}",
                         ["analyze", path, "--format", fmt]))
    env = os.path.join(work, "edge-env.json")
    with open(env, "w", encoding="utf-8") as handle:
        json.dump(EDGE_ENV, handle)
    for number, (source, mode) in enumerate(edge_templates()):
        path = os.path.join(work, f"edge-{number}.tpl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        label = f"edge template {number} --mode {mode}"
        argv = [path, env, "--seed", "0", "--mode", mode]
        for fmt in FORMATS:
            runs.append((f"{label} check --format {fmt}",
                         ["check", *argv, "--format", fmt]))
        runs.append((f"{label} render", ["render", *argv]))
    return runs


def run_tree(src: str, runs_path: str, out_path: str) -> None:
    done = subprocess.run([sys.executable, "-c", RUNNER, src, runs_path,
                           out_path], capture_output=True, text=True)
    if done.returncode != 0:
        raise TreeError(f"the runs of {src} failed:\n{done.stderr}")


def first_difference(old: str, new: str) -> str:
    """Where two texts part, with a little context on each side."""
    at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
              min(len(old), len(new)))
    lo = max(0, at - 40)
    return (f"offset {at} (lengths {len(old)} and {len(new)})\n"
            f"  old: {old[lo:at + 40]!r}\n  new: {new[lo:at + 40]!r}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ctxcheck-compare-") as work:
        try:
            trees = [package_dir(tree) for tree in args]
            runs = write_runs(work)
            runs_path = os.path.join(work, "runs.json")
            with open(runs_path, "w", encoding="utf-8") as handle:
                json.dump([argv for _, argv in runs], handle)
            outs = [os.path.join(work, f"out{i}.jsonl") for i in range(2)]
            for src, out in zip(trees, outs):
                run_tree(src, runs_path, out)
        except TreeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        differing, first = [], None
        with open(outs[0], encoding="utf-8") as old_lines, \
                open(outs[1], encoding="utf-8") as new_lines:
            for (label, _), old, new in zip(runs, old_lines, new_lines):
                if old == new:
                    continue
                differing.append(label)
                if first is None:
                    old, new = json.loads(old), json.loads(new)
                    field = next(i for i in range(3) if old[i] != new[i])
                    name = ("exit code", "stdout", "stderr")[field]
                    detail = (f"{old[0]!r} != {new[0]!r}" if field == 0 else
                              first_difference(old[field], new[field]))
                    first = f"first difference: {label}\n{name}: {detail}"
    print(f"{len(runs)} runs, {len(differing)} differ")
    for label in differing:
        print(f"differs: {label}")
    if first is not None:
        print(first)
    return int(bool(differing))


if __name__ == "__main__":
    sys.exit(main())
