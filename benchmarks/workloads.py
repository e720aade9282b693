"""Seeded inputs for the three workloads, with their expected results.

Every input is generated here from the seed.  Expected clean documents,
exit codes and verdicts come from the slot table in slots.py and stdlib
escaping; nothing here runs ctxcheck.  The structure of a plan (page
sizes, token counts, which pages are clean, how many gap rows) is the
same for every seed, so totals and shares do not depend on the seed;
the seed picks the content and the order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import NamedTuple

from slots import (CLEAN_SLOTS, FLAWED_SLOTS, GAP_SLOTS, REGULAR_SLOTS,
                   SCRIPT_SLOTS, STYLE_SLOTS, Slot, sanitize)

TOKEN_BYTES = 36
# The arrow makes every document a str of two-byte characters, as any
# page with non-Latin-1 text is, so that string width, which changes
# scanning speed, does not depend on which values a seed picks.
HEAD = "<!DOCTYPE html>\n<html><head><title>Report \u2192</title></head><body>\n"
TAIL = "</body></html>\n"

# Raw values; each environment leaf is one of these plus a number.
VALUES = ("Ann", "O'Neil", "a<b>c", "fish & chips", '"quoted"', "50% off",
          "café", "x/y/z", "k=v;", "tab\there", "back`tick", "a--b",
          "f(x)", "C:\\dir", "日本", "#top?q=1")
KEYS = 64


class Row(NamedTuple):
    """The expected verdict for one sink."""

    origin: str
    slot: Slot


@dataclass
class Case:
    """One CLI invocation and what a correct run gives.

    Arguments naming a key of ``files`` are file names relative to the
    work directory the files are written to.
    """

    argv: list
    files: dict
    exit_code: int
    clean: str
    rows: dict  # sink id -> Row
    doc_bytes: int
    tokens: int


def _balanced(rng: random.Random, pool, count: int) -> list:
    """``count`` items using every item of the pool equally often (to
    within one), in seeded order."""
    start = rng.randrange(len(pool))
    items = [pool[(start + i) % len(pool)] for i in range(count)]
    rng.shuffle(items)
    return items


def _values(rng: random.Random) -> list:
    # Each base value is used equally often and the suffix has a fixed
    # width, so document sizes do not depend on the seed.
    return [f"{VALUES[i % len(VALUES)]} {rng.randrange(100, 1000)}"
            for i in range(KEYS)]


def _pick_slots(rng: random.Random, count: int, flawed: bool,
                gaps: int = 0, gap_start: int = 0) -> list:
    """Slots for one document; a flawed one mixes every regular slot
    kind, so it always holds a regular flaw."""
    if not flawed:
        return _balanced(rng, CLEAN_SLOTS, count)
    slots = [GAP_SLOTS[(gap_start + i) % len(GAP_SLOTS)] for i in range(gaps)]
    slots += _balanced(rng, FLAWED_SLOTS, 1)
    slots += _balanced(rng, REGULAR_SLOTS, count - len(slots))
    rng.shuffle(slots)
    return slots


def _expand(slot: Slot, key: int) -> str:
    filters = "".join("|" + name for name in slot.filters)
    return "{{req.k%d%s}}" % (key, filters)


def _template_case(name: str, items: list, values: list, rng: random.Random,
                   flawed: bool) -> Case:
    """A `check` case from literal strings and slots, in document order."""
    template, clean, rows = [], [], {}
    keys = iter(_balanced(rng, range(KEYS),
                          sum(not isinstance(i, str) for i in items)))
    for item in items:
        if isinstance(item, str):
            template.append(item)
            clean.append(item)
            continue
        key = next(keys)
        rows[f"template:{len(rows)}"] = Row(f"req.k{key}", item)
        template.append(item.before + _expand(item, key) + item.after)
        clean.append(item.before + sanitize(values[key], item.chain)
                     + item.after)
    clean_doc = "".join(clean)
    tpl = f"{name}.tpl"
    return Case(["check", tpl, "env.json", "--format", "json"],
                {tpl: "".join(template)}, int(flawed), clean_doc, rows,
                len(clean_doc.encode()) + TOKEN_BYTES * len(rows), len(rows))


def _env_file(values: list) -> str:
    return json.dumps({"req": {f"k{i}": v for i, v in enumerate(values)}})


# -- dense-page ---------------------------------------------------------

SMALL_SINKS = 1000
LARGE_SINKS = 8000
SMALL_FLAWED = 30
SMALL_CLEAN = 10
GAP_EVERY = 250  # one gap row per this many sinks on a flawed page


def _dense_page(name: str, rng: random.Random, values: list, sinks: int,
                flawed: bool) -> Case:
    gaps = sinks // GAP_EVERY if flawed else 0
    slots = _pick_slots(rng, sinks, flawed, gaps)
    items = [HEAD]
    for slot in slots:
        items += [slot, "\n"]
    items.append(TAIL)
    return _template_case(name, items, values, rng, flawed)


def dense_page(seed: int) -> list:
    """One 8k-sink page and forty 1k-sink pages, ten of them clean."""
    rng = random.Random(seed)
    values = _values(rng)
    kinds = (["large"] + ["flawed"] * SMALL_FLAWED
             + ["clean"] * SMALL_CLEAN)
    rng.shuffle(kinds)
    cases = []
    for index, kind in enumerate(kinds):
        sinks = LARGE_SINKS if kind == "large" else SMALL_SINKS
        cases.append(_dense_page(f"page{index}", rng, values, sinks,
                                 flawed=kind != "clean"))
    cases[0].files["env.json"] = _env_file(values)
    return cases


# -- script-heavy -------------------------------------------------------

SCRIPT_CHARS = (600_000, 800_000, 1_000_000, 1_000_000, 1_200_000, 1_400_000)
SCRIPT_TOKENS = (1, 2, 4, 6, 8, 10)
SCRIPT_CLEAN = 2

# $N, $M and $H are replaced by numbers and a colour.
JS_STATEMENTS = (
    "function fn$N(a, b) {\n  var total = a * $N + b / 3;\n"
    "  return total > $M ? \"big\" : 'small';\n}\n",
    "// helper $N: normalise the input before use\n",
    'var label$N = "Item \\"$N\\" in \\\\ list";\n',
    "/* block $N\n   spans two lines */\n",
    "list$N.push({ id: $N, name: 'n$N', tags: [\"a\", \"b\"] });\n",
    "if (x$N < $M && y$N > 2) { call$N(x$N); }\n",
    "var tpl$N = `row-$N`;\n",
)
CSS_RULES = (
    ".c$N { color: #$H; margin: 0 $Mpx; "
    "font-family: \"Helvetica Neue\", sans-serif; }\n",
    "/* section $N */\n",
    "#id$N > a:hover { background: url(\"/img/$N.png\") no-repeat; }\n",
    "@media (max-width: $Mpx) { .c$N { display: none; } }\n",
    ".i$N::before { content: \"\\201C\"; }\n",
)


def _fill(rng: random.Random, pieces: tuple, chars: int) -> list:
    out, total = [], 0
    while total < chars:
        piece = (rng.choice(pieces).replace("$N", str(rng.randrange(10**4)))
                 .replace("$M", str(rng.randrange(1, 999)))
                 .replace("$H", "%06x" % rng.getrandbits(24)))
        out.append(piece)
        total += len(piece)
    return out


def _insert(rng: random.Random, items: list, slots: list) -> list:
    for slot in slots:
        items.insert(rng.randrange(len(items) + 1), slot)
    return items


def script_heavy(seed: int) -> list:
    """Six pages of 0.6-1.4 MB inline script plus a quarter as much CSS."""
    rng = random.Random(seed)
    values = _values(rng)
    tokens = list(SCRIPT_TOKENS)
    rng.shuffle(tokens)
    clean = [True] * SCRIPT_CLEAN + [False] * (len(tokens) - SCRIPT_CLEAN)
    rng.shuffle(clean)
    cases = []
    for index, chars in enumerate(SCRIPT_CHARS):
        if clean[index]:
            slots = [rng.choice([s for s in SCRIPT_SLOTS if s.sufficient])
                     for _ in range(tokens[index])]
        else:
            pool = SCRIPT_SLOTS + STYLE_SLOTS
            slots = [rng.choice([s for s in pool if not s.sufficient])]
            slots += [rng.choice(pool) for _ in range(tokens[index] - 1)]
        css_slots = [s for s in slots if s in STYLE_SLOTS]
        js_slots = [s for s in slots if s not in STYLE_SLOTS]
        css = _insert(rng, _fill(rng, CSS_RULES, chars // 4), css_slots)
        js = _insert(rng, _fill(rng, JS_STATEMENTS, chars), js_slots)
        items = [HEAD, "<style>\n", *css, "</style>\n<script>\n", *js,
                 "</script>\n", TAIL]
        cases.append(_template_case(f"script{index}", items, values, rng,
                                    flawed=not clean[index]))
    cases[0].files["env.json"] = _env_file(values)
    return cases


# -- bundle-stream ------------------------------------------------------

BUNDLES = 400
BUNDLE_KB = (5, 7.5, 10, 12.5, 15)
TOKENS_PER_KB = 2
SLOT_BYTES = 90  # typical annotated slot; filler makes up the rest
CLEAN_EVERY = 4   # every fourth bundle of each size is clean
GAP_BUNDLE_EVERY = 3  # every third flawed bundle holds one gap row

# Token-free, markup-heavy filler: tags, attributes, entities, URIs,
# inline handlers and styles, so every scanner and decoder runs.
MARKUP = (
    '<div class="card c$N" id="item-$N" data-rank="$M">\n',
    '<a href="/item/$N?ref=list&amp;page=$M" title="Item $N &amp; more">'
    "Item $N</a>\n",
    '<img src="/img/$N.png" alt="Picture $N" width="64" height="64">\n',
    '<span style="color:#$H;margin:$Mpx">Tag &lt;$N&gt;</span>\n',
    '<button type="button" onclick="toggle($N); return false;">More'
    "</button>\n",
    '<a href="javascript:void(0)" onclick="open($N)">Open</a>\n',
    '<div style="background:url(/bg/$N.png) no-repeat">x</div>\n',
    "<p>Lorem ipsum $N &mdash; dolor &#39;sit&#39; amet, $M% off.</p>\n",
    "<!-- row $N -->\n",
    "<ul><li>One</li><li>Two &amp; three</li></ul>\n",
    "</div>\n",
)


def _token(rng: random.Random, used: set) -> str:
    while True:
        token = "xtnt%032x" % rng.getrandbits(128)
        if token not in used:
            used.add(token)
            return token


def _chunks(rng: random.Random, document: str, token_at: int) -> list:
    """Split at seeded offsets, one of them inside a token."""
    cuts = {rng.randrange(1, len(document)) for _ in range(rng.randint(2, 6))}
    cuts.add(token_at + rng.randint(1, TOKEN_BYTES - 1))
    bounds = [0, *sorted(cuts), len(document)]
    return [document[a:b] for a, b in zip(bounds, bounds[1:])]


def _bundle(name: str, rng: random.Random, values: list, used: set,
            kb: float, flawed: bool, gaps: int, gap_start: int) -> Case:
    count = round(kb * TOKENS_PER_KB)
    slots = _pick_slots(rng, count, flawed, gaps, gap_start)
    items = _insert(rng, _fill(rng, MARKUP, int(kb * 1000) - SLOT_BYTES * count),
                    slots)
    annotated, clean, registry, rows = [], [], {}, {}
    token_at = 0
    for item in [HEAD, *items, TAIL]:
        if isinstance(item, str):
            annotated.append(item)
            clean.append(item)
            continue
        key = rng.randrange(KEYS)
        token, sink = _token(rng, used), f"{name}:{len(rows)}"
        value = sanitize(values[key], item.chain)
        rows[sink] = Row(f"req.k{key}", item)
        registry[token] = {"sink": sink, "taints": [
            {"origin": f"req.k{key}", "chain": list(item.chain)}]}
        if len(rows) == 1:
            token_at = sum(map(len, annotated)) + len(item.before)
        annotated.append(item.before + token + value + item.after)
        clean.append(item.before + value + item.after)
    document = "".join(annotated)
    bundle = {"document": _chunks(rng, document, token_at),
              "registry": registry}
    path = f"{name}.json"
    return Case(["analyze", path, "--format", "json"],
                {path: json.dumps(bundle)}, int(flawed), "".join(clean),
                rows, len(document.encode()), count)


def bundle_stream(seed: int) -> list:
    """Four hundred 5-15 KB bundles, about two tokens per KB."""
    rng = random.Random(seed)
    values = _values(rng)
    specs = []
    flawed_seen = 0
    for index in range(BUNDLES):
        kb = BUNDLE_KB[index % len(BUNDLE_KB)]
        flawed = (index // len(BUNDLE_KB)) % CLEAN_EVERY != 0
        gaps = 0
        if flawed:
            gaps = int(flawed_seen % GAP_BUNDLE_EVERY == 0)
            flawed_seen += 1
        specs.append((kb, flawed, gaps))
    rng.shuffle(specs)
    used: set = set()
    cases, gap_start = [], 0
    for index, (kb, flawed, gaps) in enumerate(specs):
        cases.append(_bundle(f"bundle{index}", rng, values, used, kb, flawed,
                             gaps, gap_start))
        gap_start += gaps
    return cases


WORKLOADS = {
    "dense-page": dense_page,
    "script-heavy": script_heavy,
    "bundle-stream": bundle_stream,
}
