"""Spans around the calls into ctxcheck's layers, recorded from outside.

Each hook replaces a function where its caller looks it up (a module
global or a class attribute) with a wrapper that records a span: its
name, start, end, the span that caused it and the operation it belongs
to.  Spans stay in memory, in flat arrays, until the run ends; a layer's
self time is its span's duration minus the time its child spans cover.
Nothing in the package is changed on disk.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# (module[:class], attribute, span name)
HOOKS = (
    ("ctxcheck.cli", "parse_template", "template.parse"),
    ("ctxcheck.cli", "render", "template.render"),
    ("ctxcheck.cli", "read_bundle", "bundle.load"),
    ("ctxcheck.cli", "analyze", "browser.analyze"),
    ("ctxcheck.cli", "verify", "verifier.verify"),
    ("ctxcheck.cli", "aggregate", "verifier.aggregate"),
    ("ctxcheck.cli", "strip_annotations", "annotations.strip"),
    ("ctxcheck.verifier", "sufficient", "verifier.sufficient"),
    ("ctxcheck.browser", "entity_decode", "decoders.entity_decode"),
    ("ctxcheck.browser", "percent_decode", "decoders.percent_decode"),
    ("ctxcheck.browser", "css_unescape", "decoders.css_unescape"),
    ("ctxcheck.browser:ModelBrowser", "html_scan", "browser.html_scan"),
    ("ctxcheck.browser:ModelBrowser", "js_scan", "browser.js_scan"),
    ("ctxcheck.browser:ModelBrowser", "css_scan", "browser.css_scan"),
    ("ctxcheck.browser:ModelBrowser", "uri_scan", "browser.uri_scan"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.sufficient_pairs: set = set()
        self.unknown_tokens = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        observers = {"verifier.sufficient": self._saw_sufficient,
                     "browser.analyze": self._saw_findings}
        for target, attr, name in HOOKS:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, observers.get(name))
            self._patches.append((owner, attr, original, wrapped))

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` recording a span per call under ``name``."""
        if name not in self.names:
            self.names.append(name)
        kind = self.names.index(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(start)
            self.kind.append(kind)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _saw_sufficient(self, args, result) -> None:
        chain, context = args[0], args[1]
        self.sufficient_pairs.add((tuple(chain), tuple(context)))

    def _saw_findings(self, args, findings) -> None:
        self.unknown_tokens += sum(
            any(getattr(ctx, "value", ctx) == "Unknown" for ctx in f.context)
            for f in findings)

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: (calls, inclusive s, self s) over the run, and
        per (name, op): inclusive seconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += duration[index]
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        per_op = defaultdict(float)
        for index, kind in enumerate(self.kind):
            name = self.names[kind]
            total = totals[name]
            total[0] += 1
            total[1] += duration[index]
            total[2] += duration[index] - children[index]
            per_op[name, self.op[index]] += duration[index]
        return totals, per_op
