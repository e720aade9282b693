"""The package's records are NamedTuples, and importing it stays light.

TaintedText, TaintedNumber, Template, Bundle and ReportSummary are
immutable records with value equality, a field-by-field repr and, where
every field hashes, a hash.  TaintedText also acts as a string for
``len``, indexing, slicing and ``+``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import ctxcheck
from ctxcheck.annotations import SinkRegistry
from ctxcheck.bundle import Bundle
from ctxcheck.taint import TaintedNumber, TaintedText
from ctxcheck.template import Expansion, Template
from ctxcheck.verifier import BugPattern, ReportSummary

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ctxcheck.__file__)))

# Prints the modules that importing the command line and building the
# default context map add to those the interpreter had already loaded.
_IMPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import ctxcheck.cli
ctxcheck.default_context_map()
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # Together about a third of the start-up time of the command line.
    done = subprocess.run([sys.executable, "-c", _IMPORT, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    added = set(done.stdout.split())
    assert "ctxcheck.cli" in added
    assert not added & {"dataclasses", "inspect"}


_TAINT = frozenset({("o", ())})
_RECORDS = [
    (TaintedText("a<b", _TAINT), TaintedText("a<b", _TAINT, False),
     TaintedText("a<b", _TAINT, True),
     "TaintedText(text='a<b', taint=frozenset({('o', ())}), "
     "safe_marked=False)", "text"),
    (TaintedNumber(7, _TAINT), TaintedNumber(7, _TAINT), TaintedNumber(7),
     "TaintedNumber(value=7, taint=frozenset({('o', ())}))", "value"),
    (Template(("x", ""), (Expansion(("a",), (), "{{a}}"),), (0,)),
     Template(literals=("x", ""), occurrences=(0,),
              expansions=(Expansion(("a",), (), "{{a}}"),)),
     Template(("y", ""), (Expansion(("a",), (), "{{a}}"),), (0,)),
     "Template(literals=('x', ''), expansions=(Expansion(path=('a',), "
     "filters=(), raw='{{a}}'),), occurrences=(0,))", "literals"),
    (ReportSummary(2, 1, 1, {BugPattern.HtmlInUri: 1}),
     ReportSummary(sanitizations=2, correct=1, incorrect=1,
                   pattern_counts={BugPattern.HtmlInUri: 1}),
     ReportSummary(2, 2, 0, {}),
     "ReportSummary(sanitizations=2, correct=1, incorrect=1, pattern_counts="
     "{<BugPattern.HtmlInUri: 'HtmlInUri'>: 1})", "correct"),
]


@pytest.mark.parametrize("record, same, other, text, field", _RECORDS,
                         ids=[type(r[0]).__name__ for r in _RECORDS])
def test_records_compare_by_value_and_cannot_change(record, same, other,
                                                    text, field):
    assert record == same and record != other
    assert repr(record) == text
    if type(record) is not ReportSummary:  # a dict field has no hash
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_bundle_compares_by_value_and_cannot_change():
    registry = SinkRegistry(seed=1)
    registry.register(_TAINT, "s")
    bundle = Bundle("<p>", registry)
    assert bundle == Bundle(document="<p>", registry=registry)
    assert bundle != Bundle("<p>", SinkRegistry())
    assert repr(bundle).startswith("Bundle(document='<p>', registry=")
    with pytest.raises(TypeError):  # the registry is unhashable
        hash(bundle)
    with pytest.raises(AttributeError):
        bundle.document = ""


def test_tainted_text_acts_as_its_text():
    value = TaintedText("abc", _TAINT, True)
    assert len(value) == 3 and len(TaintedText("")) == 0
    assert not TaintedText("") and value
    assert value[1] == TaintedText("b", _TAINT, True)
    assert value[-2:] == TaintedText("bc", _TAINT, True)
    assert value[::-1].text == "cba"
    other = TaintedText("d", frozenset({("p", ("html_escape",))}))
    assert value + other == TaintedText("abcd", _TAINT | other.taint, False)
    assert value + "d" == TaintedText("abcd", _TAINT, False)
    assert "z" + value == TaintedText("zabc", _TAINT, False)
    # Iteration and "in" act on the fields, as a tuple's do.
    assert list(value) == ["abc", _TAINT, True]
    assert "abc" in value and "b" not in value
