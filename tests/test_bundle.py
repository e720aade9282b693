from __future__ import annotations

import pytest

from ctxcheck.bundle import (
    BundleError,
    dump_bundle,
    load_bundle,
)
from ctxcheck.template import parse_template, render


def _rendered():
    template = parse_template('<a href="{{u}}">{{u}}</a>')
    return render(template, {"u": "https://example.com/x"}, seed=3)


def test_dump_load_round_trip():
    document, registry = _rendered()
    bundle = load_bundle(dump_bundle(document, registry))
    assert bundle.document == document
    assert bundle.registry == registry


def test_dump_uses_declared_field_names():
    document, registry = _rendered()
    data = dump_bundle(document, registry)
    assert set(data) == {"document", "registry"}
    token, entry = next(iter(data["registry"].items()))
    assert set(entry) == {"sink", "taints"}
    assert set(entry["taints"][0]) == {"origin", "chain"}
    assert token.startswith("xtnt")


def test_chunked_document_is_assembled():
    document, registry = _rendered()
    data = dump_bundle(document, registry)
    data["document"] = [document[:7], document[7:]]
    assert load_bundle(data).document == document


def test_chunks_are_joined_in_order_and_may_be_empty():
    document, registry = _rendered()
    data = dump_bundle(document, registry)
    data["document"] = ["<p>", "tok", "</p>"]
    assert load_bundle(data).document == "<p>tok</p>"
    data["document"] = []
    assert load_bundle(data).document == ""


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("document"),
    lambda d: d.pop("registry"),
    lambda d: d.update(document=42),
    lambda d: d.update(registry=[]),
    lambda d: d["registry"].update({"badtoken": {"sink": "s", "taints": [
        {"origin": "o", "chain": []}]}}),
    lambda d: next(iter(d["registry"].values())).update(taints=[]),
    lambda d: next(iter(d["registry"].values())).update(taints=[{"origin": ""}]),
    lambda d: next(iter(d["registry"].values())).update(sink=""),
    lambda d: next(iter(d["registry"].values()))["taints"].__setitem__(
        0, {"origin": "o", "chain": [3]}),
])
def test_load_rejects_malformed_bundles(mutate):
    document, registry = _rendered()
    data = dump_bundle(document, registry)
    mutate(data)
    with pytest.raises(BundleError):
        load_bundle(data)
