"""Bundle files: a rendered document plus its serialized sink registry.

Bundles externalize the state between rendering and analysis so that
pre-annotated output from other producers can be ingested.  The document
may be a single string or a list of response chunks, which are
concatenated before analysis.  ``read_json`` reads every JSON file the
command line takes: bundles, environment files and context maps.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .annotations import RegistrationError, SinkRegistry


class BundleError(ValueError):
    """A bundle file is malformed."""


class Bundle(NamedTuple):
    document: str
    registry: SinkRegistry


def dump_bundle(document: str, registry: SinkRegistry) -> dict:
    """Serialize to the bundle shape; taints are sorted for determinism."""
    serialized = {}
    for token, entry in registry.items():
        taints = [
            {"origin": origin, "chain": list(chain)}
            for origin, chain in sorted(entry.taint)
        ]
        serialized[token] = {"sink": entry.sink, "taints": taints}
    return {"document": document, "registry": serialized}


def load_bundle(data) -> Bundle:
    """Validate and rebuild a bundle from parsed JSON."""
    if not isinstance(data, dict):
        raise BundleError("bundle must be an object")
    if "document" not in data or "registry" not in data:
        raise BundleError("bundle needs document and registry fields")
    document = data["document"]
    if isinstance(document, list):
        if not all(isinstance(chunk, str) for chunk in document):
            raise BundleError("document chunks must be strings")
        document = "".join(document)
    elif not isinstance(document, str):
        raise BundleError("document must be a string or a list of chunks")
    raw_registry = data["registry"]
    if not isinstance(raw_registry, dict):
        raise BundleError("registry must map tokens to entries")
    registry = SinkRegistry()
    for token, entry in raw_registry.items():
        if not isinstance(entry, dict):
            raise BundleError(f"registry entry for {token!r} must be an object")
        sink = entry.get("sink")
        taints = entry.get("taints")
        if not isinstance(sink, str) or not sink:
            raise BundleError(f"registry entry for {token!r} needs a sink")
        if not isinstance(taints, list):
            raise BundleError(f"registry entry for {token!r} needs taints")
        parsed = set()
        for item in taints:
            origin, chain = _parse_taint(token, item)
            parsed.add((origin, chain))
        try:
            registry.add(token, frozenset(parsed), sink)
        except RegistrationError as exc:
            raise BundleError(str(exc)) from None
    return Bundle(document, registry)


def _parse_taint(token: str, item) -> tuple[str, tuple[str, ...]]:
    if not isinstance(item, dict):
        raise BundleError(f"taint entry for {token!r} must be an object")
    origin = item.get("origin")
    chain = item.get("chain")
    if not isinstance(origin, str) or not origin:
        raise BundleError(f"taint entry for {token!r} needs an origin")
    if not isinstance(chain, list) or \
            not all(isinstance(s, str) and s for s in chain):
        raise BundleError(f"taint entry for {token!r} has a malformed chain")
    return origin, tuple(chain)


def read_json(path, error: type[Exception], name: str):
    """Parse the JSON file at ``path``, which the messages call ``name``.

    Malformed JSON, nesting deeper than the recursion limit and an
    integer of more digits than int() converts (4,300 by default)
    raise ``error``; text that is not UTF-8 raises UnicodeDecodeError.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{name} JSON is nested too deeply") from None
    except ValueError as exc:
        raise error(f"{name} JSON cannot be read: {exc}") from None


def read_bundle(path) -> Bundle:
    return load_bundle(read_json(path, BundleError, "bundle"))
