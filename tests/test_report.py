"""The report's JSON writer against ``json.dumps(..., indent=2,
sort_keys=True)`` of the document with its non-finite float values as None,
byte for byte."""

import json
import math
import random

import pytest

from ordinfluence.report import ReportDocument, _to_json

STRINGS = ("", "k", "1/3", "-17/12", 'quote " and \\ backslash',
           "tab\tnew\nline\x00\x1f", "café", "中文",
           "\U0001f600 emoji", "  separator")
FLOATS = (0.0, -0.0, 0.1, -2.5, 1e-300, 1.7976931348623157e308, 5e-324,
          math.nan, math.inf, -math.inf)
INTS = (0, 1, -1, 12, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 3 ** 90)
SCALARS = STRINGS + FLOATS + INTS + (True, False, None)


def strict(value):
    """``value`` with every non-finite float value, but no key, as None: the
    document ``json.dumps`` writes as strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [strict(item) for item in value]
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    return value


def dumps(value):
    return json.dumps(strict(value), indent=2, sort_keys=True)


def random_json(rng, depth=0):
    kind = rng.randrange(8 if depth < 4 else 1)
    if kind == 0:
        return rng.choice(SCALARS)
    if kind == 1:  # a long list of strings, as in a set function's echo
        return [rng.choice(STRINGS) for _ in range(rng.randrange(40))]
    if kind == 2:  # strings, then something else
        return [rng.choice(STRINGS) for _ in range(rng.randrange(5))] + [
            random_json(rng, depth + 1)]
    if kind == 3:
        return [random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:  # rows, as in a report's results
        return [{"k": k, "value": rng.choice(FLOATS), "se": None,
                 "rational": rng.choice(STRINGS)} for k in range(rng.randrange(4))]
    if kind == 5:
        return tuple(random_json(rng, depth + 1) for _ in range(rng.randrange(3)))
    keys = rng.choice((STRINGS, INTS, FLOATS[:-3], (True, False)))
    return {rng.choice(keys): random_json(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def test_random_documents_match_json_dumps():
    rng = random.Random(2026_11)
    for _ in range(400):
        doc = random_json(rng)
        assert _to_json(doc, "") == dumps(doc)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[]]}, [None, True, False],
    {"z": 1, "a": 2, "m": {"y": [1.5, "x"], "b": None}},
    {None: 1}, {True: 2, False: 3}, {1.5: "x", -2.0: "y", math.nan: "z"},
    ["1/3"] * 5 + [7], [[str(i)] for i in range(3)],
])
def test_edge_documents_match_json_dumps(value):
    assert _to_json(value, "") == dumps(value)


@pytest.mark.parametrize("value", [
    {(1, 2): 3}, {"a": object()}, [1, {"b": {1j}}], {"a": 1, 2: "b"},
])
def test_unencodable_documents_raise_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _to_json(value, "")


def test_report_document_matches_asdict_rendering():
    rng = random.Random(7)
    doc = ReportDocument(
        command="approx",
        spec={"kind": "set-function", "arity": 4,
              "values": [rng.choice(STRINGS) for _ in range(16)]},
        requested={"method": "exact", "quantity": "approximation"},
        results=[{"k": k, "value": 0.25 * k, "rational": "%d/4" % k,
                  "se": None, "method": "exact", "normalized": math.nan}
                 for k in range(1, 5)],
        extras={"mobius": ["0", "1/4", "-1/4", "é"], "max_z": math.inf,
                "agreement": False, "witnesses": {}},
        warnings=[], seed=2 ** 64, version="0.1.0")
    text = doc.to_json()
    assert text == dumps(vars(doc))
    assert ReportDocument.from_json(text).to_json() == text

