"""Report documents emitted by the CLI: table, JSON and CSV renderings.

JSON output is strict (RFC 8259) and lossless for finite values:
``ReportDocument.from_json(doc.to_json())`` equals ``doc`` except that a
non-finite float value, such as the infinite z-score of a disagreement with
zero standard error, is written as ``null``, as ``JSON.stringify`` writes it.
Exact values are carried both as a rational string and a decimal accurate to
at least 15 significant digits.
"""

from __future__ import annotations

import io
import csv as csv_module
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .exact import rational_string
from .record import Record


def format_value(value) -> dict:
    """Render a result value as {'value': decimal, 'rational': str or None}."""
    if isinstance(value, (Fraction, int)):
        return {"value": float(value),
                "rational": rational_string(*value.as_integer_ratio())}
    return {"value": float(value), "rational": None}


def _key_json(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            "not %s" % type(key).__name__)
        # as json.dumps writes a key: a NaN key is the string "NaN"
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _float_json(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


# the JSON text of a scalar, by its exact type
_SCALAR_JSON = {str: encode_basestring_ascii, type(None): lambda value: "null",
                bool: lambda value: "true" if value else "false",
                int: int.__repr__, float: _float_json}


def _to_json(value, indent: str) -> str:
    """``value`` laid out as ``json.dumps(value, indent=2, sort_keys=True)``
    lays it out, nested at ``indent``, except that a non-finite float value is
    ``null``.  The json module writes that layout with its pure-Python
    encoder.  Here a scalar is looked up by its exact type, and a subclass
    (an ``IntEnum`` member) tested for after; every string goes through the C
    string encoder, a whole list of strings at once; and a list of dicts with
    one key set of str keys, such as the report's rows, has those keys sorted
    and encoded once for the whole list."""
    scalar = _SCALAR_JSON.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of strings, such as a spec echo, in one C pass
            items = list(map(encode_basestring_ascii, value))
        except TypeError:  # some item is not a string
            items = (_rows_json(value, inner)
                     or [_to_json(item, inner) for item in value])
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_key_json(key) + ": " + _to_json(item, inner)
                 for key, item in sorted(value.items())]
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def _rows_json(rows, indent: str):
    """The JSON text of each of ``rows``, nested at ``indent``, when they are
    dicts with one nonempty key set of str keys; else None."""
    keys = rows[0].keys() if type(rows[0]) is dict else ()
    if not keys or not all(type(key) is str for key in keys) or not all(
            type(row) is dict and row.keys() == keys for row in rows):
        return None
    order = sorted(keys)
    inner = indent + "  "
    heads = [encode_basestring_ascii(key) + ": " for key in order]
    join = (",\n" + inner).join
    return ["{\n%s%s\n%s}" % (inner, join([head + _to_json(row[key], inner)
                                          for head, key in zip(heads, order)]),
                              indent)
            for row in rows]


class ReportDocument(Record):
    _fields = ("command", "spec", "requested", "results", "extras",
               "warnings", "seed", "version")

    def __init__(self, command: str, spec: dict, requested: dict,
                 results: list, extras: Optional[dict] = None,
                 warnings: Optional[list] = None, seed: Optional[int] = None,
                 version: str = ""):
        self.command = command
        self.spec = spec
        self.requested = requested
        self.results = results
        self.extras = {} if extras is None else extras
        self.warnings = [] if warnings is None else warnings
        self.seed = seed
        self.version = version

    def to_json(self) -> str:
        # the fields hold plain JSON values, so this is the text of
        # json.dumps of the fields, with indent=2 and sort_keys=True
        return _to_json(dict(zip(self._fields, self._key())), "")

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        return cls(**json.loads(text))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv_module.writer(buf)
        normalized = self._has_normalized()
        writer.writerow(["k", "value", "rational", "se", "method"]
                        + ["normalized"] * normalized)
        for row in self.results:
            writer.writerow([row.get("k", ""), row.get("value", ""),
                             row.get("rational") or "",
                             row.get("se", "") if row.get("se") is not None else "",
                             row.get("method", "")]
                            + [row.get("normalized", "")] * normalized)
        return buf.getvalue()

    def _has_normalized(self) -> bool:
        """Whether some row carries r(f, k), which then gets a column."""
        return any("normalized" in row for row in self.results)

    def to_table(self) -> str:
        lines = ["%s report (spec kind=%s, arity=%s)"
                 % (self.command, self.spec.get("kind"), self.spec.get("arity"))]
        if self.seed is not None:
            lines.append("seed: %d" % self.seed)
        for key, value in sorted(self.requested.items()):
            lines.append("%s: %s" % (key, value))
        if self.results:
            lines.append("")
            normalized = self._has_normalized()
            lines.append("%4s  %22s  %18s  %12s  " % ("k", "value", "rational", "se")
                         + ("%22s  " % "normalized") * normalized + "method")
            for row in self.results:
                se = row.get("se")
                lines.append("%4s  %22.15g  %18s  %12s  "
                             % (row.get("k", ""), row.get("value", float("nan")),
                                row.get("rational") or "-",
                                ("%.3g" % se) if se is not None else "-")
                             + ("%22.15g  " % row.get("normalized", float("nan")))
                             * normalized + row.get("method", ""))
        for key, value in sorted(self.extras.items()):
            lines.append("%s: %s" % (key, value))
        for warning in self.warnings:
            lines.append("warning: %s" % warning)
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        return self.to_table()
