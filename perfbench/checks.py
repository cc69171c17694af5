"""Checks of one op's JSON output against the references in ``oracles``.

Tolerances:

* exact output against an exact reference: equality of the rationals;
* any output against a float reference, or a float output against an exact
  one: |got - ref| <= 1e-9 * max(|ref|, scale), with ``scale`` the natural
  size of the quantity (the largest index for a profile, <f, f> for a
  residual, 1 for R^2);
* an estimate against a reference: |z| <= 5 with the reported standard
  error.  Over the <= 200 comparisons a run makes this keeps the family-wise
  false-alarm rate near 1e-4, where a 3-SE rule would fail routinely.

Exact ``approx`` on a plain polynomial that is not symmetric reports R^2,
the residual and r(f, k) of Sym f instead of f (ROADMAP item 1).  An op
whose only mismatches are exactly those values is classed ``known_defect``,
not ``pass``; any other mismatch is ``fail``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import oracles

REL_TOL = 1e-9
Z_MAX = 5.0
KNOWN_DEFECT = ("ROADMAP item 1: exact R^2, residual and r(f,k) of a "
                "non-symmetric plain-polynomial are computed for Sym f")


@dataclass
class Verdict:
    status: str = "pass"  # pass | known_defect | fail
    problems: List[str] = field(default_factory=list)
    defects: List[str] = field(default_factory=list)
    max_se: Optional[float] = None  # largest index SE of an MC op


@dataclass(frozen=True)
class Reference:
    moments: oracles.Moments
    derived: Optional[oracles.Derived]  # None without <f, f>
    defect: Optional[oracles.Derived]  # what the known defect reports

    @classmethod
    def of(cls, moments: oracles.Moments) -> "Reference":
        if moments.norm_sq is None:
            return cls(moments, None, None)
        defect = None
        if moments.sym_norm_sq is not None and moments.sym_norm_sq != moments.norm_sq:
            defect = oracles.derive(moments, moments.sym_norm_sq)
        return cls(moments, oracles.derive(moments), defect)


class _Checker:
    def __init__(self):
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)
        return False

    def value(self, name, fmt, ref, scale):
        """Compare a {'value', 'rational'} rendering with a reference."""
        if not isinstance(fmt, dict) or "value" not in fmt:
            return self.fail("%s: missing" % name)
        rational = fmt.get("rational")
        if isinstance(ref, Fraction) and rational is not None:
            got = Fraction(rational)
            if got != ref or fmt["value"] != float(got):
                return self.fail("%s: %s != %s" % (name, rational, ref))
            return True
        got = float(Fraction(rational)) if rational is not None else fmt["value"]
        return self.close(name, got, ref, scale)

    def close(self, name, got, ref, scale):
        ref = float(ref)
        if got is None or not abs(got - ref) <= REL_TOL * max(abs(ref), scale):
            return self.fail("%s: %r vs reference %r" % (name, got, ref))
        return True

    def z(self, name, got, se, ref):
        if se is None or not se > 0 or got is None:
            return self.fail("%s: no standard error" % name)
        z = abs(got - float(ref)) / se
        if not z <= Z_MAX:
            return self.fail("%s: |z| = %.2f > %g (%r vs %r)" % (name, z, Z_MAX, got, float(ref)))
        return True


def _scales(ref: Reference):
    m, d = ref.moments, ref.derived
    profile = max([abs(float(a)) for a in m.indices] + [abs(float(m.mean))])
    return profile, (max(abs(r) for r in d.normalized) or 1.0) if d else 1.0


def _rows(c: _Checker, doc, n):
    rows = doc.get("results", [])
    if [r.get("k") for r in rows] != list(range(1, n + 1)):
        c.fail("rows: ranks %r, expected 1..%d" % ([r.get("k") for r in rows], n))
        return None
    return rows


def _fit_quantities(c, doc, rows, ref: Reference, derived):
    """R^2, residual and r(f, k) against one set of derived references."""
    m = ref.moments
    _, rscale = _scales(ref)
    c.value("r_squared", doc["extras"].get("r_squared"), derived.r_squared, 1.0)
    c.value("residual_norm_sq", doc["extras"].get("residual_norm_sq"),
            derived.residual, abs(float(m.norm_sq)))
    for row, r in zip(rows, derived.normalized):
        c.close("r(f,%d)" % row["k"], row.get("normalized"), r, rscale)


def _check_approx_deterministic(c, doc, ref: Reference):
    m, d = ref.moments, ref.derived
    pscale, _ = _scales(ref)
    rows = _rows(c, doc, m.n)
    if rows is None:
        return []
    for row, a in zip(rows, m.indices):
        c.value("a_%d" % row["k"], row, a, pscale)
    c.value("a_tail", doc["extras"].get("a_tail"), d.a_tail, pscale)
    c.value("mean", doc["extras"].get("mean"), m.mean, pscale)
    fit = _Checker()
    _fit_quantities(fit, doc, rows, ref, d)
    if not fit.problems or ref.defect is None:
        c.problems += fit.problems
        return []
    # the known defect: same quantities, derived from <Sym f, Sym f>
    alt = _Checker()
    _fit_quantities(alt, doc, rows, ref, ref.defect)
    if alt.problems:
        c.problems += fit.problems
        return []
    return fit.problems


def _check_approx_mc(c, doc, ref: Reference, samples: int):
    m, d = ref.moments, ref.derived
    n = m.n
    rows = _rows(c, doc, n)
    if rows is None:
        return
    for row, a in zip(rows, m.indices):
        c.z("a_%d" % row["k"], row.get("value"), row.get("se"), a)
    extras = doc["extras"]
    r2 = extras.get("r_squared", {}).get("value")
    c.z("r_squared", r2, extras.get("r_squared_se"), d.r_squared)
    mean = extras.get("mean", {}).get("value")
    c.z("mean", mean, math.sqrt(float(d.variance) / samples), m.mean)
    # the rest must follow from the checked primaries
    slopes = [row["value"] for row in rows]
    pscale = max(abs(x) for x in slopes + [mean])
    tail = mean - sum(k * a for k, a in enumerate(slopes, 1)) / (n + 1)
    c.close("a_tail", extras.get("a_tail", {}).get("value"), tail, pscale)
    var_l = oracles.lstat_variance(n, [Fraction(a) for a in slopes])
    residual = extras.get("residual_norm_sq", {}).get("value")
    variance = float(residual + float(var_l))
    c.close("r_squared (from residual)", r2, float(var_l) / variance, 1.0)
    scale = math.sqrt(variance) * math.sqrt(2 * (n + 1) * (n + 2))
    rs = [a / scale for a in slopes]
    for row, r in zip(rows, rs):
        c.close("r(f,%d) (from residual)" % row["k"], row.get("normalized"), r,
                max(abs(x) for x in rs))


def _check_lovasz(c, doc, spec_doc, ref: Reference):
    m = ref.moments
    rows = _rows(c, doc, m.n)
    if rows is not None:
        for row, a in zip(rows, m.indices):
            c.value("I(f,%d)" % row["k"], row, a, 0.0)
    extras = doc["extras"]
    values = [Fraction(v) for v in spec_doc["values"]]
    c.value("mean", extras.get("mean"), m.mean, 0.0)
    mob = oracles.mobius_exact(values)
    if [Fraction(x) for x in extras.get("mobius", [])] != mob:
        c.fail("mobius transform differs")
    part = extras.get("symmetric_part", {})
    if (Fraction(part.get("constant", "nan")) != values[0]
            or [Fraction(s) for s in part.get("slopes", [])] != list(m.indices)):
        c.fail("symmetric part differs")
    got = dict(extras.get("equal_influence", {}))
    got["first_violations"] = {k: v for k, v in got.get("first_violations", {}).items()}
    if got != oracles.equal_influence(values):
        c.fail("equal-influence diagnosis %r != %r" % (got, oracles.equal_influence(values)))


def _check_crosscheck(c, doc, ref: Reference, k: int, rc: int):
    target = ref.moments.indices[k - 1]
    pscale, _ = _scales(ref)
    rows = {}
    for row in doc.get("results", []):
        method = row.get("method", "")
        if row.get("k") != k:
            c.fail("crosscheck row for rank %r" % row.get("k"))
        if method.startswith("mc:"):
            c.z(method, row.get("value"), row.get("se"), target)
            rows[method[3:]] = row
        else:
            c.value(method, row, target, pscale)
            rows[method] = row
    zs = doc.get("extras", {}).get("z_scores", {})
    worst = 0.0
    for pair, reported in zs.items():
        a, b = (rows.get(name) for name in pair.split("|"))
        if a is None or b is None:
            c.fail("z-score pair %s has no rows" % pair)
            continue
        combined = math.hypot(a["se"], b["se"])
        z = abs(a["value"] - b["value"]) / combined
        c.close("z(%s)" % pair, reported, z, 1.0)
        if not z <= Z_MAX:
            c.fail("z(%s) = %.2f > %g" % (pair, z, Z_MAX))
        worst = max(worst, z)
    agreement = doc["extras"].get("agreement")
    if agreement != (worst <= 3.0) or rc != (0 if agreement else 5):
        c.fail("agreement %r with max z %.3f and exit %d" % (agreement, worst, rc))


def check_op(op, spec_doc: dict, ref: Reference, rc, stdout: str) -> Verdict:
    """Classify one op's output; ``rc`` is the CLI exit code (None if the
    call raised)."""
    c = _Checker()
    verdict = Verdict()
    allowed = (0, 5) if op.command == "crosscheck" else (0,)
    if rc not in allowed:
        c.fail("exit code %r" % (rc,))
    else:
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            doc = None
            c.fail("output is not JSON: %s" % exc)
        if doc is not None:
            if doc.get("command") != op.command:
                c.fail("command %r" % doc.get("command"))
            elif op.method and doc.get("requested", {}).get("method") != op.method:
                c.fail("method %r" % doc.get("requested", {}).get("method"))
            else:
                try:
                    verdict.defects = _check_doc(c, op, spec_doc, ref, rc, doc)
                except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    c.fail("malformed output: %r" % (exc,))
                if op.method == "mc":
                    verdict.max_se = max((r.get("se") or 0.0) for r in doc.get("results", [])) or None
    verdict.problems = c.problems
    if c.problems:
        verdict.status = "fail"
    elif verdict.defects:
        verdict.status = "known_defect"
    return verdict


def _check_doc(c, op, spec_doc, ref, rc, doc):
    m = ref.moments
    if op.command == "lovasz":
        _check_lovasz(c, doc, spec_doc, ref)
    elif op.command == "crosscheck":
        _check_crosscheck(c, doc, ref, int(op.args[op.args.index("-k") + 1]), rc)
    elif op.command == "influence":
        rows = _rows(c, doc, m.n)
        pscale, _ = _scales(ref)
        for row, a in zip(rows or [], m.indices):
            if op.method == "mc":
                c.z("I(f,%d)" % row["k"], row.get("value"), row.get("se"), a)
            else:
                c.value("I(f,%d)" % row["k"], row, a, pscale)
    elif op.method == "mc":
        _check_approx_mc(c, doc, ref, op.samples)
    else:
        return _check_approx_deterministic(c, doc, ref)
    return []
