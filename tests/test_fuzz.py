"""A seeded fuzz of spec documents through ``cli.main``.

Each case is a spec document of one of the six file kinds, built valid and
then mutated in its fields, types, lengths or magnitudes.  The numbers lean
to the float extremes (constants and coefficients of +-1e308, set functions
whose values take both signs) and to rationals of up to 4300 digits, whose
results print past the interpreter's limit on int strings; the mutations
lean to the bounds that ``funcspec`` checks.  Every subcommand runs on each
document in-process, with warnings raised as errors.  Each run must exit
with a code of the README's table, print a report that parses in the
requested format when it exits 0, and write nothing to stderr on exits 0
and 5 and one ``error:`` line otherwise.
"""

import contextlib
import csv
import io
import json
import math
import random
import re
import warnings

import pytest

from ordinfluence import cli
from ordinfluence.funcspec import BUILTIN_NAMES, KIND_FIELDS, MAX_SIZE
from ordinfluence.lovasz import MAX_ARITY

from test_readme import TEXT as README_TEXT

EXIT_CODES = {int(code) for code in re.findall(
    r"^\| (\d+) \|", README_TEXT.split("### Exit codes")[1].split("###")[0],
    re.MULTILINE)}

# numbers at or near the float extremes, the two signs of each
EXTREMES = (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
            1e-308, 5e-324, -5e-324, "1e400", "-1e-400", 10 ** 400)
# values of the wrong JSON type for any field
WRONG_TYPES = (True, None, [], {}, "x", "1/0", [1], {"1": 1})
# arities at and past the bounds; MAX_ARITY itself, 2^20 values, is left out
ARITY_BOUNDS = (0, -1, 2.0, "3", MAX_ARITY + 1, MAX_SIZE, MAX_SIZE + 1)


def digits(rng, count):
    """``count`` decimal digits, the first nonzero, spelled one by one, so
    that no int is converted to a string past the interpreter's limit."""
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789",
                                                        k=count - 1))


def long_rational(rng):
    """A rational string whose numerator or denominator has 1000 to 4300
    digits: it parses under the interpreter's default limit on int strings
    (4300 digits), while the results it makes can run past it."""
    long = digits(rng, rng.randint(1000, 4300))
    return rng.choice(("1/" + long, "-%s/%s" % (long, digits(rng, len(long))),
                       long + "/7"))


def number(rng):
    """A JSON number or rational string, an extreme one half of the time."""
    if rng.random() < 0.5:
        return rng.choice(EXTREMES)
    return rng.choice((rng.randint(-9, 9), rng.uniform(-4, 4),
                       "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 9)),
                       long_rational(rng)))


def terms(rng, n):
    """Up to three terms over the slots 1..n, their exponents at the bound
    of order-statistic exponents now and then."""
    out = []
    for _ in range(rng.randint(0, 3)):
        slots = rng.sample(range(1, n + 1), rng.randint(0, min(n, 2)))
        out.append({"coefficient": number(rng), "exponents": {
            str(i): rng.choice((1, 2, 3, MAX_SIZE, MAX_SIZE + 1))
            for i in slots}})
    return out


def set_function_values(rng, n):
    """2^n values: small rationals, one of them long now and then, or
    extremes of both signs."""
    if rng.random() < 0.5:
        return [rng.choice((1e308, -1e308, 1.7976931348623157e308, 0))
                for _ in range(1 << n)]
    values = ["%d/%d" % (rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(1 << n)]
    if rng.random() < 0.5:
        values[rng.randrange(1 << n)] = long_rational(rng)
    return values


def exponent(rng):
    """A factor exponent, at its bound -1/2 now and then."""
    return rng.choice(("-1/2", "-0.4999", -0.49, 0, "1/3", 2, 1e308))


def valid_document(rng, kind):
    n = rng.choice((1, 2, 3, 4, 5, 8))
    doc = {"kind": kind, "arity": n}
    if kind in ("orderstat-polynomial", "plain-polynomial"):
        doc["terms"] = terms(rng, n)
        doc["constant"] = number(rng)
    elif kind == "set-function":
        doc["values"] = set_function_values(rng, n)
    elif kind == "multiplicative":
        doc["factors"] = [{"exponent": exponent(rng)} for _ in range(n)]
    elif kind == "power-product":
        doc["exponent"] = exponent(rng)
    else:
        doc["name"] = rng.choice(BUILTIN_NAMES)
    return doc


def mutate(rng, doc):
    """``doc`` with one change to a field, a type, a length or a magnitude."""
    key = rng.choice(list(doc))
    roll = rng.randrange(5)
    if roll == 0:
        del doc[key]
    elif roll == 1:
        doc[rng.choice(("extra", key + "s"))] = 1
    elif roll == 2:
        doc[key] = rng.choice(WRONG_TYPES)
    elif roll == 3:
        doc["arity"] = rng.choice(ARITY_BOUNDS)
    else:
        payload = next((doc[k] for k in ("values", "factors", "terms")
                        if isinstance(doc.get(k), list) and doc[k]), None)
        if payload is None:
            doc[key] = rng.choice(EXTREMES)
        elif rng.random() < 0.5:
            payload.pop()
        else:
            # one more item, or, for terms, one more than MAX_SIZE
            payload.extend(payload[:1] * (MAX_SIZE + 1 - len(payload)
                                          if payload is doc.get("terms")
                                          else 1))
    return doc


def document(rng):
    doc = valid_document(rng, rng.choice(list(KIND_FIELDS)))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
        doc = mutate(rng, doc)
    return doc


def commands(rng, spec):
    """Every subcommand on the file ``spec``, with a method, rank, seed and
    format of its own."""
    def common():
        return ["--seed", str(rng.randrange(4)),
                "--format", rng.choice(("json", "table", "csv"))]

    def method():
        return ["--method", rng.choice(("auto", "exact", "closed-form", "mc")),
                "--samples", "2000"]
    return [
        ["influence", spec, "--all"] + method() + common(),
        ["approx", spec] + method() + common(),
        ["lovasz", spec, "--mobius", "--symmetric-part",
         "--diagnose-equal-influence"] + common(),
        ["crosscheck", spec, "-k", str(rng.randint(1, 3)),
         "--samples", "2000"] + common(),
    ]


def check_report(argv, out):
    """The report ``out`` parses in the format that ``argv`` asks for."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        def refuse(constant):
            raise ValueError("not strict JSON: %s" % constant)
        doc = json.loads(out, parse_constant=refuse)
        assert doc["command"] == argv[0] and doc["results"], out
        for row in doc["results"]:
            assert math.isfinite(row["value"]), out
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["k", "value", "rational", "se", "method"]
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
        for row in rows[1:]:
            assert int(row[0]) >= 1 and math.isfinite(float(row[1])), out
    else:
        lines = out.splitlines()
        assert lines[0].startswith("%s report (spec kind=" % argv[0]), out
        head = next(i for i, line in enumerate(lines)
                    if line.split()[:2] == ["k", "value"])
        row = lines[head + 1].split()
        assert int(row[0]) >= 1 and math.isfinite(float(row[1])), out


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail("%s raised %r" % (argv, exc))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_documents_exit_as_documented(tmp_path, monkeypatch, seed):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    rng = random.Random(seed)
    for case in range(40):
        doc = document(rng)
        spec = tmp_path / ("%d.json" % case)
        spec.write_text(json.dumps(doc))
        for argv in commands(rng, str(spec)):
            code, out, err = run(argv)
            where = "%s on %s" % (argv, json.dumps(doc)[:300])
            assert code in EXIT_CODES, where
            if code in (0, 5):
                assert err == "", (where, err)
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (
                    where, err)
                assert out == "", where
            if code == 0:
                check_report(argv, out)
