"""The CLI contract at scale, in the printed reports: the paper's closed forms
at arity 1000, the set-function profile and Möbius table at arity 16,
Monte-Carlo estimates within a few standard errors of the exact or
closed-form numbers, the same bytes from every run and on one CPU, and the
exit of a command whose stdout is closed.  Every command runs through
``cli.main`` in this process, except where a fresh process is what is
checked."""

import json
import math
import os
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ordinfluence import cli

from conftest import run_fresh

SPECS = {
    "min1": {"kind": "builtin", "name": "min", "arity": 1},
    "pp4": {"kind": "power-product", "arity": 4, "exponent": "1/2"},
    "os6": {"kind": "orderstat-polynomial", "arity": 6, "constant": "1/3",
            "terms": [{"coefficient": "3/2", "exponents": {"2": 1, "5": 2}},
                      {"coefficient": "-1", "exponents": {"6": 1}}]},
    "gmean8": {"kind": "builtin", "name": "geometric-mean", "arity": 8},
    "amean8": {"kind": "builtin", "name": "arithmetic-mean", "arity": 8},
    "amean14": {"kind": "builtin", "name": "arithmetic-mean", "arity": 14},
    "mean16": {"kind": "builtin", "name": "arithmetic-mean", "arity": 16},
    "gmean16": {"kind": "builtin", "name": "geometric-mean", "arity": 16},
    "product40": {"kind": "builtin", "name": "product", "arity": 40},
    "median1000": {"kind": "builtin", "name": "median", "arity": 1000},
    "variance1000": {"kind": "builtin", "name": "variance", "arity": 1000},
    "product1000": {"kind": "builtin", "name": "product", "arity": 1000},
    "x1-1000": {"kind": "plain-polynomial", "arity": 1000,
                "terms": [{"coefficient": 1, "exponents": {"1": 1}}]},
}

# the exact extras of the closed forms at n = 1000: the variance's mean
# (n-1)/(12n) and R^2 = 2(n+2)^2 / (2(n+2)^2 + n + 1), and x_1's R^2 = 1/n
# and residual (n-1)/(12n)
EXACT_EXTRAS = {
    "variance1000": {"mean": "333/4000", "r_squared": "2008008/2009009"},
    "x1-1000": {"r_squared": "1/1000", "residual_norm_sq": "333/4000"},
}

ALL_ESTIMATORS = ("covariance,derivative,diff-quotient-uniform,"
                  "diff-quotient-triangular")
NO_DERIVATIVE = "covariance,diff-quotient-uniform,diff-quotient-triangular"
MC_OPTIONS = ["--samples", "100000", "--seed", "1"]

# Runs cli.main on each argv of the JSON list in argv[1], with stdout
# captured, and prints the exit codes and outputs with the size of the
# process's affinity mask.
CLI_OUTPUTS = """
import contextlib, io, json, os, sys
from ordinfluence import cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps({"cpus": len(os.sched_getaffinity(0)), "runs": runs}))
"""


def write_spec(tmp_path, name, doc=None):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(SPECS[name] if doc is None else doc))
    return str(path)


def run(capsys, *argv):
    """``cli.main(argv)``'s exit code, 0 or 5, and stdout; stderr is empty."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 5) and err == "", (argv, code, err)
    return code, out


def report(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0, argv
    return json.loads(out)


def random_twelfths(n):
    """2^n strings k/12 from a generator seeded with n, and the generator."""
    rng = random.Random(n)
    return ["%d/12" % rng.randint(-12, 12) for _ in range(1 << n)], rng


@pytest.fixture(scope="module")
def arity16_values():
    """A set function's values as strings k/12, and then, from the same
    generator, as JSON numbers of six decimals, such as -0.276954."""
    twelfths, rng = random_twelfths(16)
    return twelfths, [round(rng.uniform(-1, 1), 6) for _ in range(1 << 16)]


def scaled(values, scale):
    """Each value, a string or a JSON number meaning the decimal it spells,
    times ``scale``, which makes it an integer."""
    out = [Fraction(v if isinstance(v, str) else repr(v)) * scale
           for v in values]
    assert all(v.denominator == 1 for v in out)
    return [v.numerator for v in out]


@pytest.mark.parametrize("name", ["min1", "mean16", "product40", "median1000",
                                  "variance1000", "product1000", "x1-1000"])
def test_exact_approx_prints_finite_normalized_indices(tmp_path, capsys, name):
    # |r(f, k)| <= 1 by Cauchy-Schwarz, and r(f, 1) = 1 where f = x_1 lies
    # in the span (min at arity 1)
    doc = SPECS[name]
    out = report(capsys, "approx", write_spec(tmp_path, name), "--method",
                 "exact")
    assert out["command"] == "approx" and out["spec"] == doc
    rows = out["results"]
    assert [row["k"] for row in rows] == list(range(1, doc["arity"] + 1))
    for row in rows:
        r = row["normalized"]
        assert math.isfinite(r) and abs(r) <= 1, row
    if doc["arity"] == 1:
        assert rows[0]["normalized"] == 1.0
    for key, want in EXACT_EXTRAS.get(name, {}).items():
        assert out["extras"][key]["rational"] == want, out["extras"][key]


@pytest.mark.parametrize("name", ["product1000", "x1-1000"])
def test_exact_profile_at_arity_1000(tmp_path, capsys, name):
    out = report(capsys, "influence", write_spec(tmp_path, name), "--all",
                 "--method", "exact")
    rows = out["results"]
    assert [row["k"] for row in rows] == list(range(1, 1001))
    assert all(math.isfinite(row["value"]) for row in rows)
    if name == "x1-1000":
        # I(x_1, k) = 1/n
        assert all(row["rational"] == "1/1000" for row in rows), rows[0]


def test_mc_profile_of_variance_at_arity_1000(tmp_path, capsys):
    out = report(capsys, "influence", write_spec(tmp_path, "variance1000"),
                 "--all", "--method", "mc", "--samples", "20000", "--seed",
                 "1")
    rows = out["results"]
    assert [row["k"] for row in rows] == list(range(1, 1001))
    for row in rows:
        assert math.isfinite(row["value"]) and row["se"] > 0, row


@pytest.mark.parametrize("which, scale", [(0, 12), (1, 10 ** 6)],
                         ids=["twelfths", "decimals"])
def test_set_function_profile_and_mobius_at_arity_16(tmp_path, capsys,
                                                     arity16_values, which,
                                                     scale):
    n, values = 16, arity16_values[which]
    path = write_spec(tmp_path, "setfn16", {"kind": "set-function",
                                            "arity": n, "values": values})
    ints = scaled(values, scale)
    # I(f, k) = vbar(n-k+1) - vbar(n-k), vbar(s) the average of v over the
    # sets of size s
    sums = [0] * (n + 1)
    for mask, value in enumerate(ints):
        sums[mask.bit_count()] += value
    vbar = [Fraction(sums[s], comb(n, s) * scale) for s in range(n + 1)]
    rows = report(capsys, "influence", path, "--all", "--method",
                  "exact")["results"]
    assert [row["k"] for row in rows] == list(range(1, n + 1))
    for row in rows:
        k = row["k"]
        assert Fraction(row["rational"]) == vbar[n - k + 1] - vbar[n - k], row
    # the zeta transform of the Möbius table gives back v, in integers
    out = report(capsys, "lovasz", path, "--mobius")
    assert len(out["results"]) == n and len(out["extras"]["mobius"]) == 1 << n
    table = np.array(scaled(out["extras"]["mobius"], scale), dtype=np.int64)
    for i in range(n):
        halves = table.reshape(-1, 2, 1 << i)
        halves[:, 1] += halves[:, 0]
    assert table.tolist() == ints


def test_set_function_approx_and_symmetric_part_at_arity_16(
        tmp_path, capsys, arity16_values):
    values = arity16_values[0]
    path = write_spec(tmp_path, "setfn16", {"kind": "set-function",
                                            "arity": 16, "values": values})
    out = report(capsys, "approx", path, "--method", "exact")
    assert out["command"] == "approx" and len(out["results"]) == 16
    part = report(capsys, "lovasz", path, "--symmetric-part")
    constant = part["extras"]["symmetric_part"]["constant"]
    assert Fraction(constant) == Fraction(values[0])


@pytest.mark.parametrize("command", [["influence", "--all"], ["approx"]],
                         ids=["influence", "approx"])
@pytest.mark.parametrize("name, reference", [
    ("gmean8", "closed-form"),
    # np.sort sorts the rows at arity 16
    ("gmean16", "closed-form"),
    # the set function's masks come from argsort
    ("setfn14", "exact"),
], ids=["geometric-mean-8", "geometric-mean-16", "set-function-14"])
def test_mc_within_3_se_of_the_reference(tmp_path, capsys, name, reference,
                                         command):
    doc = ({"kind": "set-function", "arity": 14,
            "values": random_twelfths(14)[0]}
           if name == "setfn14" else None)
    path = write_spec(tmp_path, name, doc)
    n = (doc or SPECS[name])["arity"]
    argv = [command[0], path, *command[1:], "--method"]
    mc = report(capsys, *argv, "mc", *MC_OPTIONS)
    ref = report(capsys, *argv, reference)
    assert len(mc["results"]) == len(ref["results"]) == n
    for out in (mc, ref):
        for row in out["results"]:
            assert row["method"] == out["requested"]["method"], row
    for est, want in zip(mc["results"], ref["results"]):
        assert est["k"] == want["k"] and est["se"] > 0, (est, want)
        assert abs(est["value"] - want["value"]) <= 3 * est["se"], (est, want)
    if command[0] == "approx":
        for key in ("a_tail", "mean", "r_squared"):
            est, se = mc["extras"][key]["value"], mc["extras"][key + "_se"]
            want = ref["extras"][key]["value"]
            assert se > 0 and abs(est - want) <= 3 * se, (key, est, se, want)


@pytest.mark.parametrize("name, k", [("pp4", 2), ("gmean16", 8)],
                         ids=["power-product-4", "geometric-mean-16"])
def test_crosscheck_estimators_within_5_se_of_the_closed_form(
        tmp_path, capsys, name, k):
    _, out = run(capsys, "crosscheck", write_spec(tmp_path, name), "-k",
                 str(k), "--estimators", ALL_ESTIMATORS, *MC_OPTIONS,
                 "--format", "json")
    rows = json.loads(out)["results"]
    ref = [row for row in rows if row["method"] == "closed-form"]
    mc = [row for row in rows if row["method"].startswith("mc:")]
    assert len(ref) == 1 and len(mc) == 4, rows
    for est in mc:
        assert est["k"] == ref[0]["k"] == k and est["se"] > 0, (est, ref)
        assert abs(est["value"] - ref[0]["value"]) <= 5 * est["se"], (est, ref)


def test_mc_reports_are_the_same_bytes_every_run_and_on_one_cpu(tmp_path,
                                                                capsys):
    # neither the draw worker, pinned off the caller's CPU, nor the BLAS
    # thread count reaches the numbers; evaluators that read order
    # statistics (os6) take the estimator's sorted block
    runs = []
    for name in ("gmean8", "amean8", "os6"):
        for command in (["influence", "--all"], ["approx"]):
            runs.append([command[0], write_spec(tmp_path, name), *command[1:],
                         "--method", "mc", *MC_OPTIONS, "--format", "json"])
    # every crosscheck estimator accumulates one quantity per point; above
    # arity 12 they read np.sort's result copied into their block.  The
    # difference quotient moves row k-1 of that block in place, for a map
    # that reads only the block (os6) and for one that reads the points and
    # the block above arity 12 (amean14)
    for name, k, estimators in (("pp4", 2, ALL_ESTIMATORS),
                                ("amean8", 2, ALL_ESTIMATORS),
                                ("gmean16", 8, ALL_ESTIMATORS),
                                ("os6", 5, NO_DERIVATIVE),
                                ("amean14", 7, NO_DERIVATIVE)):
        runs.append(["crosscheck", write_spec(tmp_path, name), "-k", str(k),
                     "--estimators", estimators, *MC_OPTIONS, "--format",
                     "json"])
    first = [list(run(capsys, *argv)) for argv in runs]
    assert all(code == 0 for (code, _), argv in zip(first, runs)
               if argv[0] != "crosscheck")
    for _ in range(2):
        assert [list(run(capsys, *argv)) for argv in runs] == first
    child = run_fresh("-c", CLI_OUTPUTS, json.dumps(runs), one_cpu=True)
    assert json.loads(child.stdout) == {"cpus": 1, "runs": first}


@pytest.mark.parametrize("name, command", [
    ("min1", ["influence", "--all", "--method", "exact"]),
    # more than the stdout buffer holds, so the write itself fails
    ("x1-1000", ["influence", "--all", "--method", "exact", "--format",
                 "json"]),
], ids=["flush", "write"])
def test_closed_stdout_exits_1_without_a_message(tmp_path, name, command):
    path = write_spec(tmp_path, name)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the child writes
    try:
        proc = run_fresh("-m", "ordinfluence", command[0], path, *command[1:],
                         stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr == ""
