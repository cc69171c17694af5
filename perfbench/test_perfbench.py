"""Tests of the benchmark itself (not of the program).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ordinfluence import cli  # noqa: E402

SAMPLES = 20_000


def run_and_check(tmp_path, doc, command, *args, method=None, samples=None,
                  subset_os=None, estimators=0):
    spec = workloads.Spec("spec", doc, subset_os)
    w = workloads.Workload("test")
    w.op(_Seq(), spec, command, *args, method=method, samples=samples,
         estimators=estimators)
    op = w.ops[0]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    rc, out, err, _ = worker.run_op(cli, op.argv(str(path)))
    ref = checks.Reference.of(oracles.moments_for(doc, subset_os))
    return checks.check_op(op, doc, ref, rc, out), rc, out


class _Seq:
    """A stand-in rng: MC seeds 1, 2, 3, ... so each test is reproducible."""

    def __init__(self):
        self.n = 0

    def randrange(self, *_):
        self.n += 1
        return self.n


PLAIN = {"kind": "plain-polynomial", "arity": 3, "constant": "1/3",
         "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
                   {"coefficient": "-1", "exponents": {"3": 2, "1": 1}}]}
ORDERSTAT = {"kind": "orderstat-polynomial", "arity": 4, "constant": "1/3",
             "terms": [{"coefficient": "3/2", "exponents": {"2": 1}},
                       {"coefficient": "-1", "exponents": {"3": 2, "4": 1}}]}
SETFN = {"kind": "set-function", "arity": 3,
         "values": ["0", "1/2", "-1", "3", "2", "0", "1", "5/3"]}
POWER = {"kind": "power-product", "arity": 4, "exponent": "1/3"}
MULT = {"kind": "multiplicative", "arity": 3,
        "factors": [{"exponent": 1}, {"exponent": "1/2"}, {"exponent": "2/3"}]}
CONJ = {"kind": "builtin", "name": "conjunctive-example-6.1", "arity": 2}
SYMMETRIC_PLAIN = {"kind": "plain-polynomial", "arity": 3, "constant": "0",
                   "terms": [{"coefficient": 1, "exponents": {"1": 1, "2": 1}},
                             {"coefficient": 1, "exponents": {"1": 1, "3": 1}},
                             {"coefficient": 1, "exponents": {"2": 1, "3": 1}}]}


@pytest.mark.parametrize("doc", [
    {"kind": "builtin", "name": "min", "arity": 4},
    {"kind": "builtin", "name": "median", "arity": 4},
    {"kind": "builtin", "name": "median", "arity": 5},
    {"kind": "builtin", "name": "variance", "arity": 4},
    {"kind": "builtin", "name": "product", "arity": 4},
    {"kind": "builtin", "name": "arithmetic-mean", "arity": 5},
    ORDERSTAT, SETFN, SYMMETRIC_PLAIN,
], ids=lambda d: d.get("name", d["kind"]))
def test_exact_oracles_agree_with_program(tmp_path, doc):
    for command, args in (("influence", ("--all",)), ("approx", ())):
        verdict, rc, _ = run_and_check(tmp_path, doc, command, *args, method="exact")
        assert verdict.status == "pass", verdict.problems


def test_plain_polynomial_indices_agree_with_program(tmp_path):
    verdict, _, _ = run_and_check(tmp_path, PLAIN, "influence", "--all", method="exact")
    assert verdict.status == "pass", verdict.problems


def test_subset_order_statistic_oracle(tmp_path):
    spec = workloads.subset_order_statistic(_Rng(), 6, 3, 2)
    for command, args in (("influence", ("--all",)), ("approx", ())):
        verdict, _, _ = run_and_check(tmp_path, spec.doc, command, *args, method="exact",
                                      subset_os=spec.subset_os)
        assert verdict.status == "pass", verdict.problems


class _Rng:
    def sample(self, population, k):
        return list(population)[:k]


@pytest.mark.parametrize("doc", [POWER, MULT], ids=["power-product", "multiplicative"])
def test_closed_form_oracles_agree_with_program(tmp_path, doc):
    verdict, _, _ = run_and_check(tmp_path, doc, "approx", method="closed-form")
    assert verdict.status == "pass", verdict.problems


@pytest.mark.parametrize("doc", [POWER, MULT, CONJ, PLAIN, SETFN],
                         ids=["power-product", "multiplicative", "conjunctive",
                              "plain", "set-function"])
def test_mc_outputs_pass_against_oracles(tmp_path, doc):
    for command, args in (("influence", ("--all",)), ("approx", ())):
        verdict, _, _ = run_and_check(tmp_path, doc, command, *args, method="mc",
                                      samples=SAMPLES)
        assert verdict.status == "pass", verdict.problems


def test_crosscheck_rechecked(tmp_path):
    verdict, rc, _ = run_and_check(tmp_path, POWER, "crosscheck", "-k", "2",
                                   "--estimators", workloads.ALL_ESTIMATORS,
                                   samples=SAMPLES, estimators=4)
    assert rc in (0, 5)
    assert verdict.status == "pass", verdict.problems


def test_power_product_gamma_formula_matches_layer_cake():
    for n, c in ((3, Fraction(1, 2)), (5, Fraction(2)), (4, Fraction(1, 3))):
        assert (oracles.power_product_moments(n, c).indices
                == oracles.multiplicative_moments([c] * n).indices)


def test_conjunctive_constants_match_monte_carlo():
    import numpy as np
    x = np.random.default_rng(5).random((400_000, 2))
    lo, hi = x.min(axis=1), x.max(axis=1)
    f = np.where(hi < 0.75, 0.0, np.minimum(lo, 0.25))
    m = oracles.CONJUNCTIVE
    for est, ref in ((f.mean(), m.mean), ((f * f).mean(), m.norm_sq),
                     ((f * -12 * (hi - 2 * lo)).mean(), m.indices[0])):
        assert abs(est - float(ref)) < 5 * 0.01 * max(abs(float(ref)), 0.05)


def test_defect_detector_fires_on_x1_n2(tmp_path):
    doc = {"kind": "plain-polynomial", "arity": 2,
           "terms": [{"coefficient": 1, "exponents": {"1": 1}}]}
    ref = checks.Reference.of(oracles.moments_for(doc))
    assert ref.derived.r_squared == Fraction(1, 2)
    assert ref.defect.r_squared == 1
    verdict, _, _ = run_and_check(tmp_path, doc, "approx", method="exact")
    assert verdict.status == "known_defect"
    assert any(p.startswith("r_squared: 1 != 1/2") for p in verdict.defects)
    verdict, _, _ = run_and_check(tmp_path, doc, "influence", "--all", method="exact")
    assert verdict.status == "pass"


def test_wrong_output_fails(tmp_path):
    verdict, rc, out = run_and_check(tmp_path, ORDERSTAT, "approx", method="exact")
    doc = json.loads(out)
    doc["results"][1]["rational"] = str(Fraction(doc["results"][1]["rational"]) + Fraction(1, 10**6))
    w = workloads.Workload("test")
    w.op(_Seq(), workloads.Spec("spec", ORDERSTAT), "approx", method="exact")
    ref = checks.Reference.of(oracles.moments_for(ORDERSTAT))
    verdict = checks.check_op(w.ops[0], ORDERSTAT, ref, rc, json.dumps(doc))
    assert verdict.status == "fail"
    assert checks.check_op(w.ops[0], ORDERSTAT, ref, 3, "").status == "fail"


def test_traced_and_untraced_outputs_identical(tmp_path):
    ops = []
    for i, (doc, command, args) in enumerate((
            (PLAIN, "approx", ["--method", "exact"]),
            (SETFN, "approx", ["--method", "exact"]),
            (SETFN, "lovasz", ["--mobius", "--symmetric-part", "--diagnose-equal-influence"]),
            (MULT, "approx", ["--method", "closed-form"]),
            (SETFN, "approx", ["--method", "mc", "--samples", str(SAMPLES), "--seed", "7"]),
            (POWER, "crosscheck", ["-k", "2", "--samples", str(SAMPLES), "--seed", "7",
                                   "--estimators", workloads.ALL_ESTIMATORS]))):
        path = tmp_path / ("spec%d.json" % i)
        path.write_text(json.dumps(doc))
        ops.append([command, str(path), *args, "--format", "json"])
    plain = [worker.run_op(cli, argv)[:2] for argv in ops]
    tracer = tracing.Tracer().install()
    try:
        traced = []
        for i, argv in enumerate(ops):
            tracer.current_op = i
            traced.append(worker.run_op(cli, argv)[:2])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert not tracer.absent
    per_op = tracing.summarize(tracer, len(ops))
    assert per_op[0]["exact.symmetrize"][0] >= 1
    assert per_op[4]["backends.lovasz_eval_batch"][3] >= SAMPLES
    assert per_op[3]["closedforms.influence_multiplicative"][0] >= 1
    assert worker.run_op(cli, ops[0])[:2] == plain[0]  # uninstall restored the program


def test_tracer_self_time_and_absent_names(monkeypatch):
    t = tracing.Tracer()
    inner = t.wrap("m.inner", lambda: sum(range(10000)))
    outer = t.wrap("m.outer", lambda: inner() + inner())
    t.current_op = 0
    outer()
    stats_ = tracing.summarize(t, 1)[0]
    calls, total, self_s, _ = stats_["m.outer"]
    assert calls == 1 and stats_["m.inner"][0] == 2
    assert self_s == pytest.approx(total - stats_["m.inner"][1])
    monkeypatch.setattr(tracing, "METHODS", (("exact", "NoSuchClass", "__mul__", "exact.x", None),))
    t2 = tracing.Tracer().install()
    t2.uninstall()
    assert any("NoSuchClass" in a for a in t2.absent)


def test_tail_percentile():
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(33) == 69
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        stats.tail_percentile(19)
    samples = list(range(1, 101))
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 50) == 50
    assert sum(s > stats.percentile(samples, 90) for s in samples) == 10
    # whole passes over one mix: the percentile does not move with the pass count
    mix = [0.1, 0.2, 0.5, 1.0, 3.0, 0.05, 0.3, 0.7, 2.0, 0.4, 0.15]
    p = stats.tail_percentile(3 * len(mix))
    assert {stats.percentile(mix * k, p) for k in (3, 4, 5, 7)} == {stats.percentile(mix * 3, p)}


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        a, b, c = (workloads.build(name, s) for s in (1, 1, 2))
        assert [(s.id, s.doc) for s in a.specs] == [(s.id, s.doc) for s in b.specs]
        assert [s.doc for s in a.specs] != [s.doc for s in c.specs]
        assert [(o.id, o.command) for o in a.ops] == [(o.id, o.command) for o in c.ops]
        assert len({o.id for o in a.ops}) == len(a.ops)
