"""Seeded op lists for the three workloads.

The seed sets the random values only.  The shape of the work is fixed per
workload: kinds, arities, term counts and degrees, so the cost of a pass
barely depends on the seed.  Every op is one ``ordinfluence`` CLI call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import oracles

WORKLOADS = ("poly-exact", "setfn-exact", "mc-closedform")

MC_SAMPLES = 100_000
ALL_ESTIMATORS = "covariance,derivative,diff-quotient-uniform,diff-quotient-triangular"

# Each timed run repeats whole passes over the op list, at least this many,
# so that latency percentiles are taken over a fixed mix of ops.  The
# lighter workloads take one more pass, which puts their tails at p68+.
MIN_PASSES = {"poly-exact": 4, "setfn-exact": 3, "mc-closedform": 4}

# Term shapes: exponents of the variables (or order-statistic slots) a term
# touches.  Fixed, so that symmetrisation and products do the same work for
# every seed; the seed picks variables, slots and coefficients.
PLAIN_SHAPE = ((1,), (2,), (3,), (1, 1), (2, 1), (1, 1, 1))
ORDERSTAT_SHAPE = ((1,), (2,), (1, 1), (2, 1), (1, 1, 1))
# Seeded values share their denominators, so that the size of the rationals,
# and with it the cost of exact arithmetic, depends little on the seed.
EXPONENTS = ("1/3", "2/3", "4/3", "5/3")


@dataclass(frozen=True)
class Spec:
    id: str
    doc: dict
    subset_os: Optional[dict] = None  # oracle hint for subset order statistics


@dataclass(frozen=True)
class Op:
    id: str
    spec: str
    command: str  # influence | approx | lovasz | crosscheck
    args: tuple
    method: Optional[str] = None
    samples: Optional[int] = None
    estimators: int = 0

    def argv(self, spec_path: str) -> List[str]:
        return [self.command, spec_path, *self.args, "--format", "json"]


@dataclass
class Workload:
    name: str
    specs: List[Spec] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    min_passes: int = 3
    # The calibration kernel (worker.calibration_s) sorts this many numpy
    # rows, and takes calibration_ref_s on a quiet 2-CPU VM.  The exact
    # workloads are pure Python; the Monte-Carlo ops sort ~1 MB batches,
    # which a busy host slows more than it slows small-object work.
    calibration_rows: int = 2000
    calibration_ref_s: float = 0.0011

    def spec(self, spec: Spec) -> Spec:
        self.specs.append(spec)
        return spec

    def op(self, rng, spec: Spec, command: str, *args, method=None,
           samples=None, estimators=0, suffix=""):
        extra = []
        if method:
            extra += ["--method", method]
        if samples:
            extra += ["--samples", str(samples)]
        extra += ["--seed", str(rng.randrange(1, 2 ** 31))]
        op_id = "%s.%s%s" % (spec.id, command, suffix)
        if method and method != "exact":
            op_id += "." + method
        self.ops.append(Op(op_id, spec.id, command, tuple(args) + tuple(extra),
                           method, samples, estimators))


def _coefficient(rng) -> str:
    return str(Fraction(rng.choice([i for i in range(-9, 10) if i]), 4))


def plain_polynomial(rng, n: int) -> dict:
    terms = []
    for exps in PLAIN_SHAPE:
        variables = rng.sample(range(1, n + 1), len(exps))
        terms.append({"coefficient": _coefficient(rng),
                      "exponents": {str(v): e for v, e in zip(variables, exps)}})
    return {"kind": "plain-polynomial", "arity": n, "terms": terms,
            "constant": _coefficient(rng)}


def orderstat_polynomial(rng, n: int) -> dict:
    terms = []
    for exps in ORDERSTAT_SHAPE:
        slots = sorted(rng.sample(range(1, n + 1), len(exps)))
        terms.append({"coefficient": _coefficient(rng),
                      "exponents": {str(s): e for s, e in zip(slots, exps)}})
    return {"kind": "orderstat-polynomial", "arity": n, "terms": terms,
            "constant": _coefficient(rng)}


def set_function(rng, n: int) -> dict:
    values = [str(Fraction(rng.randint(-12, 12), 12)) for _ in range(1 << n)]
    return {"kind": "set-function", "arity": n, "values": values}


def subset_order_statistic(rng, n: int, size: int, rank: int) -> Spec:
    subset = sorted(rng.sample(range(1, n + 1), size))
    values = [str(v) for v in oracles.subset_os_values(n, subset, rank)]
    return Spec("subset-os-n%d" % n, {"kind": "set-function", "arity": n,
                                      "values": values},
                subset_os={"subset": subset, "rank": rank})


def builtin(name: str, n: int) -> Spec:
    return Spec("%s-n%d" % (name, n), {"kind": "builtin", "name": name, "arity": n})


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r (known: %s)" % (name, ", ".join(WORKLOADS)))
    rng = random.Random("%s/%d" % (name, seed))
    w = Workload(name, min_passes=MIN_PASSES[name])
    if name == "poly-exact":
        specs = [builtin("min", 5), builtin("min", 20), builtin("median", 5),
                 builtin("median", 20), builtin("variance", 6),
                 builtin("variance", 9), builtin("product", 6),
                 builtin("product", 7),
                 Spec("orderstat-n8", orderstat_polynomial(rng, 8)),
                 Spec("plain-n5", plain_polynomial(rng, 5)),
                 Spec("plain-n6", plain_polynomial(rng, 6))]
        for spec in specs:
            w.spec(spec)
            w.op(rng, spec, "influence", "--all", method="exact")
            w.op(rng, spec, "approx", method="exact")
    elif name == "setfn-exact":
        for n, copies in ((4, 2), (5, 2), (6, 2), (7, 1)):
            for c in range(copies):
                spec = w.spec(Spec("setfn-n%d-%s" % (n, "ab"[c]), set_function(rng, n)))
                w.op(rng, spec, "approx", method="exact")
                w.op(rng, spec, "influence", "--all", method="exact")
        for n in (10, 12):
            spec = w.spec(Spec("setfn-n%d" % n, set_function(rng, n)))
            w.op(rng, spec, "influence", "--all", method="exact")
            w.op(rng, spec, "lovasz", "--diagnose-equal-influence", "--mobius",
                 "--symmetric-part")
        for spec in (builtin("arithmetic-mean", 10),
                     subset_order_statistic(rng, 10, 5, 2)):
            w.spec(spec)
            w.op(rng, spec, "approx", method="exact")
            w.op(rng, spec, "influence", "--all", method="exact")
    else:
        w.calibration_rows, w.calibration_ref_s = 16384, 0.0022
        closed = []
        for n in (3, 8):
            closed.append(Spec("power-product-n%d" % n,
                               {"kind": "power-product", "arity": n,
                                "exponent": rng.choice(EXPONENTS)}))
        for n in (3, 8):
            closed.append(Spec("multiplicative-n%d" % n,
                               {"kind": "multiplicative", "arity": n,
                                "factors": [{"exponent": rng.choice(EXPONENTS)}
                                            for _ in range(n)]}))
        conj = builtin("conjunctive-example-6.1", 2)
        mc_specs = closed + [builtin("arithmetic-mean", 8),
                             Spec("orderstat-n6", orderstat_polynomial(rng, 6)),
                             Spec("plain-n6", plain_polynomial(rng, 6)), conj]
        for spec in mc_specs:
            w.spec(spec)
            w.op(rng, spec, "influence", "--all", method="mc", samples=MC_SAMPLES)
            w.op(rng, spec, "approx", method="mc", samples=MC_SAMPLES)
        for spec in closed:
            w.op(rng, spec, "approx", method="closed-form")
        for k in (1, 2):
            w.op(rng, conj, "crosscheck", "-k", str(k), samples=MC_SAMPLES,
                 estimators=3, suffix="-k%d" % k)
        pp4 = w.spec(Spec("power-product-n4", {"kind": "power-product", "arity": 4,
                                               "exponent": rng.choice(EXPONENTS)}))
        for k in (1, 3):
            w.op(rng, pp4, "crosscheck", "-k", str(k), "--estimators", ALL_ESTIMATORS,
                 samples=MC_SAMPLES, estimators=4, suffix="-k%d" % k)
    return w
