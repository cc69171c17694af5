"""Command-line front end.

Subcommands: influence, approx, lovasz, crosscheck.  Function specs are JSON
documents (see README for the format).  Exit codes: 0 success, 2 invalid spec
file or seed variable, 3 incompatible method or kind, a closed-form branch
that cannot be decided, or a value beyond the float range, 4 tainted
Monte-Carlo sample, 5 estimator disagreement in crosscheck, 6 quadrature
short of its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import __version__, api
from .errors import (
    BranchAmbiguityError,
    ConfigurationError,
    DegenerateVarianceError,
    DomainError,
    QuadratureError,
    SpecFileError,
    TaintedSampleError,
)
from .funcspec import SetFunctionSpec, parse_spec_file
from .lovasz import _value_strings, equal_influence_class, level_averages, \
    mobius, symmetric_part
from .montecarlo import (
    IntegrationEstimate,
    derive_seed,
    influence_mc_covariance,
    influence_mc_derivative,
    influence_mc_diffquotient,
)
from .projection import approximation_from_moments, profile_from_moments
from .report import ReportDocument, format_value

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_INCOMPATIBLE = 3
EXIT_TAINTED = 4
EXIT_DISAGREEMENT = 5
EXIT_QUADRATURE = 6

SEED_ENV_VAR = "ORDINFLUENCE_SEED"

# crosscheck's estimators, each called as (evaluator, k, samples, seed); the
# lambdas look the estimator up in this module when called, so that a test
# can replace it here
ESTIMATORS = {
    "covariance": lambda *args: influence_mc_covariance(*args),
    "derivative": lambda *args: influence_mc_derivative(*args),
    "diff-quotient-uniform":
        lambda *args: influence_mc_diffquotient(*args, "uniform-y"),
    "diff-quotient-triangular":
        lambda *args: influence_mc_diffquotient(*args, "triangular-y"),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise SpecFileError("%s must be an integer, got %r"
                            % (SEED_ENV_VAR, raw), SEED_ENV_VAR)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    ``main`` in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ordinfluence",
        description="Influence of the k-th largest variable and best shifted "
                    "L-statistic approximations.")
    parser.add_argument("--version", action="version",
                        version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=True):
        p.add_argument("spec", help="path to a JSON function spec")
        if with_method:
            p.add_argument("--method", default="auto",
                           choices=("auto", "exact", "closed-form", "mc"))
        p.add_argument("--samples", type=int, default=api.DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $%s or 0)" % SEED_ENV_VAR)
        p.add_argument("--format", default="table",
                       choices=("table", "json", "csv"))

    p_inf = sub.add_parser("influence", help="influence index I(f, k)")
    common(p_inf)
    group = p_inf.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int, help="single rank")
    group.add_argument("--all", action="store_true", help="all ranks 1..n")

    p_approx = sub.add_parser(
        "approx", help="best shifted L-statistic approximation, R^2, r(f,k)")
    common(p_approx)

    p_lov = sub.add_parser("lovasz", help="set-function diagnostics")
    common(p_lov, with_method=False)
    p_lov.add_argument("--diagnose-equal-influence", action="store_true")
    p_lov.add_argument("--mobius", action="store_true")
    p_lov.add_argument("--symmetric-part", action="store_true")

    p_cross = sub.add_parser(
        "crosscheck", help="compare Monte-Carlo estimators against each other "
                           "and the strongest exact method")
    common(p_cross, with_method=False)
    p_cross.add_argument("-k", type=int, required=True)
    p_cross.add_argument("--estimators",
                         default="covariance,diff-quotient-uniform,"
                                 "diff-quotient-triangular",
                         help="comma-separated subset of: %s"
                              % ", ".join(ESTIMATOR_NAMES))
    return parser


def _result_row(k, value, method, se=None) -> dict:
    row = {"k": k}
    row.update(format_value(value))
    row["se"] = se
    row["method"] = method
    return row


def _report(command, spec, requested, seed) -> ReportDocument:
    return ReportDocument(command=command, spec=spec.describe(),
                          requested=requested, results=[], seed=seed,
                          version=__version__)


def cmd_influence(args) -> ReportDocument:
    spec = parse_spec_file(args.spec)
    method = api.resolve_method(spec, args.method)
    n = spec.arity
    if args.all:
        ranks = range(1, n + 1)
    elif 1 <= args.k <= n:
        ranks = (args.k,)
    else:
        raise DomainError("rank %d outside [1, %d]" % (args.k, n))
    seed = args.seed
    requested = {"method": method, "quantity": "influence"}
    if method == "mc":
        requested["samples"] = args.samples
    doc = _report("influence", spec, requested, seed)
    moments = api.function_moments(spec, method, args.samples, seed,
                                   mean=False, norm_sq=False)
    ses = moments.index_std_errors or (None,) * n
    for k in ranks:
        doc.results.append(_result_row(k, moments.indices[k - 1], method,
                                       se=ses[k - 1]))
    return doc


def cmd_approx(args) -> ReportDocument:
    spec = parse_spec_file(args.spec)
    method = api.resolve_method(spec, args.method)
    seed = args.seed
    requested = {"method": method, "quantity": "approximation"}
    if method == "mc":
        requested["samples"] = args.samples
    doc = _report("approx", spec, requested, seed)
    n = spec.arity
    moments = api.function_moments(spec, method, args.samples, seed)
    try:
        approx = approximation_from_moments(moments)
    except DegenerateVarianceError:
        profile = profile_from_moments(moments)
        doc.warnings.append("degenerate-variance: R^2 and r(f,k) undefined "
                            "for a constant function")
        for k in range(1, n + 1):
            se = profile.std_errors[k - 1] if profile.std_errors else None
            doc.results.append(_result_row(k, profile.indices[k - 1],
                                           profile.method, se))
        doc.extras["mean"] = format_value(profile.mean)
        doc.extras["a_tail"] = format_value(profile.formal_tail)
        return doc
    ses = approx.coefficient_std_errors
    for k in range(1, n + 1):
        row = _result_row(k, approx.coefficients[k - 1], approx.method,
                          ses[k - 1] if ses else None)
        row["normalized"] = approx.normalized_index(k)
        doc.results.append(row)
    doc.extras["a_tail"] = format_value(approx.coefficients[-1])
    doc.extras["mean"] = format_value(approx.mean)
    doc.extras["r_squared"] = format_value(approx.r_squared)
    if approx.r_squared_std_error is not None:
        doc.extras["r_squared_se"] = approx.r_squared_std_error
    doc.extras["residual_norm_sq"] = format_value(approx.residual_norm_sq)
    return doc


def cmd_lovasz(args) -> ReportDocument:
    spec = parse_spec_file(args.spec)
    if not isinstance(spec, SetFunctionSpec):
        raise ConfigurationError("the lovasz command needs a set-function "
                                 "spec, got kind %r" % spec.kind)
    doc = _report("lovasz", spec, {"quantity": "set-function diagnostics"},
                  args.seed)
    v = spec.set_function
    levels = level_averages(v)
    for k, value in enumerate(levels.influence_profile(), start=1):
        doc.results.append(_result_row(k, value, "exact"))
    doc.extras["mean"] = format_value(levels.mean())
    if args.mobius:
        doc.extras["mobius"] = _value_strings(mobius(v))
    if args.symmetric_part:
        part = symmetric_part(v, levels)
        doc.extras["symmetric_part"] = {
            "constant": str(part.constant),
            "slopes": [str(s) for s in part.slopes],
        }
    if args.diagnose_equal_influence:
        diag = equal_influence_class(v, levels)
        doc.extras["equal_influence"] = {
            "equal": diag.equal,
            "profile_flat": diag.profile_flat,
            "vbar_arithmetic": diag.vbar_arithmetic,
            "mbar_vanishing": diag.mbar_vanishing,
            "first_violations": diag.witnesses,
        }
    return doc


def cmd_crosscheck(args):
    spec = parse_spec_file(args.spec)
    k = args.k
    if not 1 <= k <= spec.arity:
        raise DomainError("rank %d outside [1, %d]" % (k, spec.arity))
    names = [s.strip() for s in args.estimators.split(",") if s.strip()]
    for name in names:
        if name not in ESTIMATORS:
            raise ConfigurationError("unknown estimator %r (known: %s)"
                                     % (name, ", ".join(ESTIMATOR_NAMES)))
    if not names or len(set(names)) < len(names):
        raise ConfigurationError("--estimators needs one or more distinct "
                                 "names, got %r" % args.estimators)
    evaluator = spec.evaluator()
    seed = args.seed
    estimates = {name: ESTIMATORS[name](evaluator, k, args.samples,
                                        derive_seed(seed, 1000 + i))
                 for i, name in enumerate(names)}

    doc = _report("crosscheck", spec,
                  {"k": k, "samples": args.samples,
                   "estimators": ",".join(names)}, seed)
    reference = None
    strongest = api.resolve_method(spec, "auto")
    if strongest != "mc":
        reference = api.influence_value(spec, k, strongest)
        doc.results.append(_result_row(k, reference, strongest, se=0.0))
    for name, est in estimates.items():
        row = _result_row(k, est.value, "mc:" + name, se=est.std_error)
        doc.results.append(row)

    items = list(estimates.items())
    if reference is not None:
        items.append((strongest, IntegrationEstimate(
            float(reference), 0.0, 0, seed, strongest)))
    z_scores = {"%s|%s" % (name_a, name_b): a.z_score(b)
                for (name_a, a), (name_b, b) in itertools.combinations(items, 2)}
    worst = max(z_scores.values(), default=0.0)
    doc.extras["z_scores"] = z_scores
    doc.extras["max_z"] = worst
    doc.extras["agreement"] = worst <= 3.0
    return doc, (EXIT_OK if worst <= 3.0 else EXIT_DISAGREEMENT)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    exit_code = EXIT_OK
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.command == "influence":
            doc = cmd_influence(args)
        elif args.command == "approx":
            doc = cmd_approx(args)
        elif args.command == "lovasz":
            doc = cmd_lovasz(args)
        else:
            doc, exit_code = cmd_crosscheck(args)
    except SpecFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_SPEC
    except (ConfigurationError, DomainError, BranchAmbiguityError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except OverflowError as exc:
        print("error: a value is beyond the float range: %s" % exc,
              file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except TaintedSampleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_TAINTED
    except QuadratureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_QUADRATURE
    sys.stdout.write(doc.render(args.format))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
