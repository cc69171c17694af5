"""Command-line front end.

Subcommands: influence, approx, lovasz, crosscheck.  Function specs are JSON
documents (see README for the format).  Exit codes: 0 success, 2 invalid spec
file or seed, 3 incompatible method, kind or rank, or a value beyond
the float range, 4 tainted Monte-Carlo sample, 5 estimator disagreement in
crosscheck, 6 quadrature short of its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from . import __version__, api
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    DomainError,
    QuadratureError,
    SpecFileError,
    TaintedSampleError,
)
from .funcspec import EXACT, MC, SetFunctionSpec, load_spec_document, \
    parse_spec_document
from .projection import approximation_from_moments
from .report import ReportDocument, format_value

EXIT_OK = 0
EXIT_BAD_SPEC = 2
EXIT_INCOMPATIBLE = 3
EXIT_TAINTED = 4
EXIT_DISAGREEMENT = 5
EXIT_QUADRATURE = 6

SEED_ENV_VAR = "ORDINFLUENCE_SEED"

# crosscheck's estimators: the montecarlo function that each name calls as
# (evaluator, k, samples, seed, *extra), with its extra arguments
ESTIMATORS = {
    "covariance": ("influence_mc_covariance", ()),
    "derivative": ("influence_mc_derivative", ()),
    "diff-quotient-uniform": ("influence_mc_diffquotient", ("uniform-y",)),
    "diff-quotient-triangular":
        ("influence_mc_diffquotient", ("triangular-y",)),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)


def _seed(given) -> int:
    """``--seed``, else $ORDINFLUENCE_SEED, else 0, in [0, 2^64): the streams
    are keyed on it modulo 2^64, so no two seeds give the same numbers."""
    source, raw = (("--seed", given) if given is not None
                   else (SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")))
    try:
        seed = int(raw)
    except ValueError:
        raise SpecFileError("%s must be an integer, got %r"
                            % (SEED_ENV_VAR, raw), SEED_ENV_VAR)
    if not 0 <= seed < 2 ** 64:
        raise SpecFileError("%s must lie in [0, 2^64), got %r"
                            % (source, raw), source)
    return seed


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

    def common(p, with_method=True, with_samples=True):
        p.add_argument("spec", help="path to a JSON function spec")
        if with_method:
            p.add_argument("--method", default="auto",
                           choices=("auto",) + api.METHOD_PREFERENCE)
        if with_samples:
            p.add_argument("--samples", type=int,
                           default=api.DEFAULT_SAMPLES)
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
    common(p_lov, with_method=False, with_samples=False)
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


def _load(path: str):
    """The spec file's document, which the report echoes as given, and the
    function it declares."""
    document = load_spec_document(path)
    return document, parse_spec_document(document)


def _report(command, document, requested, seed) -> ReportDocument:
    return ReportDocument(command=command, spec=document,
                          requested=requested, results=[], seed=seed,
                          version=__version__)


def cmd_influence(args) -> ReportDocument:
    document, spec = _load(args.spec)
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
    if method == MC:
        requested["samples"] = args.samples
    doc = _report("influence", document, requested, seed)
    moments = api.influence_profile(spec, method, args.samples, seed)
    ses = moments.index_std_errors or (None,) * n
    for k in ranks:
        doc.results.append(_result_row(k, moments.indices[k - 1], method,
                                       se=ses[k - 1]))
    return doc


def cmd_approx(args) -> ReportDocument:
    document, spec = _load(args.spec)
    method = api.resolve_method(spec, args.method)
    seed = args.seed
    requested = {"method": method, "quantity": "approximation"}
    if method == MC:
        requested["samples"] = args.samples
    doc = _report("approx", document, requested, seed)
    n = spec.arity
    moments = api.function_moments(spec, method, args.samples, seed)
    ses = moments.index_std_errors or (None,) * n
    try:
        approx = approximation_from_moments(moments)
    except DegenerateVarianceError:
        approx = None
        doc.warnings.append("degenerate-variance: R^2 and r(f,k) undefined "
                            "for a constant function")
    # the fit's intercept is the formal tail
    doc.extras["a_tail"] = format_value(moments.formal_tail() if approx is None
                                        else approx.intercept)
    doc.extras["mean"] = format_value(moments.mean)
    if moments.covariance is not None:
        doc.extras["a_tail_se"] = moments.tail_std_error()
        doc.extras["mean_se"] = moments.mean_std_error
    for k in range(1, n + 1):
        row = _result_row(k, moments.indices[k - 1], method, ses[k - 1])
        if approx is not None:
            row["normalized"] = approx.normalized_index(k)
        doc.results.append(row)
    if approx is None:
        return doc
    doc.extras["r_squared"] = format_value(approx.r_squared)
    if approx.r_squared_std_error is not None:
        doc.extras["r_squared_se"] = approx.r_squared_std_error
    doc.extras["residual_norm_sq"] = format_value(approx.residual_norm_sq)
    if approx.r_squared_std_error is not None and approx.r_squared > 1:
        doc.warnings.append("r-squared-above-one: estimated R^2 = %.6g (se "
                            "%.2g) exceeds 1, its upper bound"
                            % (approx.r_squared, approx.r_squared_std_error))
    return doc


def cmd_lovasz(args) -> ReportDocument:
    document, spec = _load(args.spec)
    if not isinstance(spec, SetFunctionSpec):
        raise ConfigurationError("the lovasz command needs a set-function "
                                 "spec, got kind %r" % spec.kind)
    from .lovasz import equal_influence_class, level_averages, mobius, \
        symmetric_part
    doc = _report("lovasz", document, {"quantity": "set-function diagnostics"},
                  args.seed)
    v = spec.set_function
    levels = level_averages(v)
    for k, value in enumerate(levels.influence_profile(), start=1):
        doc.results.append(_result_row(k, value, EXACT))
    doc.extras["mean"] = format_value(levels.mean())
    if args.mobius:
        doc.extras["mobius"] = mobius(v).strings()
    if args.symmetric_part:
        part = symmetric_part(v, levels)
        doc.extras["symmetric_part"] = {
            "constant": str(part.intercept),
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
    from . import montecarlo
    document, spec = _load(args.spec)
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
    estimates = {}
    for i, name in enumerate(names):
        function, extra = ESTIMATORS[name]
        estimates[name] = getattr(montecarlo, function)(
            evaluator, k, args.samples, montecarlo.derive_seed(seed, 1000 + i),
            *extra)

    doc = _report("crosscheck", document,
                  {"k": k, "samples": args.samples,
                   "estimators": ",".join(names)}, seed)
    reference = None
    strongest = api.resolve_method(spec, "auto")
    if strongest != MC:
        reference = api.influence_value(spec, k, strongest)
        doc.results.append(_result_row(k, reference, strongest, se=0.0))
    for name, est in estimates.items():
        row = _result_row(k, est.value, "mc:" + name, se=est.std_error)
        doc.results.append(row)

    items = list(estimates.items())
    if reference is not None:
        items.append((strongest, montecarlo.IntegrationEstimate(
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
        args.seed = _seed(args.seed)
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
    except (ConfigurationError, DomainError) as exc:
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
