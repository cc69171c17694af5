"""The ordinfluence benchmark: one command per workload.

    python3 perfbench/run.py --workload poly-exact --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it runs the program in ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off:

  setup_s          median over fresh interpreters of ``import ordinfluence.cli``
  ops_per_s        ops completed per second of op time in the median pass
  influence_p50_s, influence_tail_s, approx_p50_s, approx_tail_s
                   latency of ``influence --all`` and ``approx`` ops; the tail
                   is the highest percentile with ten samples beyond it
  passed_frac      ops whose output passed its check, over ops attempted
  peak_rss_mb      peak resident set of the process that ran the ops

Times are in reference seconds: each measured time is scaled by r / c,
with c the median time of the workload's calibration kernel
(``worker.calibration_s``) over the same pass, or over 11 runs in the same
fresh interpreter for ``setup_s``, and r its time on a quiet VM
(``Workload.calibration_ref_s``).  Where the kernel takes r, reference
seconds are wall seconds.  The scaling takes out the shared
host's speed swings; the wall-clock figures are printed too.

With ``--trace 1`` it runs one untraced and one traced pass, each in its own
process, and reports the per-layer metrics.  Every op's output is checked
against ``oracles``; the last line of stdout is the JSON result.  See
README.md in this directory for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pin native thread pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 175  # the whole run, children included, ends within this
OUT_DIR = ROOT / ".perfbench_out"
MC_TARGET_SE = 1e-3

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"),
              ("influence_p50_s", "s"), ("influence_tail_s", "s"),
              ("approx_p50_s", "s"), ("approx_tail_s", "s"),
              ("passed_frac", "ratio"), ("peak_rss_mb", "MB"))

# Per-layer metrics, each per op: (metric, unit, span name, statistic).
# Statistics: calls, s (inclusive seconds), self (seconds minus child
# spans), payload (the span's counter: terms out, nonzero Mobius
# coefficients or rows evaluated).
LAYER_SPANS = (
    ("funcspec.parse_spec_file.s", "s", "funcspec.parse_spec_file", "s"),
    ("funcspec.evaluator.calls", "count", "funcspec.evaluator", "calls"),
    ("api.influence_value.calls", "count", "api.influence_value", "calls"),
    ("api.function_sigma.calls", "count", "api.function_sigma", "calls"),
    ("api.normalized_index.calls", "count", "api.normalized_index", "calls"),
    ("exact.symmetrize.calls", "count", "exact.symmetrize", "calls"),
    ("exact.symmetrize.s", "s", "exact.symmetrize", "s"),
    ("exact.symmetrize.terms_out", "count", "exact.symmetrize", "payload"),
    ("exact.poly_mul.calls", "count", "exact.poly_mul", "calls"),
    ("exact.poly_mul.s", "s", "exact.poly_mul", "s"),
    ("exact.moment.calls", "count", "exact.moment", "calls"),
    ("exact.inner_product_exact.s", "s", "exact.inner_product_exact", "s"),
    ("projection.gram_system.calls", "count", "projection.gram_system", "calls"),
    ("projection.profile_exact.calls", "count", "projection.profile_exact", "calls"),
    ("projection.profile_exact.s", "s", "projection.profile_exact", "s"),
    ("projection.approximation_exact.s", "s", "projection.approximation_exact", "s"),
    ("lovasz.mobius.calls", "count", "lovasz.mobius", "calls"),
    ("lovasz.mobius.s", "s", "lovasz.mobius", "s"),
    ("lovasz.level_averages.calls", "count", "lovasz.level_averages", "calls"),
    ("lovasz.norm_sq_lovasz.calls", "count", "lovasz.norm_sq_lovasz", "calls"),
    ("lovasz.norm_sq_lovasz.s", "s", "lovasz.norm_sq_lovasz", "s"),
    ("lovasz.nonzero_mobius", "count", "lovasz.mobius", "payload"),
    ("lovasz.equal_influence_class.s", "s", "lovasz.equal_influence_class", "s"),
    ("closedforms.influence_multiplicative.s", "s", "closedforms.influence_multiplicative", "s"),
    ("closedforms.quad.calls", "count", "closedforms.quad", "calls"),
    ("montecarlo.f_points", "count", "montecarlo.Evaluator.__call__", "payload"),
    ("montecarlo.f_eval_s", "s", "montecarlo.Evaluator.__call__", "s"),
    ("backends.lovasz_eval_batch.points", "count", "backends.lovasz_eval_batch", "payload"),
    ("backends.lovasz_eval_batch.s", "s", "backends.lovasz_eval_batch", "s"),
    ("report.render.s", "s", "report.render", "s"),
)
MC_STREAMS = ("montecarlo.influence_mc_covariance", "montecarlo.influence_mc_derivative",
              "montecarlo.influence_mc_diffquotient", "montecarlo.mc_profile_moments",
              "montecarlo.mc_inner_product")
PER_LAYER = (("cli.main.self_s", "s"), ("api.self_s", "s"),
             *((m, u) for m, u, _, _ in LAYER_SPANS),
             ("montecarlo.streams", "count"), ("montecarlo.self_s", "s"),
             ("montecarlo.useful_frac", "ratio"), ("montecarlo.time_to_se_s", "s"),
             ("trace.overhead_frac", "ratio"))
STAT_INDEX = {"calls": 0, "s": 1, "self": 2, "payload": 3}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("out of time (%d s)" % DEADLINE_S)
        return left


def child(cmd, deadline: Deadline):
    """Run a child process to completion (killed and reaped at the deadline)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=deadline.left())
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(cmd[:3]))


def measure_setup(repeats: int, w, deadline: Deadline):
    """Median (reference, wall) seconds to import ordinfluence.cli in a fresh
    interpreter.  Each interpreter times the calibration kernel right after
    the import."""
    code = ("import time; t = time.perf_counter(); import ordinfluence.cli; "
            "t = time.perf_counter() - t; import sys; sys.path.insert(0, %r); "
            "from worker import calibration_s; "
            "print(repr(t), repr(sorted(calibration_s(%d) for _ in range(11))[5]))"
            % (str(HERE), w.calibration_rows))
    scaled, wall = [], []
    for _ in range(repeats):
        proc = child([sys.executable, "-c", code], deadline)
        if proc.returncode != 0:
            raise BenchError("import ordinfluence.cli failed:\n" + proc.stderr[-2000:])
        t, cal = (float(x) for x in proc.stdout.split()[-2:])
        scaled.append(t * w.calibration_ref_s / cal)
        wall.append(t)
    return statistics.median(scaled), statistics.median(wall)


def run_worker(work: Path, w, argvs, seconds, min_passes, max_passes, deadline,
               spans=None):
    manifest = work / ("manifest-%s.json" % ("trace" if spans else "plain"))
    out = work / ("result-%s.json" % ("trace" if spans else "plain"))
    manifest.write_text(json.dumps({
        "seconds": seconds, "min_passes": min_passes, "max_passes": max_passes,
        "calibration_rows": w.calibration_rows,
        "ops": [{"id": op.id, "argv": argv} for op, argv in zip(w.ops, argvs)]}))
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(out)]
    if spans:
        cmd += ["--trace", str(spans)]
    proc = child(cmd, deadline)
    if proc.returncode != 0 or not out.exists():
        raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(out.read_text())


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def check_outputs(ops, refs, spec_docs, result):
    """Verdict per op id, from the first pass's output; an op whose later
    passes differ from the first fails."""
    verdicts = {}
    for op, res in zip(ops, result["ops"]):
        v = checks.check_op(op, spec_docs[op.spec], refs[op.spec], res["rc"], res["stdout"])
        if not res["identical"]:
            v.problems.append("output differs between passes")
            v.status = "fail"
        if res["rc"] is None:
            v.problems.append("raised: " + (res["stderr"].strip().splitlines() or ["?"])[-1])
        verdicts[op.id] = v
    return verdicts


def scaled_latencies(result, ref_s):
    """Per op, its latencies in reference seconds: each pass's times are
    scaled by ref_s over that pass's median calibration."""
    ops = result["ops"]
    scale = [ref_s / statistics.median([res["calibration"][p] for res in ops])
             for p in range(result["passes"])]
    return [[t * s for t, s in zip(res["latencies"], scale)] for res in ops]


def latency_metrics(kind, ops, latencies, guaranteed_passes):
    """(p50, tail, tail percentile, samples) over the ops of one kind.  Each
    op's samples are first replaced by their median, so that a percentile
    reports an op's typical time rather than its luckiest or unluckiest
    pass."""
    samples = [statistics.median(lat) for op, lat in zip(ops, latencies) if op.command == kind
               for _ in lat]
    per_pass = sum(1 for op in ops if op.command == kind)
    p = stats.tail_percentile(per_pass * guaranteed_passes)
    return (stats.percentile(samples, 50), stats.percentile(samples, p), p, len(samples))


def ops_per_s(result, latencies):
    """Ops that returned, per second of op time, in the median pass."""
    done = [res["rc"] is not None for res in result["ops"]]
    return statistics.median([sum(done) / sum(lat[p] for lat in latencies)
                         for p in range(result["passes"])])


def time_to_se(ops, latencies, verdicts):
    """Median over MC influence/approx ops of t_op * (max_k SE_k / 1e-3)^2."""
    values = []
    for op, lat in zip(ops, latencies):
        se = verdicts[op.id].max_se
        if op.method == "mc" and se:
            values.append(statistics.median(lat) * (se / MC_TARGET_SE) ** 2)
    return statistics.median(values) if values else 0.0


def layer_metrics(w, traced, plain, verdicts):
    ops, per_op = w.ops, traced["trace"]
    n_ops = len(ops)

    def total(name, stat):
        return sum(o.get(name, [0, 0, 0, 0])[STAT_INDEX[stat]] for o in per_op)

    def layer_self(prefix, exclude=()):
        return sum(v[2] for o in per_op for name, v in o.items()
                   if name.startswith(prefix) and name not in exclude)

    out = {"cli.main.self_s": layer_self("cli.") / n_ops,
           "api.self_s": layer_self("api.") / n_ops}
    for metric, _, span, stat in LAYER_SPANS:
        out[metric] = total(span, stat) / n_ops
    out["montecarlo.streams"] = sum(total(s, "calls") for s in MC_STREAMS) / n_ops
    out["montecarlo.self_s"] = layer_self("montecarlo.", ("montecarlo.Evaluator.__call__",)) / n_ops
    requested = sum((op.samples or 0) * max(op.estimators, 1) for op in ops)
    points = total("montecarlo.Evaluator.__call__", "payload")
    out["montecarlo.useful_frac"] = requested / points if points else 0.0
    plain_s = scaled_latencies(plain, w.calibration_ref_s)
    out["montecarlo.time_to_se_s"] = time_to_se(ops, plain_s, verdicts)
    out["trace.overhead_frac"] = (sum(map(sum, scaled_latencies(traced, w.calibration_ref_s)))
                                  / sum(map(sum, plain_s)) - 1.0)
    return out


def summary_counts(ops, per_op):
    """Per op, the call counts that show recomputation."""
    names = (("norm_sq_lovasz", "lovasz.norm_sq_lovasz"), ("mobius", "lovasz.mobius"),
             ("symmetrize", "exact.symmetrize"), ("poly_mul", "exact.poly_mul"),
             ("covariance", "montecarlo.influence_mc_covariance"),
             ("moments", "montecarlo.mc_profile_moments"),
             ("evaluator", "funcspec.evaluator"))
    lines = []
    for op, counts in zip(ops, per_op):
        parts = ["%s=%d" % (short, counts[name][0]) for short, name in names if name in counts]
        lines.append("trace %-44s %s" % (op.id, " ".join(parts) or "-"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordinfluence" / "cli.py").is_file():
        print("error: no program source at %s" % (ROOT / "src" / "ordinfluence"), file=sys.stderr)
        return 2
    work = OUT_DIR / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        return _run(args, work)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    deadline = Deadline(DEADLINE_S)
    t0 = time.perf_counter()
    w = workloads.build(args.workload, args.seed)
    spec_docs = {s.id: s.doc for s in w.specs}
    fitted = {op.spec for op in w.ops if op.command == "approx"}
    refs = {s.id: checks.Reference.of(oracles.moments_for(s.doc, s.subset_os, s.id in fitted))
            for s in w.specs}
    for s in w.specs:
        (work / (s.id + ".json")).write_text(json.dumps(s.doc))
    argvs = [op.argv(str(work / (op.spec + ".json"))) for op in w.ops]
    ref_s = time.perf_counter() - t0

    if args.trace:
        plain = run_worker(work, w, argvs, 0, 1, 1, deadline)
        spans = OUT_DIR / ("trace-%s.npz" % args.workload)
        result = run_worker(work, w, argvs, 0, 1, 1, deadline, spans=spans)
        runs = [plain, result]
    else:
        setup_s, setup_wall = measure_setup(SETUP_REPEATS, w, deadline)
        result = run_worker(work, w, argvs, args.seconds, w.min_passes, 10 ** 6, deadline)
        runs = [result]

    verdicts = check_outputs(w.ops, refs, spec_docs, result)
    if args.trace:
        for op, a, b in zip(w.ops, plain["ops"], result["ops"]):
            if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
                verdicts[op.id].problems.append("traced output differs from untraced")
                verdicts[op.id].status = "fail"
    passes = sum(r["passes"] for r in runs)
    attempted = passes * len(w.ops)
    failed = passes * sum(v.status == "fail" for v in verdicts.values())
    defect = passes * sum(v.status == "known_defect" for v in verdicts.values())

    env = result["env"]
    print("perfbench workload=%s seed=%d trace=%d passes=%d ops=%d wall=%.2fs references=%.2fs"
          % (args.workload, args.seed, args.trace, passes, attempted,
             sum(r["wall_s"] for r in runs), ref_s))
    print("env nproc=%s affinity=%d python=%s numpy=%s scipy=%s backend=%s commit=%s"
          % (os.cpu_count(), len(os.sched_getaffinity(0)), env["python"], env["numpy"],
             env["scipy"], env["backend"], git_commit()))
    metrics = {}
    if args.trace:
        per_layer = layer_metrics(w, result, plain, verdicts)
        for line in summary_counts(w.ops, result["trace"]):
            print(line)
        if result.get("absent"):
            print("trace absent: %s" % ", ".join(result["absent"]))
        print("trace spans written to %s" % spans.relative_to(ROOT))
        for name, unit in PER_LAYER:
            metrics[name] = {"value": per_layer[name], "unit": unit}
    else:
        scaled = scaled_latencies(result, w.calibration_ref_s)
        wall = [res["latencies"] for res in result["ops"]]
        inf = latency_metrics("influence", w.ops, scaled, w.min_passes)
        apx = latency_metrics("approx", w.ops, scaled, w.min_passes)
        values = {
            "setup_s": setup_s, "ops_per_s": ops_per_s(result, scaled),
            "influence_p50_s": inf[0], "influence_tail_s": inf[1],
            "approx_p50_s": apx[0], "approx_tail_s": apx[1],
            "passed_frac": (attempted - failed - defect) / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        raw_inf = latency_metrics("influence", w.ops, wall, w.min_passes)
        raw_apx = latency_metrics("approx", w.ops, wall, w.min_passes)
        print("wall-clock setup_s=%.4g ops_per_s=%.4g influence_p50_s=%.4g influence_tail_s=%.4g "
              "approx_p50_s=%.4g approx_tail_s=%.4g calibration_median_s=%.4g"
              % (setup_wall, ops_per_s(result, wall), raw_inf[0], raw_inf[1], raw_apx[0],
                 raw_apx[1], statistics.median([c for res in result["ops"] for c in res["calibration"]])))
        notes = {"setup_s": "median of %d fresh interpreters" % SETUP_REPEATS,
                 "ops_per_s": "median of %d passes" % result["passes"],
                 "influence_p50_s": "n=%d" % inf[3], "approx_p50_s": "n=%d" % apx[3],
                 "influence_tail_s": "p%d, n=%d" % (inf[2], inf[3]),
                 "approx_tail_s": "p%d, n=%d" % (apx[2], apx[3])}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    for name, m in metrics.items():
        print("metric %-40s %.6g %s %s" % (name, m["value"], m["unit"],
                                           "(%s)" % notes[name] if not args.trace and name in notes else ""))
    print("checks ops=%d passed=%d known_defect=%d failed=%d failed_frac=%.4f"
          % (attempted, attempted - failed - defect, defect, failed,
             (failed + defect) / attempted))
    for op in w.ops:
        v = verdicts[op.id]
        if v.status == "known_defect":
            print("known_defect %s (%s): %s" % (op.id, checks.KNOWN_DEFECT, "; ".join(v.defects[:3])))
        elif v.status == "fail":
            print("FAILED %s: %s" % (op.id, "; ".join(v.problems[:5])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
