"""Run a workload's op list in this process through ``ordinfluence.cli.main``.

    python3 perfbench/worker.py MANIFEST OUT [--trace SPANS]

One client, one op at a time (a closed loop).  Whole passes over the op list
repeat until ``seconds`` have passed and at least ``min_passes`` are done,
and never more than ``max_passes``.  Each call is timed around
``cli.main(argv)`` alone.  Just before each call the fixed kernel
``calibration_s`` is timed separately, to track the host's speed.  The
first pass's stdout is kept per op; later passes are compared with it byte
for byte.

With ``--trace`` the package is wrapped by ``tracer.Tracer`` before the first
op, the spans are written to SPANS and per-op counters go into OUT.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import numpy as np


def calibration_s(rows: int) -> float:
    """Seconds taken by a fixed kernel shaped like the program's work:
    small-rational sums, tuple-keyed dict updates and a numpy sort of
    ``rows`` rows."""
    t0 = time.perf_counter()
    acc, terms = Fraction(0), {}
    for i in range(150):
        acc = (acc + Fraction(i % 13, 12)) % 5
        key = tuple(sorted(((i * 7) % 11, (i * 3) % 5, i % 4)))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 5, 4)
    np.sort(np.random.default_rng(1).random((rows, 6)), axis=1).sum()
    return time.perf_counter() - t0


def run_op(cli, argv):
    """(exit code or None if the call raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def run(manifest, tracer=None):
    from ordinfluence import cli

    # Keep the interpreter's own objects (modules, numpy, scipy) out of
    # every later garbage collection, so that a full collection landing in
    # a short op costs what the op's own objects cost, not a fixed ~20 ms.
    gc.collect()
    gc.freeze()

    ops = manifest["ops"]
    results = [{"id": op["id"], "rc": None, "stdout": "", "stderr": "",
                "identical": True, "latencies": [], "calibration": []} for op in ops]
    passes = 0
    t_start = time.perf_counter()
    while passes < manifest["max_passes"] and (
            passes < manifest["min_passes"]
            or time.perf_counter() - t_start < manifest["seconds"]):
        for i, op in enumerate(ops):
            res = results[i]
            res["calibration"].append(calibration_s(manifest["calibration_rows"]))
            if tracer is not None:
                tracer.current_op = i
            rc, out, err, elapsed = run_op(cli, op["argv"])
            if passes == 0:
                res.update(rc=rc, stdout=out, stderr=err[-2000:])
            elif (rc, out) != (res["rc"], res["stdout"]):
                res["identical"] = False
            res["latencies"].append(elapsed)
        passes += 1
    wall = time.perf_counter() - t_start
    return {"passes": passes, "wall_s": wall, "ops": results}


def peak_rss_mb():
    """Peak resident set of this process.  VmHWM starts afresh at exec;
    ru_maxrss would also count the parent's memory at fork."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import scipy
    try:
        from ordinfluence import backends
        backend = getattr(backends, "BACKEND", "unknown")
    except ImportError:
        backend = "none"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "backend": backend}


def main(argv):
    manifest_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    result = run(manifest, tracer)
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    if tracer is not None:
        tracer.current_op = -1
        result["absent"] = tracer.absent
        result["trace"] = tracing.summarize(tracer, len(manifest["ops"]))
        tracer.save(spans_path)
    with open(out_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
