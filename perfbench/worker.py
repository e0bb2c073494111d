"""One benchmark process: set up, then run records and report them.

Reads a JSON job from stdin and prints one JSON result line.  Jobs:

  setup   import sgv, build every manifold of the rows, one untimed
          warm-up record; report how long that took.
  timed   setup, then whole cycles over the rows until `seconds` have
          passed, `min_records` records are done and the cycle count is
          odd and at least 3, so each row has a true median.
  traced  setup, then one cycle untraced, traced and untraced again,
          then the rows once through `sgv.verify.sweep` at `jobs`.
  cli     `sgv sweep` in this process with tracing on (argv in the job).

Run by run.py with PYTHONPATH pointing at the checkout's src/.
"""

import json
import os
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _setup(rows):
    """(manifolds, timings) for the rows, in a fresh interpreter."""
    t0 = time.perf_counter()
    import sgv  # noqa: F401  (the import is what is timed)
    t_import = time.perf_counter()
    import sgv.verify
    from workloads import THEOREM_ARGS, WARMUP
    manifolds = []
    for row in rows:
        params = {k: v for k, v in row.items() if k not in ("id", "kind")}
        manifolds.append(sgv.make_manifold(row["kind"], **params))
    t_build = time.perf_counter()
    warm = dict(WARMUP)
    sgv.verify.check_main_theorem(
        sgv.make_manifold(warm.pop("kind"), **warm), **THEOREM_ARGS)
    t_end = time.perf_counter()
    return manifolds, {"import_s": t_import - t0,
                       "build_s": t_build - t_import,
                       "setup_s": t_end - t0}


_OUTPUTS = ("lambda1", "diameter_lo", "diameter_hi", "kbar", "mode",
            "hypothesis_met")


def _cycle(rows, manifolds, tracer=None):
    """One pass over the rows: [(row index, seconds, outputs or error)]."""
    import sgv.verify
    from workloads import THEOREM_ARGS, row_class
    out = []
    for i, (row, m) in enumerate(zip(rows, manifolds)):
        if tracer is not None:
            tracer.record, tracer.row_class = i, row_class(row)
        t = time.perf_counter()
        try:
            rec = sgv.verify.check_main_theorem(m, manifold_id=row["id"],
                                                **THEOREM_ARGS)
            result = {k: getattr(rec, k) for k in _OUTPUTS}
        except Exception as exc:  # a failed row is data, not a crash
            result = f"{type(exc).__name__}: {exc}"
        out.append((i, time.perf_counter() - t, result))
    return out


def _timed(job):
    rows = job["rows"]
    manifolds, setup = _setup(rows)
    records, cycle_walls = [], []
    start = time.perf_counter()
    while (len(cycle_walls) < 3 or len(cycle_walls) % 2 == 0
           or time.perf_counter() - start < job["seconds"]
           or len(records) < job["min_records"]):
        t = time.perf_counter()
        records += _cycle(rows, manifolds)
        cycle_walls.append(time.perf_counter() - t)
    return {"setup": setup, "cycle_walls": cycle_walls, "records": records}


def _traced(job):
    from tracer import Tracer, install
    rows = job["rows"]
    manifolds, setup = _setup(rows)
    walls = []

    def timed_cycle(tracer=None):
        t = time.perf_counter()
        records = _cycle(rows, manifolds, tracer)
        walls.append(time.perf_counter() - t)
        return records

    plain = timed_cycle()
    tracer = Tracer()
    uninstall = install(tracer)
    records = timed_cycle(tracer)
    uninstall()
    plain += timed_cycle()
    tracer.write_spans(job["spans_path"])
    import sgv.verify
    from workloads import THEOREM_ARGS
    t = time.perf_counter()
    swept, _ = sgv.verify.sweep(rows, jobs=job["jobs"], **THEOREM_ARGS)
    pool_s = time.perf_counter() - t
    pooled = [(i, 0.0, row.error or {k: getattr(row.record, k)
                                     for k in _OUTPUTS})
              for i, row in enumerate(swept)]
    return {"setup": setup, "plain_s": (walls[0] + walls[2]) / 2.0,
            "traced_s": walls[1], "pool_s": pool_s, "records": records,
            "plain_records": plain, "pool_records": pooled,
            "trace": _summary(tracer)}


def _cli(job):
    from tracer import Tracer, install
    import sgv.cli
    tracer = Tracer()
    install(tracer)
    tracer.row_class = "sweep"
    code = sgv.cli.main(job["argv"])
    tracer.write_spans(job["spans_path"])
    return {"exit_code": code, "trace": _summary(tracer)}


def _summary(tracer):
    return {"self_time": dict(tracer.self_time),
            "counts": dict(tracer.counts), "maxima": dict(tracer.maxima)}


def main():
    job = json.load(sys.stdin)
    kind = job["job"]
    if kind == "setup":
        _, setup = _setup(job["rows"])
        result = {"setup": setup}
    else:
        result = {"timed": _timed, "traced": _traced, "cli": _cli}[kind](job)
    result["versions"] = _versions()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
