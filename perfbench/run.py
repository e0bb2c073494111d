"""sgv benchmark: certified records per second, per-record latency, set-up
time and memory on four seeded workloads, plus a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  The last stdout line is
the JSON result; every run also appends a line with its metadata and
manifold list to .perfbench_out/results.jsonl, which --compare reads.
See perfbench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import (THEOREM_ARGS, WORKLOADS, check_record,  # noqa: E402
                       load_reference, rows_for, to_cli_spec)

# Fresh interpreters per run, split between before and after the timed
# pass so that they fall in different seconds of it; setup_s is their
# median.
SETUP_SAMPLES = 7
SWEEP_JOBS = 2
BUDGET_S = 170.0         # every run ends well inside 180 s
# The dominant layer each workload was chosen for: (row class, span-name
# prefixes whose self time should exceed half of those rows' time).
PREDICTIONS = {
    "flat-tori": [("flat", ("constants.", "spectral."))],
    "wavy-tori": [("wavy", ("geometry.diameter",))],
    "curved-profiles": [
        ("spline", ("quadrature.", "geometry.kbar", "geometry.ricci_min")),
        ("sphere", ("geometry.diameter",))],
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Run:
    """One invocation: shared deadline, environment and output paths."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.deadline = time.monotonic() + BUDGET_S
        self.env = _env()
        self.tag = f"{workload}-{seed}"

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def worker(self, job: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=self.env, cwd=ROOT, timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n"
                             + proc.stderr[-3000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self, rows, count: int) -> list:
        return [self.worker({"job": "setup", "rows": rows})
                for _ in range(count)]

    def cli(self, argv: list) -> tuple:
        """(exit code, wall seconds, peak kB) of `sgv ...` in a subprocess.

        Peak memory is the sum over the process and its pool workers of
        each one's peak resident set (VmHWM), polled every 50 ms.
        """
        err_path = os.path.join(OUT_DIR, f"{self.tag}-sgv.stderr")
        start = time.perf_counter()
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sgv.cli", *argv], env=self.env,
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True)
            peaks = {}
            try:
                while proc.poll() is None:
                    for pid in _tree(proc.pid):
                        hwm = _vm_hwm_kb(pid)
                        if hwm:
                            peaks[pid] = max(peaks.get(pid, 0), hwm)
                    self.remaining()
                    time.sleep(0.05)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        wall = time.perf_counter() - start
        if proc.returncode not in (0, 1):
            with open(err_path, encoding="utf-8") as err:
                raise BenchError(f"sgv {' '.join(argv)} exited "
                                 f"{proc.returncode}: {err.read()[-2000:]}")
        return proc.returncode, wall, sum(peaks.values())


def _tree(root_pid: int) -> list:
    """root_pid and its descendants, from /proc/<pid>/stat parent links."""
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root_pid]
    for pid in tree:
        tree += [p for p, pp in parents.items() if pp == pid]
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_records(workload: str) -> int:
    """Records a run needs beyond its tail percentile, in total."""
    _, q, beyond = WORKLOADS[workload]
    return math.ceil(beyond / (1.0 - q / 100.0))


def check_rows(rows, records, reference) -> list:
    """[(row id, reason)] for every record that raised or mismatched."""
    failures = []
    for i, _, result in records:
        reason = (result if isinstance(result, str)
                  else check_record(rows[i], result, reference))
        if reason is not None:
            failures.append((rows[i]["id"], reason))
    return failures


# -- end-to-end runs ----------------------------------------------------------

def in_process(run: Run, rows, seconds: float) -> dict:
    q = WORKLOADS[run.workload][1]
    setups = run.setup_samples(rows, SETUP_SAMPLES // 2)
    timed = run.worker({"job": "timed", "rows": rows, "seconds": seconds,
                        "min_records": min_records(run.workload)})
    setups += [timed] + run.setup_samples(rows, SETUP_SAMPLES // 2)
    records, walls = timed["records"], timed["cycle_walls"]
    failures = check_rows(rows, records, load_reference())
    times = [dt for _, dt, _ in records]
    # A cycle's time with each row at its median over the (odd, at least
    # 3) cycles: a few seconds of contention on a shared host then slow
    # one sample of a row, not the rate.
    row_median_s = sum(statistics.median(times[i::len(rows)])
                       for i in range(len(rows)))
    return {
        "metrics": {
            "records_per_s": (1.0 - len(failures) / len(records))
            * len(rows) / row_median_s,
            "record_s_p50": statistics.median(times),
            "record_s_tail": percentile(times, q),
            "setup_s": statistics.median(s["setup"]["setup_s"]
                                         for s in setups),
            "peak_rss_mb": timed["maxrss_kb"] / 1024.0,
        },
        "attempted": len(records), "failures": failures,
        "notes": [f"{len(records)} records in {len(walls)} cycles of "
                  f"{len(rows)}, {sum(walls):.2f} s timed; records_per_s "
                  "takes each row's median time over the cycles",
                  f"record_s_tail is p{q:g} of {len(times)} records",
                  f"setup_s is the median of {len(setups)} fresh "
                  "interpreters"],
        "versions": timed["versions"],
    }


def _sweep_argv(cfg: str, jobs: int, out: str) -> list:
    return ["sweep", "--config", cfg, "--jobs", str(jobs),
            "--out", out + ".json", "--out-csv", out + ".csv"]


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_config(run: Run, rows) -> str:
    cfg = os.path.join(OUT_DIR, f"{run.tag}-sweep.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({**THEOREM_ARGS,
                   "manifolds": [to_cli_spec(r) for r in rows]}, fh)
    return cfg


def _check_sweep_json(rows, payload: bytes, reference) -> list:
    by_id = {r["id"]: i for i, r in enumerate(rows)}
    records = []
    for rec in json.loads(payload)["records"]:
        result = (f"row error: {rec['error']}" if "error" in rec else rec)
        records.append((by_id[rec["manifold_id"]], 0.0, result))
    return check_rows(rows, records, reference)


def sweep_cli(run: Run, rows, seconds: float) -> dict:
    """Closed loop of `sgv sweep --jobs 2`, checked against --jobs 1.

    A record reaches its caller when the sweep writes its output, so
    each record's latency is the wall time of the sweep that made it.
    A sweep whose exit code is not 0, or whose JSON or CSV differs from
    the --jobs 1 run, fails all its rows.
    """
    cfg = _write_config(run, rows)
    setups = run.setup_samples(rows, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    base = os.path.join(OUT_DIR, f"{run.tag}-jobs1")
    code1, _, _ = run.cli(_sweep_argv(cfg, 1, base))
    expected = (_read(base + ".json"), _read(base + ".csv"))
    row_failures = _check_sweep_json(rows, expected[0], load_reference())
    failures = list(row_failures)
    if code1:
        failures.append(("sweep --jobs 1", f"exited {code1}"))

    out = os.path.join(OUT_DIR, f"{run.tag}-jobs{SWEEP_JOBS}")
    walls, peaks, rates, failed = [], [], [], 0
    q = WORKLOADS[run.workload][1]
    sweeps_needed = math.ceil(min_records(run.workload) / len(rows))
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(walls) < sweeps_needed or len(walls) % 2 == 0):
        code, wall, peak = run.cli(_sweep_argv(cfg, SWEEP_JOBS, out))
        walls.append(wall)
        peaks.append(peak)
        if code or (_read(out + ".json"), _read(out + ".csv")) != expected:
            bad = len(rows)
            failures.append((f"sweep {len(walls)}",
                             f"exit code {code}, or output differs from "
                             "--jobs 1"))
        else:
            bad = len(row_failures)
        failed += bad
        rates.append((len(rows) - bad) / wall)
    setups += run.setup_samples(rows, SETUP_SAMPLES // 2)
    attempted = len(rows) * len(walls)
    latencies = [w for w in walls for _ in rows]
    return {
        "metrics": {
            "records_per_s": statistics.median(rates),
            "record_s_p50": statistics.median(latencies),
            "record_s_tail": percentile(latencies, q),
            "setup_s": statistics.median(s["setup"]["setup_s"]
                                         for s in setups),
            "peak_rss_mb": max(peaks) / 1024.0,
        },
        "attempted": attempted, "failed": failed, "failures": failures,
        "notes": [f"{len(walls)} sweeps of {len(rows)} rows at "
                  f"--jobs {SWEEP_JOBS}, {sum(walls):.2f} s timed; "
                  "records_per_s is the median over sweeps",
                  f"record_s_tail is p{q:g} of {len(latencies)} "
                  "record latencies (each the wall time of its sweep)",
                  "peak_rss_mb sums the peak resident set of the sweep "
                  "process and its pool workers",
                  f"setup_s is the median of {len(setups)} fresh "
                  "interpreters"],
        "versions": setups[0]["versions"],
    }


# -- traced runs --------------------------------------------------------------

def layer_values(names, trace, setup, overhead, efficiency) -> dict:
    """Every per-layer metric from the tracer's summary.

    self_s metrics sum a span's self time over the traced records;
    counts are exact; layer.<module>.self_s sums the module's spans.
    """
    self_s = {}
    for key, value in trace["self_time"].items():
        name = key.split("|", 1)[1]
        self_s[name] = self_s.get(name, 0.0) + value
    special = {
        "spectral.banded_solves":
            trace["counts"].get("spectral.banded_solve.calls", 0),
        "cli.import_s": setup["import_s"],
        "geometry.make_manifold.self_s": setup["build_s"],
        "trace.overhead_frac": overhead,
        "verify.sweep.parallel_efficiency": efficiency,
    }
    for name, value in self_s.items():
        layer = f"layer.{name.split('.')[0]}.self_s"
        special[layer] = special.get(layer, 0.0) + value
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name in trace["maxima"]:
            out[name] = trace["maxima"][name]
        else:
            out[name] = trace["counts"].get(name, 0)
    return out


def prediction_notes(workload: str, trace) -> list:
    """Whether the layer each workload was chosen for dominates it."""
    by_class = {}
    for key, value in trace["self_time"].items():
        cls, name = key.split("|", 1)
        by_class.setdefault(cls, {})[name] = value
    notes = []
    for cls, times in sorted(by_class.items()):
        total = sum(times.values())
        top = sorted(times, key=times.get, reverse=True)[:3]
        notes.append(f"{cls} rows: {total:.3f} s traced; largest self "
                     "times " + ", ".join(f"{n} {times[n] / total:.0%}"
                                          for n in top))
    for cls, prefixes in PREDICTIONS.get(workload, []):
        times = by_class.get(cls, {})
        total = sum(times.values())
        share = (sum(v for n, v in times.items() if n.startswith(prefixes))
                 / total) if total else 0.0
        verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
        notes.append(f"prediction: {' + '.join(prefixes)} > 50% of {cls} "
                     f"rows: {verdict} ({share:.0%})")
    return notes


def traced_in_process(run: Run, rows, per_layer) -> dict:
    res = run.worker({"job": "traced", "rows": rows, "jobs": SWEEP_JOBS,
                      "spans_path": os.path.join(OUT_DIR,
                                                 f"{run.tag}-spans.jsonl")})
    records = res["records"] + res["plain_records"] + res["pool_records"]
    efficiency = res["plain_s"] / (SWEEP_JOBS * res["pool_s"])
    overhead = res["traced_s"] / res["plain_s"] - 1.0
    return {
        "metrics": layer_values(per_layer, res["trace"], res["setup"],
                                overhead, efficiency),
        "attempted": len(records),
        "failures": check_rows(rows, records, load_reference()),
        "notes": [f"one cycle of {len(rows)} records traced, and the same "
                  "cycle untraced before and after it for "
                  "trace.overhead_frac; then the rows once through "
                  f"sgv.verify.sweep at jobs={SWEEP_JOBS} for "
                  "verify.sweep.parallel_efficiency"]
        + prediction_notes(run.workload, res["trace"]),
        "versions": res["versions"],
    }


def traced_sweep(run: Run, rows, per_layer) -> dict:
    """`sgv sweep --jobs 1` traced in one process (so no span is lost in
    a pool worker), untraced at --jobs 1 before and after it, and once
    at --jobs 2.  Every untraced output must equal the traced one."""
    cfg = _write_config(run, rows)
    setup = run.worker({"job": "setup", "rows": rows})
    outs = {k: os.path.join(OUT_DIR, f"{run.tag}-{k}")
            for k in ("traced", "before", "after", "jobs2")}
    codes, walls = {}, {}
    codes["before"], walls["before"], _ = run.cli(
        _sweep_argv(cfg, 1, outs["before"]))
    start = time.perf_counter()
    res = run.worker({"job": "cli",
                      "argv": _sweep_argv(cfg, 1, outs["traced"]),
                      "spans_path": os.path.join(OUT_DIR,
                                                 f"{run.tag}-spans.jsonl")})
    traced_wall = time.perf_counter() - start
    codes["traced"] = res["exit_code"]
    codes["after"], walls["after"], _ = run.cli(
        _sweep_argv(cfg, 1, outs["after"]))
    codes["jobs2"], walls["jobs2"], _ = run.cli(
        _sweep_argv(cfg, SWEEP_JOBS, outs["jobs2"]))

    def output(key):
        return _read(outs[key] + ".json"), _read(outs[key] + ".csv")

    failures = _check_sweep_json(rows, output("traced")[0], load_reference())
    for key, code in codes.items():
        if code or output(key) != output("traced"):
            failures.append((f"sweep {key}", f"exit code {code}, or output "
                             "differs from the traced run"))
    trace = res["trace"]
    plain_wall = (walls["before"] + walls["after"]) / 2.0
    efficiency = plain_wall / (SWEEP_JOBS * walls["jobs2"])
    return {
        "metrics": layer_values(per_layer, trace, setup["setup"],
                                traced_wall / plain_wall - 1.0, efficiency),
        "attempted": len(codes) * len(rows), "failures": failures,
        "notes": ["one sweep traced at --jobs 1, untraced at --jobs 1 "
                  f"before and after it, and one at --jobs {SWEEP_JOBS}"]
        + prediction_notes(run.workload, trace),
        "versions": setup["versions"],
    }


# -- bookkeeping --------------------------------------------------------------

def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _commit():
    """HEAD of the checkout, or None when it is not a git repository (a
    repository above the checkout does not count)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


COUNT_SUFFIXES = (".calls", ".points", ".cells", ".func_calls",
                  ".integrand_points", ".dijkstra_relaxations",
                  ".graph_levels", ".banded_solves", ".grid_max",
                  ".dist_bytes", ".bytes_out")


def fingerprint() -> str:
    """Hash of the program's and the benchmark's sources.  Counts must
    repeat exactly only between runs of the same sources."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "sgv"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def count_check(workload: str, seed: int, sources: str, metrics: dict):
    """Compare the exact counts with the last traced run of this seed on
    the same sources.  Returns (note, mismatches)."""
    previous = None
    try:
        with open(os.path.join(OUT_DIR, "results.jsonl"),
                  encoding="utf-8") as fh:
            for line in fh:
                run = json.loads(line)
                if (run["workload"], run["seed"], run["trace"],
                        run["meta"].get("sources")) == (
                            workload, seed, 1, sources):
                    previous = run["result"]["metrics"]
    except (OSError, ValueError, KeyError):
        pass
    if previous is None:
        return ("exact counts: no earlier traced run of this seed on "
                "these sources"), []
    names = [n for n in metrics if n.endswith(COUNT_SUFFIXES)]
    bad = [(n, f"count {metrics[n]} != {previous[n]['value']} in the "
               "earlier traced run of this seed")
           for n in names if n in previous
           and metrics[n] != previous[n]["value"]]
    return (f"exact counts: {len(names) - len(bad)} of {len(names)} equal "
            "to the earlier traced run of this seed"), bad


def _medians(path: str) -> dict:
    """{(workload, trace): ({metric: median}, run count)} of a results file."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                groups.setdefault((run["workload"], run["trace"]),
                                  []).append(run["result"]["metrics"])
    return {key: ({name: statistics.median(m[name]["value"] for m in runs
                                           if name in m)
                   for name in runs[0]}, len(runs))
            for key, runs in groups.items()}


def compare(base_path: str, new_path: str) -> None:
    """Median ratio NEW/BASE per workload and metric, against the bounds.

    Warn-only: it prints and never fails.
    """
    try:
        bench = _load_benchmark()
        specs = {m["name"]: m
                 for m in bench["end_to_end"] + bench["per_layer"]}
        base, new = _medians(base_path), _medians(new_path)
        print(f"{'workload':<17} {'metric':<46} {'base':>11} {'new':>11} "
              f"{'ratio':>7}  verdict")
        for key in sorted(base.keys() & new.keys()):
            (b_med, b_runs), (n_med, n_runs) = base[key], new[key]
            for name in sorted(b_med.keys() & n_med.keys()):
                b, n = b_med[name], n_med[name]
                ratio = n / b if b else float("nan")
                spec = specs.get(name, {})
                bound = spec.get("bound")
                if bound is None or not b:
                    verdict = "no bound"
                else:
                    worse = (ratio - 1.0 if spec["better"] == "lower"
                             else 1.0 - ratio)
                    verdict = (f"within {bound:g}" if worse <= bound
                               else f"WORSE than bound {bound:g}")
                print(f"{key[0]:<17} {name:<46} {b:>11.5g} {n:>11.5g} "
                      f"{ratio:>7.3f}  {verdict} "
                      f"(runs {b_runs}/{n_runs}, trace {key[1]})")
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare failed: {exc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two results.jsonl files (warn-only)")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "sgv", "__init__.py")):
        print(f"no sgv sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    bench = _load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(args.workload, args.seed)
    rows = rows_for(args.workload, args.seed)
    sweep = args.workload == "sweep-cli-jobs2"
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in specs]
    try:
        if args.trace:
            res = (traced_sweep if sweep else traced_in_process)(
                run, rows, names)
        else:
            res = (sweep_cli if sweep else in_process)(run, rows, seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sources = fingerprint()
    if args.trace:
        note, mismatches = count_check(args.workload, args.seed, sources,
                                       res["metrics"])
        res["notes"].append(note)
        res["failures"] += mismatches
    failed = res.get("failed", len(res["failures"]))
    result = {"correct": not res["failures"],
              "attempted": res["attempted"], "failed": failed,
              "metrics": {m["name"]: {"value": res["metrics"][m["name"]],
                                      "unit": m["unit"]} for m in specs}}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in res["notes"]:
        print(f"  {note}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = (f"{value:>14d}" if isinstance(value, int)
                 else f"{value:>14.6g}")
        print(f"  {name:<44} {shown} {metric['unit']}")
    print(f"  {'rows_failed_frac':<44} {failed / res['attempted']:>14.6g} "
          f"ratio ({failed} of {res['attempted']})")
    for row_id, reason in res["failures"]:
        print(f"  FAILED {row_id}: {reason}")
    meta = {**res["versions"], "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(), "sources": sources, "seed": args.seed,
            "seconds": seconds}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "result": result,
                             "failures": res["failures"],
                             "notes": res["notes"], "meta": meta,
                             "manifolds": rows}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
