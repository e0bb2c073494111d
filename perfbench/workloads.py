"""Seeded inputs of the benchmark workloads and the check of their outputs.

Every row is a dict of `sgv.make_manifold` keyword arguments plus an
`id` and the library `kind`.  Families with a closed form (flat tori,
round spheres) draw their parameters from the seed.  The other families
come from fixed catalogs whose expected values are stored in
`reference.json`; for them the seed only sets the order in which the
rows run (see README.md for why they are not resampled).

This module is plain Python so that the orchestrating process does not
import numpy or sgv.
"""

from __future__ import annotations

import json
import math
import os
import random

THEOREM_ARGS = {"alpha_target": 0.3, "p": 2.0, "C_s": 2.0,
                "Lambda_rough": 0.5}
TWO_PI = 2.0 * math.pi

# The untimed warm-up record of every setup.
WARMUP = {"kind": "constant", "L": TWO_PI, "c": 0.2}

# Relative tolerances of the output check.
CLOSED_FORM_RTOL = 1e-9     # lambda1 against its closed form
BRACKET_RTOL = 1e-12        # diameter bracket must contain D up to this
REFERENCE_RTOL = 1e-8       # lambda1 and kbar against reference.json

# Periodic cosine tori, (c, beta).  Left out: c = 1 with beta <= 1e-5,
# where the base mode and the first fiber mode coincide to 1e-6, so
# `mode` is not a stable output to check; and (1.5, 0.1), a third
# grid-doubling row that would take 3.5 s of the cycle.  (0.2, 0.3) and
# (1.0, 0.1) are the grid-doubling rows that stay.
WAVY_CATALOG = tuple(
    (c, b) for c in (0.2, 0.5, 1.0, 1.5)
    for b in (1e-8, 1e-5, 1e-3, 0.03, 0.1, 0.3)
    if (c, b) not in ((1.0, 1e-8), (1.0, 1e-5), (1.5, 0.1)))
# Splines are chosen so that kbar, not the diameter, dominates their
# records: curvature that changes sign sends kbar's quadrature through
# sign_change_points and panel doubling.
# Pole-closed splines of f = sin t (1 + eps sin^2 t) at n = 3,
# (knots, eps).  n = 2 is left out; see the known defect in README.md.
DEFORMED_CATALOG = ((33, 0.2), (33, 0.3), (65, 0.2), (65, 0.3), (129, 0.2))
# Periodic splines of f = 1 + a cos t + b sin 2t at n = 2, (knots, a, b).
# The last three cost little in kbar; the CLI sweep picks from them.
PERIODIC_SPLINE_CATALOG = ((17, 0.02, 0.02), (65, 0.02, 0.02),
                           (33, 0.05, 0.0), (17, 0.0, 0.05),
                           (33, 0.0, 0.05))
# The out-of-hypothesis straggler of the CLI sweep.
DUMBBELL = (1.0, 0.5)

ROUND_SPHERES_PER_CYCLE = 10
FLAT_TORI_PER_CYCLE = 100


def _num(x: float) -> str:
    return f"{x:.6g}"


def cosine_row(c: float, beta: float) -> dict:
    return {"id": f"cos-c{_num(c)}-b{_num(beta)}", "kind": "cosine",
            "L": TWO_PI, "c": c, "beta": beta}


def deformed_sphere_row(knots: int, eps: float) -> dict:
    ts = [math.pi * i / (knots - 1) for i in range(knots)]
    fs = [math.sin(t) * (1.0 + eps * math.sin(t) ** 2) for t in ts]
    ts[-1] = math.pi
    fs[0] = fs[-1] = 0.0
    return {"id": f"tabsph-k{knots}-e{_num(eps)}", "kind": "tabulated",
            "L": math.pi, "n": 3, "ts": ts, "fs": fs,
            "boundary": "pole-closed"}


def periodic_spline_row(knots: int, a: float, b: float) -> dict:
    ts = [TWO_PI * i / (knots - 1) for i in range(knots)]
    fs = [1.0 + a * math.cos(t) + b * math.sin(2.0 * t) for t in ts]
    ts[-1] = TWO_PI
    fs[-1] = fs[0]
    return {"id": f"tabper-k{knots}-a{_num(a)}-b{_num(b)}",
            "kind": "tabulated", "L": TWO_PI, "n": 2, "ts": ts, "fs": fs,
            "boundary": "periodic"}


def flat_torus_row(rng: random.Random, i: int, n: int,
                   u: float) -> dict:
    """Base length in [2, 10]; fiber-to-base aspect 0.02 (thin) to 1,
    log-uniform, at the quantile u."""
    L = rng.uniform(2.0, 10.0)
    aspect = 0.02 ** (1.0 - u)
    return {"id": f"flat-{i:03d}", "kind": "constant", "L": L,
            "c": aspect * L / TWO_PI, "n": n}


def round_sphere_row(rng: random.Random, i: int, n: int) -> dict:
    return {"id": f"sphere-{i:03d}", "kind": "sine-sphere",
            "L": rng.uniform(2.0, 6.0), "n": n}


def reference_rows() -> list:
    """Every catalog row, i.e. every row whose check needs stored values."""
    return ([cosine_row(c, b) for c, b in WAVY_CATALOG + (DUMBBELL,)]
            + [deformed_sphere_row(*r) for r in DEFORMED_CATALOG]
            + [periodic_spline_row(*r) for r in PERIODIC_SPLINE_CATALOG])


def _flat_tori(rng):
    return [flat_torus_row(rng, i, 2 + i % 2, rng.random())
            for i in range(FLAT_TORI_PER_CYCLE)]


def _wavy_tori(rng):
    rows = [cosine_row(c, b) for c, b in WAVY_CATALOG]
    rng.shuffle(rows)
    return rows


def _curved_profiles(rng):
    rows = [round_sphere_row(rng, i, 2 + i % 2)
            for i in range(ROUND_SPHERES_PER_CYCLE)]
    rows += [deformed_sphere_row(*r) for r in DEFORMED_CATALOG]
    rows += [periodic_spline_row(*r) for r in PERIODIC_SPLINE_CATALOG]
    rng.shuffle(rows)
    return rows


def _sweep_mix(rng):
    """The dumbbell straggler first, then seeded cheap rows of every family.

    The straggler leads so that the pool starts it at once; the other
    rows together take less time than it does, so the sweep's wall time
    is set by the straggler and by cold start, not by the seeded order.
    """
    cheap_wavy = [r for r in WAVY_CATALOG if r[1] <= 1e-3]
    rows = [flat_torus_row(rng, i, 2 + i % 2, rng.random())
            for i in range(5)]
    rows += [round_sphere_row(rng, 0, 2), round_sphere_row(rng, 1, 3)]
    rows += [cosine_row(*r) for r in rng.sample(cheap_wavy, 4)]
    rows += [periodic_spline_row(*r)
             for r in rng.sample(PERIODIC_SPLINE_CATALOG[2:], 2)]
    rng.shuffle(rows)
    return [cosine_row(*DUMBBELL)] + rows


# name -> (row generator, percentile of record_s_tail, records a run
# must have beyond that percentile).  The timed pass runs until it has
# them.  Each percentile is the highest of p50/p75/p90/p95/p99/p99.9
# with that many records beyond it at run_seconds = 10.
WORKLOADS = {
    "flat-tori": (_flat_tori, 99.0, 10),
    "wavy-tori": (_wavy_tori, 75.0, 10),
    "curved-profiles": (_curved_profiles, 75.0, 10),
    "sweep-cli-jobs2": (_sweep_mix, 75.0, 10),
}


def rows_for(workload: str, seed: int) -> list:
    gen = WORKLOADS[workload][0]
    return gen(random.Random(f"{workload}:{seed}"))


def to_cli_spec(row: dict) -> dict:
    """The same row in the `sgv sweep` config vocabulary."""
    cli_kind = {"constant": "flat-torus", "cosine": "cosine-torus",
                "sine-sphere": "sphere"}.get(row["kind"], row["kind"])
    return {**row, "kind": cli_kind}


def load_reference() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)


def check_record(row: dict, rec: dict, reference: dict):
    """None if the record matches, else a one-line reason.

    rec holds at least lambda1, diameter_lo, diameter_hi, kbar, mode
    and hypothesis_met.  Flat tori and round spheres are checked against
    closed forms; catalog rows against reference.json.  diameter_hi and
    alpha are never compared with stored values: a correct diameter
    change moves them.
    """
    kind, n, L = row["kind"], row.get("n", 2), row["L"]
    if kind in ("constant", "sine-sphere"):
        if kind == "constant":
            c = row["c"]
            lam = min((TWO_PI / L) ** 2, (n - 1) / c ** 2)
            D = math.hypot(L / 2.0, math.pi * c)
        else:
            lam = n * math.pi ** 2 / L ** 2
            D = L
        if _rel_err(rec["lambda1"], lam) > CLOSED_FORM_RTOL:
            return f"lambda1 {rec['lambda1']!r} != closed form {lam!r}"
        if not (rec["diameter_lo"] <= D * (1.0 + BRACKET_RTOL)
                and rec["diameter_hi"] >= D * (1.0 - BRACKET_RTOL)):
            return (f"bracket [{rec['diameter_lo']!r}, "
                    f"{rec['diameter_hi']!r}] misses D = {D!r}")
        if rec["kbar"] != 0.0:
            return f"kbar {rec['kbar']!r} != 0 on a Ric >= 0 manifold"
        return None
    ref = reference.get(row["id"])
    if ref is None:
        return f"no stored reference for {row['id']}"
    for key in ("lambda1", "kbar"):
        if _rel_err(rec[key], ref[key]) > REFERENCE_RTOL:
            return f"{key} {rec[key]!r} != reference {ref[key]!r}"
    for key in ("mode", "hypothesis_met"):
        if rec[key] != ref[key]:
            return f"{key} {rec[key]!r} != reference {ref[key]!r}"
    return None


def row_class(row: dict) -> str:
    return {"constant": "flat", "cosine": "wavy",
            "sine-sphere": "sphere"}.get(row["kind"], "spline")
