"""Command-line entry point.

Exit codes: 0 success with every gated invariant passing, 1 invariant
violation (diagnostics on stderr), 2 configuration error, also an
input whose arithmetic overflows or divides by zero.  Output is
deterministic: identical invocations produce byte-identical JSON, CSV,
and SVG.  Verbosity comes from the SGV_LOG environment variable
(error | info | debug), never from flags, so logs cannot perturb the
emitted reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .constants import (DELTA_CAP, DELTA_SCAN_LO, LedgerInput, build_ledger,
                        gradient_constants)
from .errors import ConfigError, SgvError
from .geometry import diameter, kbar, make_manifold, ricci_min, volume
from .modelode import U_GRID, check_model_inequalities, z_sup
from .report import (PLOT_KINDS, emit_plot_data, plot_paths, records_to_csv,
                     sweep_payload, to_json, write_text)
from .spectral import DEFAULT_GRIDS, lambda1
from .verify import check_main_theorem, sweep

log = logging.getLogger("sgv")

_MANIFOLD_KINDS = {
    "flat-torus": "constant",
    "cosine-torus": "cosine",
    "sphere": "sine-sphere",
}

_SWEEP_NUMBERS = ("alpha_target", "p", "C_s", "Lambda_rough")
_SWEEP_KEYS = {"manifolds", "jobs", *_SWEEP_NUMBERS}
_MANIFOLD_NUMBERS = {"n", "L", "c", "beta"}
_MANIFOLD_SPEC_KEYS = {"id", "kind", "ts", "fs", "boundary",
                       *_MANIFOLD_NUMBERS}


def _setup_logging() -> None:
    level_name = os.environ.get("SGV_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(
            f"SGV_LOG={level_name!r} invalid; use error, info, or debug")
    logging.basicConfig(stream=sys.stderr, level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _add_manifold_flags(sp) -> None:
    sp.add_argument("--manifold", required=True,
                    choices=_MANIFOLD_KINDS,
                    help="manifold family")
    sp.add_argument("--L", type=float, required=True,
                    help="base interval length (sphere: its diameter)")
    sp.add_argument("--n", type=int, default=2, help="dimension")
    sp.add_argument("--c", type=float, default=None,
                    help="mean warp radius (torus kinds)")
    sp.add_argument("--beta", type=float, default=0.0,
                    help="cosine perturbation amplitude")


def _manifold_from_args(args):
    kind = _MANIFOLD_KINDS[args.manifold]
    if kind != "sine-sphere" and args.c is None:
        raise ConfigError(f"{args.manifold} needs --c")
    return make_manifold(kind, L=args.L, n=args.n, c=args.c,
                         beta=args.beta)


def _save(write, *args) -> None:
    """write(*args), each file write of the CLI, its path last: a file
    that cannot be written is a config error (exit 2) that names it."""
    try:
        write(*args)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or args[-1]}: "
                          f"{exc.strerror}") from exc


def _emit(text: str, path: Optional[str]) -> None:
    sys.stdout.write(text)
    if path:
        _save(write_text, text, path)


# --- subcommand bodies ------------------------------------------------

def _cmd_eig(args) -> int:
    m = _manifold_from_args(args)
    grids = tuple(int(x) for x in args.grids.split(","))
    res = lambda1(m, grids=grids)
    payload = {
        "lambda1": res.lambda1,
        "mode": res.mode,
        "order": res.order,
        "degenerate": res.degenerate,
        "profile_shift": res.a,
        "history": [[int(N), lam] for N, lam in res.history],
    }
    _emit(to_json(payload), args.out)
    return 0


def _cmd_curvature(args) -> int:
    m = _manifold_from_args(args)
    if args.samples < 2:
        raise ConfigError(f"--samples = {args.samples} must be at least 2")
    t = np.linspace(0.0, m.L, args.samples + 1)
    if m.boundary == "periodic":
        t = t[:-1]  # t = L is t = 0 again
    rho = ricci_min(m, t)
    # rho_H_field's deficit, from the rho already sampled
    rho_H = np.maximum((m.n - 1) * args.H - rho, 0.0)
    br = diameter(m)
    payload = {
        "manifold": m.describe(),
        "p": args.p,
        "H": args.H,
        "ricci_min": float(np.min(rho)),
        "ricci_max": float(np.max(rho)),
        "rho_H_max": float(np.max(rho_H)),
        "kbar": kbar(m, args.p, args.H),
        "volume": volume(m),
        "diameter_lo": br.lo,
        "diameter_hi": br.hi,
        "diameter_converged": br.converged,
    }
    if args.arrays:
        payload["t"] = [float(x) for x in t]
        payload["rho"] = [float(x) for x in rho]
        payload["rho_H"] = [float(x) for x in rho_H]
    _emit(to_json(payload), args.out)
    return 0


def _cmd_diameter(args) -> int:
    m = _manifold_from_args(args)
    br = diameter(m)
    _emit(to_json({"lo": br.lo, "hi": br.hi,
                   "converged": br.converged}), args.out)
    return 0


def _cmd_kbar(args) -> int:
    m = _manifold_from_args(args)
    _emit(to_json({"p": args.p, "H": args.H,
                   "kbar": kbar(m, args.p, args.H)}), args.out)
    return 0


def _cmd_ledger(args) -> int:
    inp = LedgerInput(n=args.n, p=args.p, D=args.D, C_s=args.C_s,
                      Lambda_rough=args.Lambda_rough)
    led = build_ledger(inp, args.delta, args.sigma)
    _emit(to_json(led.to_dict()), args.out)
    if args.plot_out:
        sigma = args.sigma if args.sigma is not None else 0.0
        deltas = np.logspace(math.log10(DELTA_SCAN_LO),
                             math.log10(DELTA_CAP), 41)
        series = [{"delta": float(d), "alpha": gradient_constants(
            inp, float(d), sigma).alpha} for d in deltas]
        _save(emit_plot_data, series, "alpha-vs-delta", args.plot_out)
    return 0


def _cmd_ode_check(args) -> int:
    payload = check_model_inequalities(args.eta, 1.0 - args.delta,
                                       min(args.eta, 1.0 + args.delta),
                                       u_grid=args.u_grid)
    payload["z_peak_at"], payload["z_peak"] = z_sup(args.eta)
    _emit(to_json(payload), args.out)
    margin, resid = payload["min_margin"], payload["ode_residual_max"]
    ok = margin >= -1e-10 and resid <= 1e-12
    if not ok:
        print(f"ode-check gate violated: min margin "
              f"{margin:.3e}, residual {resid:.3e}", file=sys.stderr)
    return 0 if ok else 1


def _record_gate_failures(rec) -> list:
    """Gated invariants for one verification record (in-hypothesis)."""
    fails = []
    if not rec.hypothesis_met:
        # nothing is certified outside the smallness hypothesis; the
        # record itself is informational there
        return fails
    if rec.theorem_margin < -1e-9 * rec.lambda1:
        fails.append(f"eigenvalue bound violated: margin "
                     f"{rec.theorem_margin:.6e}")
    if rec.sigma_measured is None or rec.sigma_measured < -1e-12:
        fails.append(f"shift sign: sigma = {rec.sigma_measured}")
    if rec.sigma_bound_margin is None or rec.sigma_bound_margin < -1e-9:
        fails.append(f"shift ceiling: margin = {rec.sigma_bound_margin}")
    if rec.J_deviation is None or rec.J_deviation > rec.delta + 1e-9:
        fails.append(f"J deviation {rec.J_deviation} exceeds "
                     f"delta = {rec.delta}")
    if rec.gradient_margin is None:
        fails.append("gradient estimate: margin = None")
    elif rec.gradient_margin > 1e-6 * rec.lambda_tilde:
        fails.append(f"gradient estimate margin "
                     f"{rec.gradient_margin:.6e} above tolerance")
    return fails


def _cmd_verify(args) -> int:
    m = _manifold_from_args(args)
    rec = check_main_theorem(m, args.alpha_target, args.p,
                             C_s=args.C_s, Lambda_rough=args.Lambda_rough,
                             manifold_id=args.id or args.manifold)
    _emit(to_json(rec.to_dict()), args.out)
    fails = _record_gate_failures(rec)
    for f in fails:
        print(f"[{rec.manifold_id}] {f}", file=sys.stderr)
    return 1 if fails else 0


def _load_sweep_config(args):
    if args.plot and not args.plot_out:
        raise ConfigError("--plot needs --plot-out BASEPATH")
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(cfg) - _SWEEP_KEYS
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        if type(cfg.get("manifolds", [])) is not list:
            raise ConfigError(f"manifolds = {cfg['manifolds']!r} must be a "
                              "list of objects")
        for spec in cfg.get("manifolds", []):
            if not isinstance(spec, dict):
                raise ConfigError("each manifold entry must be an object")
            bad = set(spec) - _MANIFOLD_SPEC_KEYS
            if bad:
                raise ConfigError(
                    f"unknown manifold keys: {', '.join(sorted(bad))}")
            # exact types, as for the sweep settings: make_manifold would
            # read "3" or true as 3.0 or 1.0
            for key in _MANIFOLD_NUMBERS.intersection(spec):
                if type(spec[key]) not in (int, float):
                    raise ConfigError(f"manifold {key} = {spec[key]!r} "
                                      "must be a number")
            if type(spec.get("id", "")) is not str:
                raise ConfigError(f"manifold id = {spec['id']!r} must be "
                                  "a string")
            kind = spec.get("kind")
            if kind not in (*_MANIFOLD_KINDS, "tabulated"):  # ==, no hash
                raise ConfigError(
                    f"unknown manifold kind {kind!r}; choose from "
                    + ", ".join(sorted(_MANIFOLD_KINDS)) + ", tabulated")
    # config entries use the CLI vocabulary; the library uses its own
    manifolds = [{**spec, "kind": _MANIFOLD_KINDS.get(spec["kind"],
                                                      spec["kind"])}
                 for spec in cfg.get("manifolds", [])]
    # a flag overrides its config entry; jobs is 1 only where unset
    merged = {"jobs": 1, **cfg, "manifolds": manifolds}
    for key in (*_SWEEP_NUMBERS, "jobs"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    missing = [k for k in _SWEEP_NUMBERS if merged.get(k) is None]
    if missing:
        raise ConfigError("missing sweep settings: "
                          + ", ".join(missing)
                          + " (set via config file or flags)")
    # exact types (a bool is no number here); NaN fails both bounds
    for key in _SWEEP_NUMBERS:
        if (type(merged[key]) not in (int, float)
                or not -math.inf < merged[key] < math.inf):
            raise ConfigError(f"sweep setting {key} = {merged[key]!r} "
                              "must be a finite number")
    if type(merged["jobs"]) is not int or merged["jobs"] < 1:
        raise ConfigError(f"jobs = {merged['jobs']!r} must be an "
                          "integer >= 1")
    if not merged["manifolds"]:
        raise ConfigError("sweep needs a non-empty manifolds list "
                          "in the config file")
    return merged


def _cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args)
    # open each output now, appending nothing: a bad path fails before a row
    for path in (args.out, args.out_csv,
                 *(plot_paths(args.plot_out) if args.plot else ())):
        if path:
            _save(lambda p: open(p, "a").close(), path)
    log.info("sweep over %d manifolds, jobs=%d",
             len(cfg["manifolds"]), cfg["jobs"])
    rows, summary = sweep(cfg["manifolds"], cfg["alpha_target"],
                          cfg["p"], cfg["C_s"], cfg["Lambda_rough"],
                          jobs=cfg["jobs"])
    payload = sweep_payload(rows, summary)
    _emit(to_json(payload), args.out)
    recs = [d for d in payload["records"] if "error" not in d]
    if args.out_csv:
        _save(write_text, records_to_csv(recs), args.out_csv)
    if args.plot:
        _save(emit_plot_data, recs, args.plot, args.plot_out)
    code = 0
    for r in rows:
        if r.error is not None:
            log.info("row %s failed: %s", r.manifold_id, r.error)
            continue
        for f in _record_gate_failures(r.record):
            print(f"[{r.manifold_id}] {f}", file=sys.stderr)
            code = 1
    return code


# --- parser -----------------------------------------------------------

def _command(sub, name: str, func, help: str):
    """The parser of subcommand `name`, run by func, whose JSON output
    `--out` also writes to a file."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--out", default=None, help="also write JSON here")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgv",
        description="Numerical certification of a sharp first-eigenvalue "
                    "lower bound on rotationally symmetric manifolds.")
    ap.add_argument("--version", action="version",
                    version=f"sgv {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _command(sub, "eig", _cmd_eig, "first nonzero Laplace eigenvalue")
    _add_manifold_flags(sp)
    sp.add_argument("--grids", default=",".join(map(str, DEFAULT_GRIDS)),
                    help="comma-separated refinement grids, at least "
                    "three, each twice the one before")

    sp = _command(sub, "curvature", _cmd_curvature,
                  "Ricci range, integral norm, volume")
    _add_manifold_flags(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--H", type=float, default=0.0)
    sp.add_argument("--samples", type=int, default=512)
    sp.add_argument("--arrays", action="store_true",
                    help="include sampled curvature arrays")

    sp = _command(sub, "diameter", _cmd_diameter,
                  "two-sided diameter bracket")
    _add_manifold_flags(sp)

    sp = _command(sub, "kbar", _cmd_kbar,
                  "normalized integral curvature norm")
    _add_manifold_flags(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--H", type=float, default=0.0)

    # --Cs and --Lambda read into the library's names C_s and Lambda_rough
    sp = _command(sub, "ledger", _cmd_ledger,
                  "explicit constants for given inputs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--D", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--Cs", dest="C_s", type=float, required=True,
                    help="Sobolev constant input")
    sp.add_argument("--Lambda", dest="Lambda_rough", type=float,
                    required=True, help="rough spectral lower bound input")
    sp.add_argument("--sigma", type=float, default=None,
                    help="measured shift (default: a-priori ceiling)")
    sp.add_argument("--plot-out", default=None,
                    help="emit alpha-vs-delta curve to BASE.{csv,svg}; the "
                         "curve uses sigma = 0 unless --sigma is given")

    sp = _command(sub, "ode-check", _cmd_ode_check,
                  "comparison-function inequality margins")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.1,
                    help="half-width of the tested J range")
    sp.add_argument("--u-grid", type=int, default=U_GRID)

    sp = _command(sub, "verify", _cmd_verify,
                  "full certification record, one manifold")
    _add_manifold_flags(sp)
    sp.add_argument("--alpha-target", type=float, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--Cs", dest="C_s", type=float, required=True)
    sp.add_argument("--Lambda", dest="Lambda_rough", type=float,
                    required=True)
    sp.add_argument("--id", default=None, help="record label")

    sp = _command(sub, "sweep", _cmd_sweep, "verify a family of manifolds")
    sp.add_argument("--config", default=None,
                    help="JSON config with the manifolds list")
    sp.add_argument("--alpha-target", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--Cs", dest="C_s", type=float, default=None)
    sp.add_argument("--Lambda", dest="Lambda_rough", type=float,
                    default=None)
    sp.add_argument("--jobs", type=int, default=None,
                    help="parallel row workers (default 1), at most "
                    "one per row and one per CPU")
    sp.add_argument("--out-csv", default=None, help="CSV summary path")
    sp.add_argument("--plot", default=None, choices=PLOT_KINDS)
    sp.add_argument("--plot-out", default=None,
                    help="basename for plot CSV/SVG")
    return ap


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SgvError as exc:
        print(f"invariant violation ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
