"""Explicit constant ledger for the certified eigenvalue lower bound.

Every quantity the certification pipeline needs is computed here in
closed form from the five inputs a record fixes (a `LedgerInput`: n, p,
diameter bound D, Sobolev constant C_s, rough spectral lower bound
Lambda_rough), the closeness parameter delta it chooses, and the
measured or a-priori ground-state shift sigma.  C_s and Lambda_rough
are deliberately inputs rather than computed: their explicit expressions
live in the isoperimetric literature and hard-coding a formula here
would invent one.

The chain is

    delta  ->  tau, A(delta), B(delta)        (transform bookkeeping)
           ->  C1, C2, b                      (gradient-estimate slopes)
           ->  alpha = (1-delta)^2 / b        (certified fraction of the
                                               flat-model eigenvalue)

and, independently,

    (LedgerInput, delta)
           ->  four admissibility terms whose minimum eps_max is the
               integral-curvature threshold: measured kbar(p, 0) below
               eps_max activates every downstream estimate.

The Moser-iteration constant A_moser is an infinite product; it is
evaluated with a certified geometric tail bound so the returned value is
always an upper bound (conservative for eps_max, which divides by it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (DeltaTooLarge, NoConvergence, Unreachable,
                     require_dimension, require_exponent, require_finite,
                     require_positive)
from .modelode import z_sup

DELTA_MAX = math.sqrt(10.0) - 3.0
# admissible deltas stay a hair inside the analytic root of
# delta^2 + 6 delta - 1 = 0, keeping 1 - sqrt(B(delta)) bounded away
# from zero
DELTA_CAP = DELTA_MAX - 1e-6
# lower end of the delta range that the alpha scan and ledger plot walk
DELTA_SCAN_LO = 1e-4
# relative accuracy of the certified Moser product
MOSER_TAIL_TOL = 1e-10
# sup of the model function at eta = 1; Z is linear in eta, and
# (1 + d) * _Z_PEAK is bit for bit z_sup(1 + d)[1]
_Z_PEAK = z_sup(1.0)[1]


def _require_delta(delta: float) -> None:
    """ValueError unless 0 < delta < inf; DeltaTooLarge above DELTA_CAP."""
    require_positive("delta", delta)
    if delta > DELTA_CAP:
        raise DeltaTooLarge(f"delta = {delta} outside (0, {DELTA_CAP:.9f}]")


def tau_of(delta: float) -> float:
    """Exponent tau = (3 + 4 delta) / (2 delta) of the power transform."""
    return (3.0 + 4.0 * delta) / (2.0 * delta)


@dataclass(frozen=True)
class LedgerInput:
    """The five pipeline inputs a record fixes, checked once; delta and
    the shift sigma vary, so the ledger's functions take them."""

    n: int
    p: float
    D: float
    C_s: float
    Lambda_rough: float

    def __post_init__(self):
        object.__setattr__(self, "n", require_dimension(self.n, "n"))
        require_exponent(self.p, self.n)
        require_positive("D", self.D)
        require_positive("C_s", self.C_s)
        require_positive("Lambda_rough", self.Lambda_rough)


@dataclass(frozen=True)
class GradientConstants:
    """Slope/offset pair (and friends) of the gradient-estimate line.

    The certified pointwise estimate takes the form
    J |grad u|^2 <= lambda_tilde (1 - u^2) + ... with
    lambda_tilde = C1 * lambda1 + C2, so C1 is a slope, C2 an offset,
    and alpha = (1-delta)^2 / b is the certified fraction of the
    flat-model eigenvalue pi^2/D^2.
    """

    tau: float
    A: float
    B: float
    z_peak: float      # sup of the model function at eta = 1 + delta
    C1: float
    C2: float
    b: float
    alpha: float

    def lambda_tilde(self, lambda1: float) -> float:
        return self.C1 * lambda1 + self.C2


def gradient_constants(inp: LedgerInput, delta: float,
                       sigma: float) -> GradientConstants:
    """Closed-form constants of the gradient estimate for one delta and
    ground-state shift sigma; B(delta) < 1 on the deltas admitted here."""
    _require_delta(delta)
    d = delta
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma = {sigma} must be >= 0 and finite")
    tau = tau_of(d)
    A = 2.0 * d * (1.0 + d)
    B = d * (5.0 + d) / (1.0 - d)
    z_peak = (1.0 + d) * _Z_PEAK
    root_B = math.sqrt(B)
    C1 = (1.0 + d + math.sqrt(A)) / (1.0 - root_B)
    C2 = sigma / (2.0 * (1.0 - root_B)) * (z_peak / math.sqrt(A)
                                           + 1.0 / (2.0 * root_B))
    b = C1 + C2 / inp.Lambda_rough
    alpha = (1.0 - d) ** 2 / b
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha = {alpha} left (0, 1); inputs inconsistent")
    return GradientConstants(tau=tau, A=A, B=B, z_peak=z_peak,
                             C1=C1, C2=C2, b=b, alpha=alpha)


def moser_constant(C_s: float, p: float, n: int, psi_norm: float) -> float:
    """Upper bound on the iteration constant A_moser.

    The constant is the infinite product
        prod_{j>=1} ((2 A_{l_{j-1} - 1})^gamma + 2)^(2 / l_j),
    A_l = C_s (l+1) / (2 sqrt(l)) * sqrt(psi_norm),  l_j = 2 mu^j,
    gamma = s/(s-r), s = 2p/n, r = (s+1)/2, mu = r n/(r n - 2).

    Factors are accumulated in log space until the remainder is covered
    by a certified geometric tail: A_{l-1} <= C_s sqrt(psi_norm * l) for
    l >= 4/3 and log(x + 2) <= max(log x, 0) + log 3 turn every later
    factor into P + Q*(j-1) times mu^{-j}, which sums in closed form.
    The returned value (truncated product times exp of the tail bound)
    is therefore always an upper bound, within MOSER_TAIL_TOL relative of
    the true constant.
    """
    n = require_dimension(n, "n")
    require_exponent(p, n)
    if not (1.0 <= psi_norm < math.inf):
        raise ValueError(f"psi_norm = {psi_norm} must be finite and >= 1")
    require_positive("C_s", C_s)
    s = 2.0 * p / n
    r = (s + 1.0) / 2.0
    mu = r * n / (r * n - 2.0)
    gamma = s / (s - r)
    root_psi = math.sqrt(psi_norm)

    def a_coeff(l: float) -> float:
        return C_s * (l + 1.0) / (2.0 * math.sqrt(l)) * root_psi

    x = 1.0 / mu
    c0 = gamma * math.log(2.0 * C_s * root_psi)
    c1 = gamma / 2.0
    P = c0 + c1 * math.log(2.0) + math.log(3.0)
    Q = c1 * math.log(mu)

    log_sum = 0.0
    l_prev = 2.0  # l_0
    for j in range(1, 100_000):
        l_j = 2.0 * mu ** j
        contrib = (2.0 / l_j) * math.log(
            (2.0 * a_coeff(l_prev - 1.0)) ** gamma + 2.0)
        log_sum += contrib
        # tail over j' > j, valid once the log argument bound is >= 1
        # (c0 + c1 log l_j >= 0) so max(log, 0) drops
        if l_prev >= 4.0 / 3.0 and c0 + c1 * math.log(l_j) >= 0.0:
            xp = x ** (j + 1)
            tail = (P * xp / (1.0 - x)
                    + Q * xp * (j - (j - 1) * x) / (1.0 - x) ** 2)
            if (0.0 <= tail <= MOSER_TAIL_TOL
                    and contrib <= MOSER_TAIL_TOL * (1.0 - x)):
                return math.exp(log_sum + tail)
        l_prev = l_j
    raise NoConvergence("Moser product tail failed to certify")


@dataclass(frozen=True)
class EpsilonBreakdown:
    """The four admissibility terms and the derived quantities."""

    terms: tuple
    eps_max: float
    A_moser: float
    K1: float
    K2: float
    C3: float
    B_pn: float
    alpha_tilde: float
    psi_norm: float


def _b_exponent_constant(p: float, n: int) -> float:
    """The diameter-scaling constant of the comparison volume bound."""
    return (((2.0 * p - 1.0) / p) ** 0.5
            * (n - 1.0) ** (1.0 - 1.0 / (2.0 * p))
            * ((2.0 * p - 2.0) / (2.0 * p - n)) ** ((p - 1.0) / (2.0 * p)))


def _volume_rate(p: float, n: int, D: float) -> tuple:
    """(B_pn, alpha_tilde) with the exponent rate
    alpha_tilde = log(1 + 2^-(p+1)) / (B_pn D) of the volume bound."""
    B_pn = _b_exponent_constant(p, n)
    return B_pn, math.log1p(2.0 ** (-(p + 1.0))) / (B_pn * D)


def epsilon_max(inp: LedgerInput, delta: float) -> EpsilonBreakdown:
    """Largest certified integral-curvature threshold at inp and delta.

    Terms one and two do not involve the Moser constant; their minimum
    seeds the worst-case norm psi_norm = 1 + 6 (tau - 1) * eps used to
    evaluate A_moser for terms three and four.  Seeding with the larger
    provisional eps only inflates A_moser, which only shrinks terms
    three and four, so the returned minimum is conservative (valid).
    """
    _require_delta(delta)
    n, p, D, d = inp.n, inp.p, inp.D, delta
    B_pn, alpha_tilde = _volume_rate(p, n, D)
    term1 = (n - 1.0) * alpha_tilde ** 2
    term2 = d / (12.0 * inp.C_s ** 2 * (3.0 + 2.0 * d))

    psi_norm = 1.0 + 6.0 * (tau_of(d) - 1.0) * min(term1, term2)
    A_moser = moser_constant(inp.C_s, p, n, psi_norm)
    K1 = math.sqrt(6.0 / inp.Lambda_rough * (2.0 + 3.0 / d))
    K2 = A_moser * (K1 + (9.0 + 6.0 * d) / d)
    term3 = ((math.sqrt(7.0) - 2.0) / K2) ** 2
    # the exponent (9+6d)/(3+2d) is identically 3
    term4 = 1.0 / (8.0 * K2 * (4.0 / (3.0 + 2.0 * d)) ** 3)
    C3 = (4.0 / (3.0 + 2.0 * d)) ** ((3.0 + 2.0 * d) / (3.0 + 4.0 * d))

    terms = (term1, term2, term3, term4)
    if min(terms) <= 0.0:
        raise ValueError(f"non-positive admissibility term: {terms}")
    return EpsilonBreakdown(terms=terms, eps_max=min(terms),
                            A_moser=A_moser, K1=K1, K2=K2, C3=C3,
                            B_pn=B_pn, alpha_tilde=alpha_tilde,
                            psi_norm=psi_norm)


def gallot_feasible(eps: float, n: int, p: float, D: float):
    """Whether eps is admissible for the comparison volume estimate.

    Evaluates the closed-form right side at the prescribed exponent rate
    alpha_tilde = log(1 + 2^-(p+1)) / (B_pn D) and compares; the first
    admissibility term of epsilon_max is this bound evaluated exactly,
    so it sits on the boundary (a small relative slack absorbs the
    different floating-point routes to the same number).

    Returns (feasible, alpha_tilde).
    """
    n = require_dimension(n, "n")
    require_exponent(p, n)
    require_positive("D", D)
    B_pn, alpha_tilde = _volume_rate(p, n, D)
    grow = math.expm1(B_pn * alpha_tilde * D)
    rhs = (n - 1.0) * alpha_tilde ** 2 * (
        1.0 / (2.0 ** (1.0 / p) * grow ** (1.0 / p)) - 1.0)
    return eps <= rhs * (1.0 + 1e-12), alpha_tilde


@dataclass(frozen=True)
class ConstantLedger:
    """Gradient constants plus the eps pipeline for one set of inputs
    and one delta; to_dict flattens them into one record."""

    inputs: LedgerInput
    delta: float
    sigma_used: float
    grad: GradientConstants
    eps: EpsilonBreakdown

    def to_dict(self) -> dict:
        inp, g, e = self.inputs, self.grad, self.eps
        return {
            "n": inp.n, "p": inp.p, "D": inp.D, "delta": self.delta,
            "C_s": inp.C_s, "Lambda_rough": inp.Lambda_rough,
            "sigma_used": self.sigma_used,
            "tau": g.tau, "A": g.A, "B": g.B, "z_peak": g.z_peak,
            "C1": g.C1, "C2": g.C2, "b": g.b, "alpha": g.alpha,
            "A_moser": e.A_moser, "K1": e.K1, "K2": e.K2, "C3": e.C3,
            "B_pn": e.B_pn, "alpha_tilde": e.alpha_tilde,
            "term1": e.terms[0], "term2": e.terms[1],
            "term3": e.terms[2], "term4": e.terms[3],
            "eps_max": e.eps_max,
        }


def build_ledger(inp: LedgerInput, delta: float,
                 sigma: Optional[float] = None) -> ConstantLedger:
    """Evaluate the whole pipeline once for nominal inputs and delta.

    sigma = None uses the a-priori shift bound 4 * eps_max; this is the
    only place that bound is derived.
    """
    eps = epsilon_max(inp, delta)
    if sigma is None:
        sigma = 4.0 * eps.eps_max
    return ConstantLedger(inputs=inp, delta=delta, sigma_used=sigma,
                          grad=gradient_constants(inp, delta, sigma), eps=eps)


# the alpha scan's 64 log-spaced deltas
_DELTA_GRID = tuple(DELTA_SCAN_LO * (DELTA_CAP / DELTA_SCAN_LO) ** (i / 63.0)
                    for i in range(64))
# relative width at which the refinement of the scan's bracket stops
_DELTA_REFINE_REL = 1e-12


def delta_for_alpha(alpha_target: float, inp: LedgerInput):
    """Largest admissible delta certifying at least alpha_target on inp.

    For each delta on `_DELTA_GRID` the self-consistent chain
    delta -> eps_max(delta) -> sigma bound 4 eps_max -> alpha(delta) is
    evaluated by `build_ledger`.  No global monotonicity of
    alpha(delta) is assumed: the scan runs from the top of the grid down
    and stops at the first qualifying point, the largest one.  Illinois
    regula falsi (Dowell & Jarratt 1971) on alpha - alpha_target narrows
    its bracket with the larger neighbor, always keeping the qualifying
    end and taking the midpoint where a secant point is not strictly
    inside.  Returns (delta, alpha_there).

    Raises Unreachable -- carrying best_alpha and best_delta, the first
    maximum over the grid -- when no grid point reaches the target.
    """
    if not (0.0 < alpha_target < 1.0):
        raise ValueError(f"alpha_target = {alpha_target} not in (0, 1)")

    grid = _DELTA_GRID
    alphas = {}
    for i in reversed(range(len(grid))):
        alphas[i] = build_ledger(inp, grid[i]).grad.alpha
        if alphas[i] >= alpha_target:
            break
    else:
        i_best = max(range(len(grid)), key=lambda i: alphas[i])
        raise Unreachable(
            f"target alpha {alpha_target} unreachable; best "
            f"{alphas[i_best]:.9g} at delta = {grid[i_best]:.6g}",
            best_alpha=alphas[i_best], best_delta=grid[i_best])
    lo, a_lo = grid[i], alphas[i]
    if i + 1 >= len(grid):
        return lo, a_lo
    hi, f_hi = grid[i + 1], alphas[i + 1] - alpha_target     # f_hi < 0
    f_lo, moved = a_lo - alpha_target, 0    # last end moved: +1 lo, -1 hi
    while hi - lo > _DELTA_REFINE_REL * hi:
        x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        a_x = build_ledger(inp, x).grad.alpha
        # an end that stays put twice running has its value halved
        if a_x >= alpha_target:
            f_hi *= 0.5 if moved > 0 else 1.0
            lo, a_lo, f_lo, moved = x, a_x, a_x - alpha_target, 1
        else:
            f_lo *= 0.5 if moved < 0 else 1.0
            hi, f_hi, moved = x, a_x - alpha_target, -1
    return lo, a_lo


def reference_bounds(n: int, H: float, D: float) -> dict:
    """Classical first-eigenvalue lower bounds for comparison plots.

    Returns a dict with keys lichnerowicz (None unless H > 0),
    zhong_yang, yang (None unless H < 0), shi_zhang.  The Shi-Zhang bound
    4 (s - s^2) pi^2 / D^2 + s (n - 1) H is taken at s = 1/2, where its
    first term is pi^2 / D^2.
    """
    n = require_dimension(n, "n")
    require_finite("H", H)
    require_positive("D", D)
    base = math.pi ** 2 / D ** 2
    out = {
        "zhong_yang": base,
        "lichnerowicz": n * H if H > 0.0 else None,
        "yang": None,
        "shi_zhang": base + 0.5 * (n - 1.0) * H,
    }
    if H < 0.0:
        c_n = max(math.sqrt(n - 1.0), math.sqrt(2.0))
        out["yang"] = base * math.exp(-c_n * math.sqrt((n - 1.0) * abs(H)) * D)
    return out
