"""Radial reduction of the expected influence of random halfspace polytopes.

Averaging the dilation derivative over both the body and the Gaussian point
collapses to a one-dimensional integral over the radius rho:

    E[influence] = integral  chi_n(rho) * s * tau_n * F(rho) * P(rho)^(s-1) drho,

with F the dilation-derivative factor and P the cap measure at ratio r/rho.
Everything here is assembled in log space per node, because s reaches 1e7
and beyond while P sits just below one.  The module also evaluates the
step-by-step lower-bound chain on the radius shell, the facet-count
selection rule, and the rule's constant c1, read at its closed-form
stationary point, where the objective is e^(-5/4).  F rises and then falls
in rho and the complement bound G rises, so every shell infimum built from
F or G alone is read at a shell edge; the two chain steps that mix F with a
power of P or of 1 - G are taken as minima over one 513-point grid on the
shell.
Windows, node counts, the shell and every tolerance follow from n alone; a
QuadratureSpec only switches the influence integral to the adaptive rule
that serves as its independent check.

e^(-5/4) is the alpha = 1 value of the log-average (Jensen) bound over the
chi_n law: with rho = sqrt(n) + g, g ~ N(0, 1/2), Jensen's inequality gives
alpha e^(-1) e^(-alpha^4/4) for GSA / n^(1/4) at r = alpha n^(1/4) as n
grows.  The shell chain certifies far less: at alpha = 1 its
log_chain_value is -8.66 at n = 64 and -1046.5 at n = 4096 (scan_report).
Nor is e^(-5/4) the limit of the optimized expectation.  With
r = alpha n^(1/4) and s optimized, E[GSA] / n^(1/4) tends to the larger
L(alpha) = alpha * sup_lambda E[lambda e^(alpha^2 g) exp(-lambda e^(alpha^2 g))],
g ~ N(0, 1/2) (L(1) = 0.30127), from above at a rate of order n^(-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cap import (_LOG_MAX, cap_log_complement_from_ratio,
                  log_complement_upper_from_ratio, log_F_dilation)
from .golden import golden_section_max
from .quadrature import composite_nodes, integrate_doubling, node_ladder
from .specfun import SQRT_2PI, chi_log_density, log1mexp, log_tau_n

_NODES = 128
_REL_TOL = 1e-8
_GIVE_UP_TOL = 1e-6
_MAX_DOUBLINGS = 12
_TABLES_KEPT = 16  # one node table per rung of a full ladder: 128 << 0..12
_CHAIN_SLACK = 1e-10
_COARSE_GRID = 48
_SHELL_GRID = 513
_LOG_UNDERFLOW = -746.0  # math.exp is exactly 0.0 below this
_BLOCK = 1 << 18  # log integrands per array when many s climb the ladder together


class ChainViolationError(RuntimeError):
    """A step of the lower-bound chain came out above its predecessor.

    Every step is an inequality, so a numerical violation beyond slack means
    an implementation bug, not an unlucky configuration.
    """


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial integration window and rule.

    The default window covers [sqrt(n) - 12, sqrt(n) + 12] clipped to the
    positive axis; the Gaussian-norm density outside is below e^-70 of its
    peak, far under the convergence tolerance.  The Gauss-Legendre rule
    starts its node doubling at 128 nodes.
    """

    rho_lo: float
    rho_hi: float
    rule: str = "gauss-legendre"

    def __post_init__(self):
        if not (self.rho_lo >= 0.0 and self.rho_hi > self.rho_lo):
            raise ValueError(f"invalid window [{self.rho_lo}, {self.rho_hi}]")
        if self.rule not in ("gauss-legendre", "adaptive"):
            raise ValueError(f"unknown rule: {self.rule}")

    @classmethod
    def for_dimension(cls, n: int, rule: str = "gauss-legendre"):
        root = math.sqrt(n)
        return cls(rho_lo=max(root - 12.0, 0.0), rho_hi=root + 12.0, rule=rule)


def shell_for(n: int) -> tuple[float, float]:
    """(rho_min, rho_max) = sqrt(n) -+ n^(1/4), the shell, for n >= 4.

    The shell only carries the cap-complement bound G of the chain, and G
    exists for n >= 4 alone, so smaller dimensions are rejected here rather
    than downstream.  rho_min = n^(1/4) (n^(1/4) - 1) is positive there.
    """
    if n < 4:
        raise ValueError(f"shell needs n >= 4 for the complement bound G, got {n}")
    t = n**0.25
    root = math.sqrt(n)
    return root - t, root + t


@dataclass(frozen=True)
class LowerBoundReport:
    """Per-configuration record of the exact integral and the chain of bounds.

    chain_value is the shell infimum bound with the exact cap complement
    replaced by its closed-form upper bound; bernoulli_value additionally
    relaxes (1-G)^s through exp(-sG)(1 - s G^2 e^G).  Both come with log
    fields because at large n they underflow linear doubles long before the
    ordering checks lose meaning.
    """

    n: int
    r: float
    s: float
    alpha: float
    c1: float
    exact_quadrature: float
    chain_value: float
    bernoulli_value: float
    gsa_lower: float
    ratio_to_n14: float
    log_chain_value: float
    log_bernoulli_value: float
    vol_shell: float
    inf_F: float
    inf_G: float
    sup_G: float
    stitch_factor_min: float


def _logsumexp_rows(values: np.ndarray) -> list[float]:
    """log of each row's sum of exp; row-wise max, exp and sum give each row
    the bits the same calls give it as a 1-D array."""
    top = values.max(axis=1)
    tops = top.tolist()
    if not all(map(math.isfinite, tops)):
        top = np.where(np.isfinite(top), top, 0.0)
    sums = np.exp(values - top[:, None]).sum(axis=1).tolist()
    return [t + math.log(total) if math.isfinite(t) else t for t, total in zip(tops, sums)]


def _s_free_log_terms(n: int, r: float, rho, log_w=0.0):
    """The s-free parts of the log integrand at rho, its one definition.

    Returns (log_w + log chi_n + log tau_n + log F, log P); the log
    integrand is the first plus log s plus (s - 1) times the second.
    """
    base = log_w + chi_log_density(n, rho) + log_tau_n(n) + log_F_dilation(n, r, rho)
    return base, log1mexp(cap_log_complement_from_ratio(n, r / rho))


@lru_cache(maxsize=_TABLES_KEPT)
def _node_table(n: int, r: float, lo: float, hi: float, nodes: int):
    """Cached s-free log terms at the nodes, the quadrature weights folded in.

    Callers reuse the tables of one (n, r) at a time, across the values of s
    that optimize_s and lower_bound_chain try, so the cache holds one full
    ladder; tables kept for earlier (n, r) would only pin memory.
    """
    x, w = composite_nodes(lo, hi, nodes)
    return _s_free_log_terms(n, r, x, np.log(w))


def influence_log_integrand(n: int, r: float, s: float, rho):
    """log of the radial integrand; finite or -inf for any admissible input.

    Exposed for overflow auditing: with s up to 1e9 and n up to 1e5 every
    intermediate stays in log space.
    """
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    base, log_p = _s_free_log_terms(n, r, rho_arr)
    out = base + math.log(s) + (s - 1.0) * log_p
    return float(out[0]) if np.isscalar(rho) else out


@lru_cache(maxsize=_TABLES_KEPT)
def _log_p_max(n: int, r: float, lo: float) -> float:
    """log P at lo, its largest value on [lo, inf): P falls as rho grows."""
    return _s_free_log_terms(n, r, lo)[1]


def _log_step_settled(prev: float, val: float, tol: float) -> bool:
    return (prev == val == -math.inf) or abs(val - prev) <= tol


def _check_cell(n: int, r: float) -> None:
    """The (n, r) checks of the one-point and grid integrals alike."""
    if n < 4:
        raise ValueError(f"radial reduction needs n >= 4, got {n}")
    if not r > 0.0:
        raise ValueError(f"offset r must be > 0, got {r}")


def expected_influence_quadrature(n: int, r: float, s: float,
                                  spec: QuadratureSpec | None = None) -> float:
    """E[influence] of the random polytope by radial quadrature.

    Composite Gauss-Legendre with node doubling until successive values agree
    to 1e-8 relative (in the log); failure to reach 1e-6 raises with the node
    ladder attached.  When an upper bound on every node sum lies below the
    double range (about e^-746) the value is 0.0 and no ladder runs.  F
    vanishes identically below rho = r, so integration starts at
    max(window_lo, r) and the clamp kink never sits inside a panel.  r = inf
    is the whole-space limit, 0.0; a non-finite s raises ValueError.
    """
    _check_cell(n, r)
    if not 1.0 <= s < math.inf:
        raise ValueError(f"facet count must be finite and >= 1, got {s}")
    if spec is None:
        spec = QuadratureSpec.for_dimension(n)
    lo = max(spec.rho_lo, r)
    if lo >= spec.rho_hi:
        return 0.0

    if spec.rule == "adaptive":
        from .quadrature import adaptive_quad

        def integrand(x):
            return np.exp(influence_log_integrand(n, r, s, x))

        return adaptive_quad(integrand, lo, spec.rho_hi, abs_tol=1e-10)

    return _influences_on_ladder(n, r, lo, spec.rho_hi, [s])[0]


def _influences_on_ladder(n: int, r: float, lo: float, hi: float, s_values) -> list[float]:
    """E[influence] on [lo, hi] for every s in s_values, on one node ladder.

    Each rung evaluates one (s x nodes) array of log integrands for the s
    still moving, in blocks of at most _BLOCK entries, and its row-wise
    log-sum-exp; each s freezes at its own first settled rung, so its value
    is bit for bit what it gets alone.  The early exit and the convergence
    error are per s; the error raised is the first s's in order that fails.
    """
    # chi_n <= 1, F <= 1 and P <= P(lo) on the window, so every node sum is at
    # most (hi - lo) tau_n s P(lo)^(s-1); below the double range it is 0.0 at
    # any node count, where the ladder's absolute log step could never settle.
    log_room = math.log(hi - lo) + log_tau_n(n)
    log_p_max = _log_p_max(n, r, lo)
    log_s = [math.log(s) for s in s_values]
    climbing = [i for i, s in enumerate(s_values)
                if not log_room + log_s[i] + (s - 1.0) * log_p_max < _LOG_UNDERFLOW]
    out = [0.0] * len(s_values)
    if not climbing:
        return out
    log_s_col = np.array([log_s[i] for i in climbing])[:, None]
    s_m1_col = np.array([s_values[i] - 1.0 for i in climbing])[:, None]

    def log_values(nodes, rows):
        base, log_p = _node_table(n, r, lo, hi, nodes)
        step = max(1, _BLOCK // nodes)
        logs = []
        for j in range(0, len(rows), step):
            cut = slice(j, j + step) if len(rows) == len(climbing) else rows[j:j + step]
            logs += _logsumexp_rows(base + log_s_col[cut] + s_m1_col[cut] * log_p)
        return logs

    def what(j):
        return f"influence quadrature (log values) at (n={n}, r={r}, s={s_values[climbing[j]]})"

    logs = node_ladder(log_values, _NODES, _log_step_settled, _REL_TOL, _GIVE_UP_TOL,
                       _MAX_DOUBLINGS, what, entries=len(climbing))
    for i, value in zip(climbing, logs):
        out[i] = math.exp(value)
    return out


def expected_gsa(n: int, r: float, s: float,
                 spec: QuadratureSpec | None = None) -> float:
    """E[surface area] = E[influence] / r; every boundary point has x.normal = r."""
    return expected_influence_quadrature(n, r, s, spec) / r


def _double_range_error(where: str, log_s: float) -> ValueError:
    return ValueError(
        f"{where}: ln s = {log_s:.6g} is beyond the double range "
        f"(s must stay below the largest double, ln s <= {_LOG_MAX:.2f})")


def expected_gsa_grid(n: int, r: float, ln_s: np.ndarray) -> np.ndarray:
    """expected_gsa(n, r, math.exp(g)) for every g in ln_s, on one node ladder.

    Bit for bit the one-point values, early exits, input checks and first
    convergence error included (see _influences_on_ladder); ln s past the
    double range, a NaN in ln s or a non-finite r raises ValueError, and an
    empty grid returns an empty array.
    """
    if not math.isfinite(r):
        raise ValueError(f"offset r must be finite and > 0, got {r}")
    _check_cell(n, r)
    ln_s = np.asarray(ln_s, dtype=float).tolist()
    if not ln_s:
        return np.zeros(0)
    if any(map(math.isnan, ln_s)):
        raise ValueError("facet count must be finite, got ln s = nan")
    if min(ln_s) < 0.0:
        raise ValueError(f"facet count must be >= 1, got ln s = {min(ln_s)}")
    if max(ln_s) > _LOG_MAX:
        raise _double_range_error(f"facet-count grid at (n={n}, r={r})", max(ln_s))
    spec = QuadratureSpec.for_dimension(n)
    lo = max(spec.rho_lo, r)
    if lo >= spec.rho_hi:
        return np.zeros(len(ln_s))
    s_values = [math.exp(g) for g in ln_s]
    return np.array(_influences_on_ladder(n, r, lo, spec.rho_hi, s_values)) / r


def choose_s(n: int, r: float, c1: float) -> int:
    """Facet count from the selection rule s * inf_shell(F) = c1, for n >= 4.

    d/drho log F = -1/rho + (n - 3) r^2 / (rho (rho^2 - r^2)) vanishes only
    at rho = r sqrt(n - 2), so F rises and then falls on rho > r, and its
    infimum over the shell is the lower of its two edge values, for any r.
    s is rounded to the nearest integer, so s * inf F = c1 holds only to
    within inf F / 2 (1/(2s) relative).
    """
    rho_min, rho_max = shell_for(n)
    if not c1 > 0.0:
        raise ValueError(f"c1 must be > 0, got {c1}")
    if rho_min <= r:
        raise ValueError(
            f"degenerate shell: inner radius {rho_min} does not clear r={r}")
    log_inf_f = float(log_F_dilation(n, r, np.array([rho_min, rho_max])).min())
    log_s = math.log(c1) - log_inf_f
    if log_s > _LOG_MAX:
        raise _double_range_error(f"choose_s at (n={n}, r={r}, c1={c1})", log_s)
    inf_f = math.exp(log_inf_f)
    return max(1, int(round(c1 / inf_f if inf_f > 0.0 else math.exp(log_s))))


def optimal_c1():
    """Maximize (c/sqrt(2 pi)) exp(-c e^(1/4) / sqrt(2 pi)) over c > 0.

    Returns (argmax, max value), read at the stationary point: the log
    derivative 1/c - e^(1/4)/sqrt(2 pi) vanishes at c1 = sqrt(2 pi) e^(-1/4),
    where the objective is e^(-5/4).
    """
    rate = math.exp(0.25) / SQRT_2PI
    c1 = 1.0 / rate
    return c1, c1 / SQRT_2PI * math.exp(-rate * c1)


def optimize_s(n: int, r: float) -> int:
    """The facet count s_star that maximizes expected surface area.

    Works on ln s (continuous relaxation, rounded at the end): a 48-point
    scan brackets the peak, golden section refines it.  Returns s_star
    alone; a caller that wants its expected_gsa integrates it once.  The
    bracket is centered where s times the cap-complement bound at radius
    sqrt(n) is order one, which is where the integrand stops being killed
    by either factor.  The 48 values of s share one node ladder
    (expected_gsa_grid), one (48 x nodes) log-sum-exp per rung, with the
    one-point values; golden section then integrates one s at a time.  Every value of s is
    integrated on the default window, so the ladder's node tables are built
    once per (n, r) and served from cache.  A scan reaching ln s past the
    double range (about 709.78) raises ValueError, and so does a non-finite r.
    """
    if n < 7:
        raise ValueError(f"optimize_s needs n >= 7, got {n}")
    if not 0.0 < r < math.inf:
        raise ValueError(f"offset r must be finite and > 0, got {r}")
    log_g_center = float(log_complement_upper_from_ratio(n, r / math.sqrt(n)))

    def objective(ln_s):
        return expected_gsa(n, r, math.exp(ln_s))

    half_width = math.log(1e3)
    for attempt in range(4):
        lo = max(0.0, -log_g_center - half_width)
        hi = max(lo + 1.0, -log_g_center + half_width)
        grid = np.linspace(lo, hi, _COARSE_GRID)
        vals = expected_gsa_grid(n, r, grid)
        k = int(np.argmax(vals))
        if 0 < k < _COARSE_GRID - 1 or (k == 0 and lo == 0.0):
            break
        half_width *= 2.0
    else:
        raise RuntimeError(f"facet-count optimum not bracketed at (n={n}, r={r})")
    a = grid[max(0, k - 1)]
    b = grid[min(_COARSE_GRID - 1, k + 1)]
    ln_star = golden_section_max(objective, a, b, tol=1e-6)
    return max(1, int(round(math.exp(ln_star))))


def _log_1m_g(g_log):
    """log(1 - G) from log G; log1mexp(0) = -inf covers G >= 1."""
    return log1mexp(np.minimum(g_log, 0.0))


# The stitch terms stay on math.exp/math.log, one float at a time: numpy's
# exp may differ from math.exp in the last bit.
def _stitch_log(log_s: float, g_log: float) -> float:
    """log of e^(-sG) (1 - s G^2 e^G), the Bernoulli relaxation of (1-G)^s."""
    sg_log = log_s + g_log
    if sg_log > 700.0:
        return -math.inf
    sg = math.exp(sg_log)
    g = math.exp(g_log)
    factor = 1.0 - sg * g * math.exp(min(g, 700.0))
    if factor <= 0.0:
        return -math.inf
    return -sg + math.log(factor)


def _stitch_factor(log_s: float, g_log: float) -> float:
    """The stitch factor 1 - s G^2 e^G."""
    sg2 = math.exp(min(log_s + 2.0 * g_log, 700.0))
    return 1.0 - sg2 * math.exp(min(math.exp(g_log), 700.0))


def _shell_edge_reads(log_f: np.ndarray, log_g: np.ndarray, log_1m_g: np.ndarray,
                      s: float):
    """The six shell infima the theory puts at an edge, read from the edges.

    log_f, log_g and log_1m_g are log F, log G and log(1 - G) on a grid over
    the shell, inner edge first.  F rises up to rho = r sqrt(n - 2) and
    falls after it, so its infimum is the lower edge value.  G rises with
    rho, and s log(1 - G), the stitch log and the stitch factor all fall as
    G grows, so theirs sit at the outer edge.  Returns log inf F, log inf G,
    log sup G, inf s log(1 - G), inf stitch log and inf stitch factor.
    """
    log_s = math.log(s)
    g_top = float(log_g[-1])
    return (min(float(log_f[0]), float(log_f[-1])), float(log_g[0]), g_top,
            s * float(log_1m_g[-1]), _stitch_log(log_s, g_top),
            _stitch_factor(log_s, g_top))


def lower_bound_chain(n: int, r: float, s: float) -> LowerBoundReport:
    """Evaluate every step of the shell lower bound at finite n.

    Steps, each a pointwise theorem on the shell (no asymptotics):

      exact >= vol(shell) * inf{ s tau F P^(s-1) }                    (v1)
            >= vol(shell) * tau * inf{ s F (1-G)^(s-1) }             (v2, cap bound)
            >= vol(shell) * tau * c1 * inf{ (1-G)^s }                (v3, c1 = s inf F)
            >= vol(shell) * tau * c1 * inf{ e^(-sG) (1 - s G^2 e^G) } (v4, Bernoulli)

    log F, log G and log P are each evaluated once on one 513-point grid on
    the shell.  inf F, inf G, sup G, v3, v4 and the stitch factor can only
    sit at a shell edge (see _shell_edge_reads) and are read from there.
    v1 and v2 are the minima of their integrands over the same grid.  A grid
    minimum is not a certified infimum, only an upper estimate of it; but on
    4000 random cells (n = 4 ... 1e5, alpha = 0.05 ... 2, s = 1 ... 1e12)
    every finite grid minimum of v1 and v2 sat at a shell edge, and a golden
    search to 1e-9 around each grid argmin changed no report of a 1080-cell
    sweep (n = 7 ... 1e5, alpha = 0.25 ... 2, s optimized and 1 ... 1e12).
    At s = 1 the (s - 1) power terms are exactly 0, also where log(1 - G)
    is -inf.  Any ordering violation beyond 1e-10 relative slack raises.
    chain_value is v2, bernoulli_value is v4.
    """
    exact = expected_influence_quadrature(n, r, s)
    rho_min, rho_max = shell_for(n)
    log_tau = log_tau_n(n)
    log_s = math.log(s)

    vol_shell = integrate_doubling(
        lambda x: np.exp(chi_log_density(n, x)), rho_min, rho_max,
        nodes=128, rel_tol=1e-12)
    log_vol = math.log(vol_shell)

    def power(log_base):  # (s - 1) log_base, exactly 0 at s = 1
        return (s - 1.0) * log_base if s != 1.0 else 0.0

    xs = np.linspace(rho_min, rho_max, _SHELL_GRID)
    LF = log_F_dilation(n, r, xs)
    LG = log_complement_upper_from_ratio(n, r / xs)
    LP = log1mexp(cap_log_complement_from_ratio(n, r / xs))
    L1mG = _log_1m_g(LG)

    log_inf_F, log_inf_G, log_sup_G, log_1mG_s, log_stitch, stitch_min = \
        _shell_edge_reads(LF, LG, L1mG, s)
    log_c1 = log_s + log_inf_F

    log_v1 = log_vol + float((log_s + log_tau + LF + power(LP)).min())
    log_v2 = log_vol + log_tau + float((log_s + LF + power(L1mG)).min())
    log_v3 = log_vol + log_tau + log_c1 + log_1mG_s
    log_v4 = log_vol + log_tau + log_c1 + log_stitch

    def check(name, larger_log, smaller_log):
        if smaller_log == -math.inf:
            return
        if math.exp(smaller_log) > math.exp(min(larger_log, 700.0)) * (1.0 + _CHAIN_SLACK) \
           + _CHAIN_SLACK:
            raise ChainViolationError(
                f"chain step {name} violated at (n={n}, r={r}, s={s}): "
                f"log {larger_log} < log {smaller_log}")

    log_exact = math.log(exact) if exact > 0.0 else -math.inf
    check("exact >= v1", log_exact, log_v1)
    check("v1 >= v2", log_v1, log_v2)
    check("v2 >= v3", log_v2, log_v3)
    check("v3 >= v4", log_v3, log_v4)

    chain_value = math.exp(log_v2) if log_v2 > -math.inf else 0.0
    bernoulli_value = math.exp(log_v4) if log_v4 > -math.inf else 0.0
    return LowerBoundReport(
        n=n, r=r, s=s, alpha=r / n**0.25,
        c1=math.exp(log_c1),
        exact_quadrature=exact,
        chain_value=chain_value,
        bernoulli_value=bernoulli_value,
        gsa_lower=chain_value / r,
        ratio_to_n14=(exact / r) / n**0.25,
        log_chain_value=log_v2,
        log_bernoulli_value=log_v4,
        vol_shell=vol_shell,
        inf_F=math.exp(log_inf_F),
        inf_G=math.exp(log_inf_G),
        sup_G=math.exp(log_sup_G),
        stitch_factor_min=stitch_min,
    )


def scan_report(n_list, alpha_list) -> list[LowerBoundReport]:
    """Optimize the facet count and run the chain for each (n, alpha) cell.

    r = alpha * n^(1/4) per cell; reports come back in (n, alpha) order.
    """
    reports = []
    for n in n_list:
        if n < 7:
            raise ValueError(f"scan needs n >= 7, got {n}")
        for alpha in alpha_list:
            r = alpha * n**0.25
            reports.append(lower_bound_chain(n, r, float(optimize_s(n, r))))
    return reports
