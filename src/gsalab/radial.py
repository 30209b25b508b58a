"""Radial reduction of the expected influence of random halfspace polytopes.

Averaging the dilation derivative over both the body and the Gaussian point
collapses to a one-dimensional integral over the radius rho:

    E[influence] = integral  chi_n(rho) * s * tau_n * F(rho) * P(rho)^(s-1) drho,

with F the dilation-derivative factor and P the cap measure at ratio r/rho.
Everything here is assembled in log space per node, because s reaches 1e7
and beyond while P sits just below one.  The module also evaluates the
log-average (Jensen) lower bound on that integral over the chi_n law, the
facet count that maximizes it, and the constant c1, read at its closed-form
stationary point, where the objective is e^(-5/4).
Windows, node counts and every tolerance follow from n alone; a
QuadratureSpec only switches the influence integral to the adaptive rule
that serves as its independent check.

e^(-5/4) is the alpha = 1 limit of the Jensen bound: with
rho = sqrt(n) + g, g ~ N(0, 1/2), Jensen's inequality gives
alpha e^(-1) e^(-alpha^4/4) for GSA / n^(1/4) at r = alpha n^(1/4) as n
grows.  At finite n the bound stays within 10% of the exact value: at
alpha = 1 and s optimized its log_chain_value is 0.936 against
ln(exact) = 1.031 at n = 64, and 2.924 against 2.981 at n = 4096
(scan_report).
e^(-5/4) is not the limit of the optimized expectation either: with
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
from .quadrature import _relative_step, composite_nodes, integrate_doubling, node_ladder
from .specfun import SQRT_2PI, chi_log_density, log1mexp, log_tau_n

_NODES = 128
_REL_TOL = 1e-8
_GIVE_UP_TOL = 1e-6
_MAX_DOUBLINGS = 12
_TABLES_KEPT = 16  # one node table per rung of a full ladder: 128 << 0..12
_CHAIN_SLACK = 1e-10
_COARSE_GRID = 48
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


@dataclass(frozen=True)
class LowerBoundReport:
    """Per-configuration record of the exact integral and its Jensen lower bound.

    chain_value is m_W exp(E_W[h]) at the report's s (see lower_bound_chain),
    with log_chain_value its log, kept because the bound underflows linear
    doubles at large s long before the check against the exact value loses
    meaning.  s_jensen is the facet count that maximizes the bound.
    """

    n: int
    r: float
    s: float
    alpha: float
    exact_quadrature: float
    chain_value: float
    gsa_lower: float
    ratio_to_n14: float
    log_chain_value: float
    s_jensen: float


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


def lower_bound_chain(n: int, r: float, s: float) -> LowerBoundReport:
    """The exact integral at s and its Jensen (log-average) lower bound.

    On the window W = [max(sqrt(n) - 12, r + 1), sqrt(n) + 12], with
    h = ln s + ln tau_n + ln F + (s - 1) ln P the log integrand,

      exact >= integral_W chi_n e^h >= m_W exp(E_W[h]),

    the second step by Jensen's inequality on the chi_n law restricted to W,
    whose mass is m_W.  W is the exact integral's window moved one unit clear
    of rho = r, where ln F tends to -inf; wherever the two coincide, the
    ln P node tables the bound reads are the ones the exact integral built.
    The log-moments integral_W chi_n ln F and integral_W chi_n ln P climb one
    node ladder as two entries, each settled to 1e-8 relative.  The bound is
    largest at s_jensen = -m_W / integral_W chi_n ln P.  At s = 1 the
    (s - 1) term is exactly 0.  A bound above the exact value beyond 1e-10
    relative slack raises ChainViolationError; an empty W, or an s_jensen
    past the double range, raises ValueError.
    """
    exact = expected_influence_quadrature(n, r, s)
    spec = QuadratureSpec.for_dimension(n)
    lo, hi = max(spec.rho_lo, r + 1.0), spec.rho_hi
    if not lo < hi:
        raise ValueError(f"Jensen window empty at (n={n}, r={r}): r + 1 >= sqrt(n) + 12")
    mass = integrate_doubling(
        lambda x: np.exp(chi_log_density(n, x)), lo, hi, nodes=_NODES, rel_tol=_REL_TOL)

    def log_moments(nodes, live):
        x, w = composite_nodes(lo, hi, nodes)
        chi_w = w * np.exp(chi_log_density(n, x))
        logs = (log_F_dilation(n, r, x), _node_table(n, r, lo, hi, nodes)[1])
        return [float(np.dot(chi_w, logs[i])) for i in live]

    def what(i):
        return f"Jensen {('ln F', 'ln P')[i]} moment at (n={n}, r={r})"

    int_log_f, int_log_p = node_ladder(log_moments, _NODES, _relative_step, _REL_TOL,
                                       _GIVE_UP_TOL, _MAX_DOUBLINGS, what, entries=2)
    if int_log_p == 0.0:
        raise ValueError(f"Jensen facet count at (n={n}, r={r}): ln P underflows to 0 on "
                         f"the whole window, so ln s is beyond the double range "
                         f"(s must stay below the largest double, ln s <= {_LOG_MAX:.2f})")
    log_mass = math.log(mass)
    log_s_jensen = log_mass - math.log(-int_log_p)
    if log_s_jensen > _LOG_MAX:
        raise _double_range_error(f"Jensen facet count at (n={n}, r={r})", log_s_jensen)
    log_bound = (log_mass + math.log(s) + log_tau_n(n)
                 + (int_log_f + (s - 1.0) * int_log_p) / mass)
    chain_value = math.exp(min(log_bound, 700.0))  # above 700 it fails the check
    if chain_value > exact * (1.0 + _CHAIN_SLACK) + _CHAIN_SLACK:
        raise ChainViolationError(
            f"Jensen bound above the exact value at (n={n}, r={r}, s={s}): "
            f"log {log_bound} > log {math.log(exact) if exact > 0.0 else -math.inf}")
    return LowerBoundReport(
        n=n, r=r, s=s, alpha=r / n**0.25,
        exact_quadrature=exact,
        chain_value=chain_value,
        gsa_lower=chain_value / r,
        ratio_to_n14=(exact / r) / n**0.25,
        log_chain_value=log_bound,
        s_jensen=-mass / int_log_p,
    )


def scan_report(n_list, alpha_list) -> list[LowerBoundReport]:
    """Optimize the facet count and run the Jensen chain for each (n, alpha) cell.

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
