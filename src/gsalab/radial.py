"""Radial reduction of the expected influence of random halfspace polytopes.

Averaging the dilation derivative over both the body and the Gaussian point
collapses to a one-dimensional integral over the radius rho:

    E[influence] = integral  chi_n(rho) * s * tau_n * F(rho) * P(rho)^(s-1) drho,

with F the dilation-derivative factor and P the cap measure at ratio r/rho.
Everything here is assembled in log space per node, because s reaches 1e7
and beyond while P sits just below one.  The module also evaluates the
log-average (Jensen) lower bound on that integral over the chi_n law and the
facet count that maximizes it.  The facet count s_star that maximizes
E[GSA] is defined by its first-order condition: the root in ln s of
dE/d ln s, found by safeguarded Newton on sums over the node tables cached
for its (n, r), the tables the bound's sums read too, and then the better of
the two integers beside e^root.
Windows follow from n alone, node counts and every tolerance from quadrature's
one node-doubling policy; a QuadratureSpec only switches the influence
integral to the adaptive rule, the route the benchmark's scan oracle takes.

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
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .cap import (_LOG_MAX, cap_log_complement_from_ratio,
                  log_complement_upper_from_ratio, log_F_dilation)
from .quadrature import _relative_step, composite_nodes, node_ladder
from .specfun import chi_log_density, log1mexp, log_tau_n

_TABLES_KEPT = 16  # a full ladder, 128 << 0..12, plus the Jensen window's own tables
_CHAIN_SLACK = 1e-10
_LOG_UNDERFLOW = -746.0  # math.exp is exactly 0.0 below this
_ROOT_TOL = 1e-7  # the last Newton step in ln s
_MAX_SLOPES = 100  # a safety stop far beyond what safeguarded Newton needs


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


def _logsumexp(values: np.ndarray) -> float:
    """log of the sum of exp(values), shifted by their maximum."""
    top = float(values.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(values - top).sum()))


def _s_free_log_terms(n: int, r: float, rho, log_w=0.0):
    """The s-free parts of the log integrand at rho, their one definition.

    Returns (log_w + log chi_n + log tau_n + log F, log P, log chi_n, log F);
    the log integrand is the first plus log s plus (s - 1) times the second.
    """
    log_chi, log_f = chi_log_density(n, rho), log_F_dilation(n, r, rho)
    base = log_w + log_chi + log_tau_n(n) + log_f
    return base, log1mexp(cap_log_complement_from_ratio(n, r / rho)), log_chi, log_f


_NodeTable = namedtuple("_NodeTable", "base log_p log_neg_log_p w chi log_f")


@lru_cache(maxsize=_TABLES_KEPT)
def _node_table(n: int, r: float, lo: float, hi: float, nodes: int) -> _NodeTable:
    """Cached s-free terms at the nodes of [lo, hi], the one place they are evaluated.

    The exact integral reads base (log weights folded in) and log_p, the
    slope of E in ln s also log_neg_log_p = ln(-ln P) (-inf where ln P is
    0), and the Jensen sums w, chi, log_f and log_p.  Callers reuse the
    tables of one (n, r) at a time, across the values of s that optimize_s and
    lower_bound_chain try, so the cache holds one full ladder and the Jensen
    window's tables; tables kept for earlier (n, r) would only pin memory.
    """
    x, w = composite_nodes(lo, hi, nodes)
    # a panel that rounding collapsed to zero width (r within about 1e-14 of
    # the window top) has zero weights, whose -inf logs add exactly nothing
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
    base, log_p, log_chi, log_f = _s_free_log_terms(n, r, x, log_w)
    with np.errstate(divide="ignore"):
        log_neg_log_p = np.log(-log_p)
    return _NodeTable(base, log_p, log_neg_log_p, w, np.exp(log_chi), log_f)


def influence_log_integrand(n: int, r: float, s: float, rho):
    """log of the radial integrand; finite or -inf for any admissible input.

    Exposed for overflow auditing: with s up to 1e9 and n up to 1e5 every
    intermediate stays in log space.
    """
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    base, log_p, _, _ = _s_free_log_terms(n, r, rho_arr)
    out = base + math.log(s) + (s - 1.0) * log_p
    return float(out[0]) if np.isscalar(rho) else out


@lru_cache(maxsize=_TABLES_KEPT)
def _log_p_max(n: int, r: float, lo: float) -> float:
    """log P at lo, its largest value on [lo, inf): P falls as rho grows."""
    return _s_free_log_terms(n, r, lo)[1]


def _log_step_settled(prev: float, val: float, tol: float) -> bool:
    return (prev == val == -math.inf) or abs(val - prev) <= tol


def expected_influence_quadrature(n: int, r: float, s: float,
                                  spec: QuadratureSpec | None = None) -> float:
    """E[influence] of the random polytope by radial quadrature.

    Composite Gauss-Legendre with node doubling until successive values agree
    to 1e-8 relative (in the log); failure to reach 1e-6 raises with the node
    ladder attached.  When an upper bound on every node sum lies below the
    double range (about e^-746) the value is 0.0 and no ladder runs.  F
    vanishes identically below rho = r, so integration starts at
    max(window_lo, r) and the clamp kink never sits inside a panel.  r = inf
    is the whole-space limit, 0.0; a subnormal r, where r / rho loses digits,
    and a non-finite s raise ValueError.
    """
    if n < 4:
        raise ValueError(f"radial reduction needs n >= 4, got {n}")
    if not r > 0.0:
        raise ValueError(f"offset r must be > 0, got {r}")
    if r < sys.float_info.min:
        raise ValueError(f"offset r = {r} is subnormal: r / rho would lose digits")
    if not 1.0 <= s < math.inf:
        raise ValueError(f"facet count must be finite and >= 1, got {s}")
    if spec is None:
        spec = QuadratureSpec.for_dimension(n)
    lo, hi = max(spec.rho_lo, r), spec.rho_hi
    if lo >= hi:
        return 0.0

    if spec.rule == "adaptive":
        from .quadrature import adaptive_quad

        def integrand(x):
            return np.exp(influence_log_integrand(n, r, s, x))

        return adaptive_quad(integrand, lo, hi, abs_tol=1e-10)

    # chi_n <= 1, F <= 1 and P <= P(lo) on the window, so every node sum is at
    # most (hi - lo) tau_n s P(lo)^(s-1); below the double range it is 0.0 at
    # any node count, where the ladder's absolute log step could never settle.
    log_s = math.log(s)
    log_bound = math.log(hi - lo) + log_tau_n(n) + log_s + (s - 1.0) * _log_p_max(n, r, lo)
    if log_bound < _LOG_UNDERFLOW:
        return 0.0

    def log_value(nodes):
        table = _node_table(n, r, lo, hi, nodes)
        return _logsumexp(table.base + log_s + (s - 1.0) * table.log_p)

    def what():
        return f"influence quadrature (log values) at (n={n}, r={r}, s={s})"

    return math.exp(node_ladder(log_value, _log_step_settled, what))


def expected_gsa(n: int, r: float, s: float,
                 spec: QuadratureSpec | None = None) -> float:
    """E[surface area] = E[influence] / r; every boundary point has x.normal = r."""
    return expected_influence_quadrature(n, r, s, spec) / r


def _double_range_error(where: str, log_s: float) -> ValueError:
    return ValueError(
        f"{where}: ln s = {log_s:.6g} is beyond the double range "
        f"(s must stay below the largest double, ln s <= {_LOG_MAX:.2f})")


def _slope(n: int, r: float, lo: float, hi: float, x: float):
    """g(x) = ln A - ln B - x and g'(x) at ln s = x, on the window [lo, hi].

    With h = base + x + (e^x - 1) ln P the log integrand and L = ln(-ln P),
    A = sum e^h is the integral, B = sum e^(h + L) and C = sum e^(h + 2L),
    each settled on its own node ladder; one rung's three sums share one h.
    dA/d ln s = A - s B, so g has the sign of dE/d ln s, and
    g'(x) = s C / B - s B / A - 1.  -ln P < 1 bounds both ratios by s, so
    neither exponential overflows.
    """
    s_minus_1 = math.expm1(x)
    rungs = {}

    def log_sum(k, nodes):
        if nodes not in rungs:
            t = _node_table(n, r, lo, hi, nodes)
            h = t.base + x + s_minus_1 * t.log_p
            rungs[nodes] = (_logsumexp(h), _logsumexp(h + t.log_neg_log_p),
                            _logsumexp(h + 2.0 * t.log_neg_log_p))
        return rungs[nodes][k]

    log_a, log_b, log_c = (
        node_ladder(partial(log_sum, k), _log_step_settled,
                    lambda: f"facet-count slope (log values) at (n={n}, r={r}, ln s={x})")
        for k in range(3))
    g = log_a - log_b - x
    return g, math.exp(x + log_c - log_b) - math.exp(-g) - 1.0


def _newton_root(slope, lo: float, hi: float, x: float) -> float:
    """The root of g on [lo, hi], where g falls through 0, by safeguarded Newton.

    slope(x) returns (g, g').  [a, b] keeps the root bracketed: a Newton step
    that leaves it, or that is not finite, is replaced by evaluating the end
    it points past while that end is unevaluated, and by bisection once it
    is.  Returns once a step moves x by at most _ROOT_TOL; returns lo when
    g(lo) <= 0 and hi when g(hi) >= 0, where g does not change sign inside.
    """
    a, b = lo, hi
    a_seen = b_seen = False
    for _ in range(_MAX_SLOPES):
        g, dg = slope(x)
        if g == 0.0 or (x == lo and g < 0.0) or (x == hi and g > 0.0):
            return x
        if g > 0.0:
            a, a_seen = x, True
        else:
            b, b_seen = x, True
        newton = x - g / dg if dg != 0.0 else math.nan
        if a < newton < b:
            nxt = newton
        elif newton <= a and not a_seen:
            nxt = a
        elif newton >= b and not b_seen:
            nxt = b
        else:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= _ROOT_TOL:
            return nxt
        x = nxt
    raise RuntimeError(f"facet-count slope did not reach a root on [{lo}, {hi}] "
                       f"in {_MAX_SLOPES} steps")


def optimize_s(n: int, r: float) -> int:
    """The facet count s_star that maximizes expected surface area.

    s_star is defined by the first-order condition dE/d ln s = 0: its root
    in ln s, found by safeguarded Newton (see _slope and _newton_root) until
    a step moves ln s by at most 1e-7, which Newton's quadratic convergence
    leaves far below that, gives e^root.  s_star is the integer on either
    side of e^root with the larger E, the smaller one on a tie; from 2^53
    on e^root is itself the one representable integer.  The root is sought
    on the bracket [c - w, c + w], clipped to ln s >= 0.  c = -ln G(r / sqrt(n))
    centers it where s times the cap-complement bound at radius sqrt(n) is
    order one, which is where the integrand stops being killed by either
    factor; Newton starts there, and w starts at ln 1e3.  A slope still
    positive at the bracket's top, or negative at a bottom above ln s = 0,
    doubles w, at most four brackets in all, and Newton resumes at that
    end, each slope evaluated once per call; a slope not positive at
    ln s = 0 makes s_star 1.  Every slope and E sums over the default
    window's node tables, built once per (n, r) and served from cache.  A
    bracket reaching ln s past the double range (about 709.78) raises
    ValueError before any evaluation, and so does a non-finite r or an r at
    or past the window top sqrt(n) + 12, where E[GSA] is 0.0 for every s.
    """
    if n < 7:
        raise ValueError(f"optimize_s needs n >= 7, got {n}")
    if not 0.0 < r < math.inf:
        raise ValueError(f"offset r must be finite and > 0, got {r}")
    spec = QuadratureSpec.for_dimension(n)
    if not r < spec.rho_hi:
        raise ValueError(f"offset r = {r} is at or past the radial window top "
                         f"sqrt(n) + 12 = {spec.rho_hi}: E[GSA] is 0.0 for every s")
    center = -float(log_complement_upper_from_ratio(n, r / math.sqrt(n)))

    slope = cache(partial(_slope, n, r, max(spec.rho_lo, r), spec.rho_hi))
    half_width, root = math.log(1e3), center
    for _ in range(4):
        lo = max(0.0, center - half_width)
        hi = max(lo + 1.0, center + half_width)
        if hi > _LOG_MAX:
            raise _double_range_error(f"facet-count bracket at (n={n}, r={r})", hi)
        # a wider bracket resumes at the end where the last one stopped
        root = _newton_root(slope, lo, hi, min(max(root, lo), hi))
        if lo < root < hi or root == 0.0:
            break
        half_width *= 2.0
    else:
        raise RuntimeError(f"facet-count optimum not bracketed at (n={n}, r={r})")
    s_root = math.exp(root)
    below, above = math.floor(s_root), math.ceil(s_root)
    if below == above or expected_gsa(n, r, float(below)) >= expected_gsa(n, r, float(above)):
        return below
    return above


def lower_bound_chain(n: int, r: float, s: float) -> LowerBoundReport:
    """The exact integral at s and its Jensen (log-average) lower bound.

    On the window W = [max(sqrt(n) - 12, r + 1), sqrt(n) + 12], with
    h = ln s + ln tau_n + ln F + (s - 1) ln P the log integrand,

      exact >= integral_W chi_n e^h >= m_W exp(E_W[h]),

    the second step by Jensen's inequality on the chi_n law restricted to W,
    whose mass is m_W.  W is the exact integral's window moved one unit clear
    of rho = r, where ln F tends to -inf.  m_W and the log-moments
    integral_W chi_n ln F and integral_W chi_n ln P are dot products over W's
    node tables, each climbing its own node ladder, settled to 1e-8
    relative; wherever W is the exact window, those are the tables the exact
    integral built, so the bound evaluates nothing of its own.  The bound is
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

    def jensen_sum(name, column):
        return node_ladder(lambda nodes: float(column(_node_table(n, r, lo, hi, nodes))),
                           _relative_step, lambda: f"Jensen {name} at (n={n}, r={r})")

    mass = jensen_sum("mass", lambda t: np.dot(t.w, t.chi))
    int_log_f = jensen_sum("ln F moment", lambda t: np.dot(t.w * t.chi, t.log_f))
    int_log_p = jensen_sum("ln P moment", lambda t: np.dot(t.w * t.chi, t.log_p))
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
