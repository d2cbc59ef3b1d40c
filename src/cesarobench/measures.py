"""Positive Borel measures on [0,1) as atom / power-law-density mixtures.

A measure here is a finite sum of point masses at t0 in [0,1) and
densities c (1-t)^gamma t^delta dt with gamma > -1 (integrable at 1) and
delta >= 0.  This class is closed-form for both tail masses mu([t,1))
and moments mu[n], which the verdict engines read a grid at a time.

The textual form is::

    expr   := term ("+" term)*
    term   := "atom(" t0 "," mass ")"
            | "powlaw(c=" c ",gamma=" g ",delta=" d ")"
            | "lebesgue"                      # powlaw(c=1,gamma=0,delta=0)

with finite decimal literals (scientific notation accepted) and whitespace
ignored between tokens.

One rule table per term kind (_ATOM_RULES, _DENSITY_RULES) states each
field's bound and message once.  It drives both the parser, which checks
every literal as soon as it reads it and raises MeasureSemanticError, and
Measure, which checks every field and raises ValueError, so the two report
a bad value with the same message.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

__all__ = [
    "Measure",
    "MeasureParseError",
    "MeasureSyntaxError",
    "MeasureSemanticError",
    "parse_measure",
    "format_measure",
    "tail_values",
    "moment",
    "moments_at",
    "moment_sequence",
    "moment_by_parts",
    "BY_PARTS_N_MAX",
    "dyadic_grid",
]


class MeasureParseError(ValueError):
    """Base for measure-expression errors; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MeasureSyntaxError(MeasureParseError):
    pass


class MeasureSemanticError(MeasureParseError):
    def __init__(self, message: str, token: str, position: int):
        super().__init__(f"{message}: offending token {token!r}", position)
        self.token = token


# (keyword or None, test, message) for each field of a term, in field order.
_ATOM_RULES = (
    (None, lambda x: 0.0 <= x < 1.0, "atom position must lie in [0,1)"),
    (None, lambda x: 0.0 < x < math.inf, "atom mass must be finite and positive"),
)
_DENSITY_RULES = (
    ("c", lambda x: 0.0 < x < math.inf,
     "density coefficient must be finite and positive"),
    ("gamma", lambda x: -1.0 < x < math.inf,
     "density exponent gamma must be finite and exceed -1"),
    ("delta", lambda x: 0.0 <= x < math.inf,
     "density exponent delta must be finite and >= 0"),
)


@dataclass(frozen=True)
class Measure:
    """Immutable atom/power-law mixture.

    atoms: tuples (t0, mass) with t0 in [0,1), mass > 0.
    densities: tuples (c, gamma, delta) for c (1-t)^gamma t^delta dt
        with c > 0, gamma > -1, delta >= 0.
    Every mass, c, gamma and delta is finite, and so is the total mass
    mu([0,1)).
    """

    atoms: tuple[tuple[float, float], ...] = field(default=())
    densities: tuple[tuple[float, float, float], ...] = field(default=())

    def __post_init__(self):
        for rules, terms in ((_ATOM_RULES, self.atoms), (_DENSITY_RULES, self.densities)):
            for term in terms:
                for (_, ok, message), value in zip(rules, term, strict=True):
                    if not ok(value):
                        raise ValueError(f"{message}, got {value!r}")
        # Python floats: a sum that overflows is inf, with no numpy warning.
        total = sum(mass for _, mass in self.atoms) + sum(
            c * math.exp(float(_sp.betaln(delta + 1.0, gamma + 1.0)))
            for c, gamma, delta in self.densities
        )
        if not math.isfinite(total):
            raise ValueError(f"total mass must be finite, got {total!r}")

    @staticmethod
    def lebesgue() -> "Measure":
        return Measure(densities=((1.0, 0.0, 0.0),))

    @staticmethod
    def atom(t0: float, mass: float) -> "Measure":
        return Measure(atoms=((t0, mass),))

    @staticmethod
    def powlaw(c: float, gamma: float, delta: float = 0.0) -> "Measure":
        return Measure(densities=((c, gamma, delta),))


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_punct(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def expect_punct(self, ch: str):
        self.skip_ws()
        if not self.try_punct(ch):
            raise MeasureSyntaxError(f"expected {ch!r}", self.pos)

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise MeasureSyntaxError("expected a name", self.pos)
        self.pos = m.end()
        return m.group(), m.start()

    def expect_name(self, expected: str):
        got, start = self.name()
        if got != expected:
            raise MeasureSyntaxError(f"expected {expected!r}, got {got!r}", start)

    def number(self) -> tuple[float, str, int]:
        self.skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise MeasureSyntaxError("expected a number", self.pos)
        self.pos = m.end()
        return float(m.group()), m.group(), m.start()


def _parse_term(sc: _Scanner, rules) -> tuple[float, ...]:
    """Read "(" field ("," field)* ")" for one rule table; each literal is
    checked against its rule as soon as it is read."""
    sc.expect_punct("(")
    values = []
    for i, (key, ok, message) in enumerate(rules):
        if i:
            sc.expect_punct(",")
        if key is not None:
            sc.expect_name(key)
            sc.expect_punct("=")
        value, token, position = sc.number()
        if not ok(value):
            raise MeasureSemanticError(message, token, position)
        values.append(value)
    sc.expect_punct(")")
    return tuple(values)


def parse_measure(expr: str) -> Measure:
    """Parse a measure expression; raises MeasureSyntaxError /
    MeasureSemanticError (both ValueError subclasses) on bad input."""
    sc = _Scanner(expr)
    atoms: list[tuple[float, float]] = []
    densities: list[tuple[float, float, float]] = []
    if sc.at_end():
        raise MeasureSyntaxError("empty measure expression", 0)
    while True:
        word, start = sc.name()
        if word == "lebesgue":
            densities.append((1.0, 0.0, 0.0))
        elif word == "atom":
            atoms.append(_parse_term(sc, _ATOM_RULES))
        elif word == "powlaw":
            densities.append(_parse_term(sc, _DENSITY_RULES))
        else:
            raise MeasureSyntaxError(
                f"expected 'atom', 'powlaw' or 'lebesgue', got {word!r}", start
            )
        if sc.at_end():
            break
        sc.expect_punct("+")
        if sc.at_end():
            raise MeasureSyntaxError("dangling '+'", sc.pos)
    return Measure(tuple(atoms), tuple(densities))


def format_measure(m: Measure) -> str:
    """Canonical text form; parse_measure(format_measure(m)) == m."""
    parts = [f"atom({t0!r},{mass!r})" for t0, mass in m.atoms]
    parts += [
        f"powlaw(c={c!r},gamma={gamma!r},delta={delta!r})"
        for c, gamma, delta in m.densities
    ]
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------

# Largest integer delta summed as a finite series in tail_values.  On
# 2,208 points (2 vCPUs) the series took 26-46 us at delta = 1 and 361-462
# us at 64, against 700-1000 us for betainc; its worst error against mpmath
# at the float a = gamma + 1 (see tail_values) was 8.0e-16 up to 64, and
# 1.2e-15 at 96 as the roundings add up.
_SERIES_DELTA_MAX = 64


def tail_values(m: Measure, ts) -> np.ndarray:
    """mu([t,1)) for an array of thresholds t in [0,1); vectorized.

    The atoms' steps are summed first, then each density's tail is added
    in term order (_add_density_tails); a 0-d threshold gives a 0-d array.
    """
    ts = np.asarray(ts, dtype=float)
    # Written so that a NaN threshold fails the check as well.
    if not np.all((ts >= 0.0) & (ts < 1.0)):
        raise ValueError("tail threshold must lie in [0,1)")
    out = np.zeros_like(ts) if m.atoms or not m.densities else None
    for t0, mass in m.atoms:
        out += np.where(t0 >= ts, mass, 0.0)
    return _add_density_tails(m.densities, ts, out)


def _add_density_tails(densities, ts: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Add each density's tail mu([t,1)) at the thresholds ts into out.

    ts must already be a float array in [0,1).  Each term is formed in one
    scratch array by in-place ufuncs (Horner's polynomial in one more), in
    the order of the plain expressions ((c (1-t)^a) / a) poly and
    (c full) betainc, so it has their bits.
    With out None the first term becomes the sum: every term is >= +0, so
    it equals 0 + term exactly.
    """
    scratch = horner = None
    for c, gamma, delta in densities:
        if out is None:
            term = np.empty_like(ts)
        else:
            term = scratch = np.empty_like(ts) if scratch is None else scratch
        # The errors quoted here are against mpmath at this float a.  A
        # gamma whose sum with 1 rounds adds about |ln(1 - t)| ulp(a)
        # relative, since (1 - t)^a moves by that much: against the exact
        # gamma, over np.linspace(-0.9, 2.5, 18) and t up to 1 - 2^-52, the
        # worst was 4.3e-15.
        a = gamma + 1.0
        np.subtract(1.0, ts, out=term)
        if float(delta).is_integer() and delta <= _SERIES_DELTA_MAX:
            # For integer delta = d, DLMF 8.17(iv) gives int_t^1 (1-u)^gamma
            # u^d du = ((1-t)^a / a) sum_{j<=d} e_j t^j, e_d = a/(a+d) and
            # e_j = e_{j+1} (j+1)/(a+j): positive terms, so nothing cancels.
            # Each e_j is one rounding of an exact integer quotient (a = p/q);
            # at d = 0 the sum is 1.0 and the closed form keeps its bits.
            p, q = a.as_integer_ratio()
            num, den = p, p + int(delta) * q
            poly = num / den
            if delta and horner is None:
                horner = np.empty_like(ts)
            for j in range(int(delta) - 1, -1, -1):
                num *= (j + 1) * q
                den *= p + j * q
                poly = np.multiply(poly, ts, out=horner)
                poly += num / den
            term **= a
            term *= c
            term /= a
            term *= poly
        else:
            # B(delta+1, a) I_{1-t}(a, delta+1), the mirrored complement of
            # I_t(delta+1, a) (DLMF 8.17.4), about 8x faster than betaincc;
            # 1 - t is exact for t >= 1/2.  Against mpmath at 50 digits over
            # gamma in [-0.9, 2.5], delta in {0.5, 1, 3} and t up to
            # 1 - 2^-52, the worst relative error was 5.2e-15.
            full = math.exp(_sp.betaln(delta + 1.0, a))
            _sp.betainc(a, delta + 1.0, term, term)  # in place: out = term
            term *= c * full
        if out is None:
            out = term
        else:
            out += term
    return out


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def moments_at(m: Measure, ns) -> np.ndarray:
    """mu[n] for every n in the array-like ns (all >= 0), in one pass.

    A density contributes c B(n+delta+1, gamma+1), evaluated as
    c Gamma(gamma+1) / poch(n+delta+1, gamma+1); scipy's poch keeps a
    relative error below ~5e-11 out to n = 2^20 and beyond.  Gamma
    overflows for gamma above ~170.6, and poch once (n+delta+1)^(gamma+1)
    passes ~1e308, which would turn the quotient into inf, nan or a
    spurious 0; those entries fall back to exp(betaln), whose cancellation
    costs at most ~1e-9 relative.  Each entry is computed on its own, so
    the result at n does not depend on the rest of ns, bit for bit.
    """
    ns = np.asarray(ns, dtype=float)
    total = _atom_moments(m.atoms, ns)
    for c, gamma, delta in m.densities:
        total += _density_moments(c, gamma, delta, ns)
    return total


def _density_moments(c: float, gamma: float, delta: float, ns) -> np.ndarray:
    """One density's c B(n+delta+1, gamma+1) at the float array ns, by
    poch with the exp(betaln) fallback that moments_at describes."""
    a = ns + delta + 1.0
    b = gamma + 1.0
    gamma_b = _sp.gamma(b)
    rising = _sp.poch(a, b)
    with np.errstate(invalid="ignore"):
        term = c * (gamma_b / rising)
    overflow = ~(math.isfinite(gamma_b) & np.isfinite(rising))
    if overflow.any():
        term[overflow] = c * np.exp(_sp.betaln(a[overflow], b))
    return term


def _atom_moments(atoms, ns: np.ndarray) -> np.ndarray:
    """The atoms' part of mu[n], sum of mass * t0^n, at the float array ns."""
    total = np.zeros_like(ns)
    for t0, mass in atoms:
        # pow is slow where t0^n rounds to +0 (n log2(1/t0) > 1075): skip it.
        live = ns * -math.log2(t0) < 1076.0 if t0 > 0.0 else True
        total += mass * np.power(t0, ns, out=np.zeros_like(ns), where=live)
    return total


def moment(m: Measure, n: int) -> float:
    """n-th moment: integral of t^n against the measure, n >= 0."""
    if n < 0:
        raise ValueError(f"moment index must be >= 0, got {n!r}")
    return float(moments_at(m, [n])[0])


def moment_sequence(m: Measure, count: int) -> np.ndarray:
    """Moments mu[0..count-1] as an array.

    Atoms give mass * t0^n as in moments_at.  A density's term starts at
    its mu_0 = c B(delta+1, b), b = gamma+1, as moments_at gives it, and
    goes on by its ratio recurrence mu_n = mu_{n-1} (1 - b/(n+delta+b)) as
    one cumulative product formed in place.  The ratio is written as 1
    minus a quotient because the plain (n+delta)/(n+delta+b) rounds both
    sums the same way across a binade, so its errors add up: 1.9e-11
    relative at n = 2^20 for (gamma, delta) = (0.3, 1) and (-0.2, 0).
    Against mpmath at 341 n up to 2^20, on the default panel's 18 exponent
    pairs and those two, the worst error was 1.3e-13, where poch's was
    2.9e-11.  So entries agree with moment(m, n) to about 3e-11 relative,
    not bit for bit.  As in _add_density_tails, the first term becomes
    the sum when there are no atoms.
    """
    ns = np.arange(count, dtype=float)
    total = _atom_moments(m.atoms, ns) if m.atoms or not m.densities else None
    scratch = None
    for c, gamma, delta in m.densities:
        if total is None:
            term = np.empty_like(ns)
        else:
            term = scratch = np.empty_like(ns) if scratch is None else scratch
        b = gamma + 1.0
        np.add(ns, delta + b, out=term)
        np.divide(b, term, out=term)
        np.subtract(1.0, term, out=term)
        term[:1] = _density_moments(c, gamma, delta, ns[:1])
        np.cumprod(term, out=term)
        if total is None:
            total = term
        else:
            total += term
    return total


def dyadic_grid(n_max: int) -> list[int]:
    """1, 2, 4, ... up to and including the last power of two <= n_max."""
    if not 1 <= n_max <= sys.float_info.max:
        raise ValueError(f"n_max must lie in [1, {sys.float_info.max:.6g}]")
    grid = []
    n = 1
    while n <= n_max:
        grid.append(n)
        n *= 2
    return grid


# ---------------------------------------------------------------------------
# Integration-by-parts cross-check
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

# Panel edges in u = t^n, in increasing order and dyadic toward both ends.
# Toward 0 they resolve the large-n integrand, which varies with log(1/u) / n;
# toward 1 they resolve the tail's (1-t)^(gamma+1) endpoint.  With 12 points
# a panel, on the default panel's 23 measures with a density and 6 edge
# cases, at n = 1..64 and every 2^k and 2^k - 1 up to 2^20 (2,668 moments),
# dropping the edges toward 0 broke the 1e-7 contract on 2504 values and
# dropping those toward 1 on 1243; depth 30 at both ends gave a worst error
# of 4.6e-9 against mpmath, 45 gave 1.35e-11, and 52 gave nothing more.
# Listed in order, not through np.unique, whose first call raised a
# process's peak RSS by 128 KB.
_PANEL_DEPTH = 45
_U_EDGES = np.array(
    [0.0]
    + [0.5**j for j in range(_PANEL_DEPTH, 0, -1)]
    + [1.0 - 0.5**j for j in range(2, _PANEL_DEPTH + 1)]
    + [1.0]
)
_HALF = 0.5 * np.diff(_U_EDGES)[:, None]
_U_NODES = _U_EDGES[:-1, None] + _HALF * (1.0 + _GL_NODES)
_U_WEIGHTS = _HALF * _GL_WEIGHTS
_U_NODES.flags.writeable = _U_WEIGHTS.flags.writeable = False

# Largest n at which moment_by_parts keeps its 1e-7 accuracy; past it
# u^(1/n) rounds near 1 and the route drifts (2.1e-5 relative at 2^40).
BY_PARTS_N_MAX = 1 << 32

# The largest double below 1.0, the clamp on moment_by_parts's nodes.
_BELOW_ONE = np.nextafter(1.0, 0.0)


def moment_by_parts(m: Measure, n: int) -> float:
    """mu[n] recomputed as n * int_0^1 t^{n-1} mu([t,1)) dt, n >= 1.

    The substitution u = t^n turns this into int_0^1 mu([u^{1/n},1)) du,
    whose integrand is bounded by the total mass and carries no weight
    that depends on n, so one fixed node set serves every n: 12-point
    Gauss-Legendre on panels with edges 0, 1, 2^-j and 1 - 2^-j for
    j = 1.._PANEL_DEPTH, built once at import.  Rounding, not the rule's
    order, sets the error: on the measures of the _PANEL_DEPTH comment the
    worst against mpmath was 1.35e-11 up to n = 2^20 (1.78e-11 with 24
    points) and 6.1e-8 up to 2^32 at either order.  Each atom adds the area
    mass * t0^n of its step in u in closed form, as moment() does, so the
    densities' quadrature alone is an independent cross-check of moment().
    The density tails at the nodes come from the same term loop as
    tail_values (_add_density_tails), on m.densities directly: no Measure
    is rebuilt and no threshold is re-checked, since u^{1/n} clamped below
    1.0 lies in [0, 1) by construction.  Accurate to 1e-7 relative up to
    n = BY_PARTS_N_MAX = 2^32; a larger n raises ValueError, since there
    u^{1/n} rounds near 1 and 1 - t carries about 1e-16 / (1 - t)
    relative error.
    """
    if not 1 <= n <= BY_PARTS_N_MAX:
        raise ValueError(
            f"integration by parts requires 1 <= n <= {BY_PARTS_N_MAX}, got {n}"
        )
    steps = sum(mass * t0**n for t0, mass in m.atoms)
    if not m.densities:
        return float(steps)
    # Nodes near u = 1 can round t up to 1.0 exactly; keep them strictly
    # inside the domain of the tail.
    ts = np.power(_U_NODES, 1.0 / n)
    np.minimum(ts, _BELOW_ONE, out=ts)
    tails = _add_density_tails(m.densities, ts, None)
    tails *= _U_WEIGHTS
    return float(steps + np.sum(tails))
