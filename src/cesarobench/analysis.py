"""Verdict engines for the boundedness and compactness characterizations.

Three independent engines classify a measure for a space pair (alpha, beta)
with critical exponent s = 1 + (alpha - beta)/2:

  * carleson: tail ratios mu([t,1)) / (1-t)^s on the dyadic grid
    t_j = 1 - 2^-j,
  * moments:  normalized moments mu_n * (n+1)^s on dyadic n,
  * norm:     section norms of the induced operator over dyadic sizes,

each reduced to a verdict (bounded / vanishing / unbounded / inconclusive)
by one trend rule: the slope of the log-ratio over the deepest half of its
grid.  Boundedness is the three engines agreeing on bounded-or-vanishing;
compactness adds a fourth engine that tracks the Hardy constants of tail
operators, which bracket their norms, with the same trend rule.  Agreement
is read from the verdicts; it is the property under empirical test, and a
disagreement is a falsification event.

Decision constants are frozen from calibration runs documented alongside
each constant, on the fixed grids beside them.  The only settable budgets,
the norm engine's sizes (default NORM_SIZES) and the Lanczos relative tol,
are plain arguments of check_equivalence and evaluate_panel, and
cli.PanelConfig holds them.  All engines are pure and deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .measures import Measure, dyadic_grid, format_measure, moments_at, tail_values
from .operators import (
    TOL,
    SectionOp,
    hardy_constant,
    norm_growth_profile,
    section_norm,
    tail_section,
)
from .spaces import SpaceIndex, require_index

__all__ = [
    "DEADBAND",
    "CARLESON_GRID",
    "MOMENT_GRID",
    "NORM_DEADBAND",
    "NORM_SIZES",
    "COMPACT_SLOPE_THRESHOLD",
    "COMPACT_LEVEL_THRESHOLD",
    "COMPACT_SIZE",
    "COMPACT_TRUNCATIONS",
    "Verdict",
    "EquivalenceReport",
    "Prop1Bound",
    "carleson_exponent",
    "classify_carleson",
    "classify_moments",
    "classify_boundedness",
    "classify_compactness",
    "check_equivalence",
    "evaluate_panel",
    "reports_to_json",
    "reports_to_csv",
    "est_ratio_check",
    "prop1_bound_check",
]

# Deadband for the tail and moment engines: log-ratio slopes within
# +-DEADBAND of zero count as bounded (critical).  On the dyadic t-grid this
# tolerates a 0.02 offset in the tail exponent.
DEADBAND = 0.02 * math.log(2.0)

# The grids DEADBAND was set on: tail thresholds t_j = 1 - 2^-j for
# j = 1..30, and moments at n = 1, 2, 4, ..., 2^20.
CARLESON_GRID = tuple(1.0 - 2.0**-j for j in range(1, 31))
MOMENT_GRID = tuple(dyadic_grid(1 << 20))

# The norm engine needs a wider band: section norms of critical (bounded)
# measures approach their limit logarithmically, and the fitted slope of
# that transient reaches +0.032 at sizes up to 2^17 (worst case: the
# critical power law at (alpha, beta) = (0.5, 1.5)), while the slowest
# genuinely divergent profile in the calibration panel grows with slope
# +0.200 (lebesgue at (1.2, 0.8)).  0.08 is the geometric midpoint; growth
# slower than this is indistinguishable from a critical transient at desk
# scale and lands in the deadband rather than being misclassified.
NORM_DEADBAND = 0.08

# The default section sizes of the norm engine, 64..2^17, which
# NORM_DEADBAND was set on.
NORM_SIZES = tuple(1 << k for k in range(6, 18))

# Compactness thresholds, calibrated on Lanczos tail norms at section size
# 8192 with truncation points 16..512 (keeping M <= N/16; larger M lets the
# section window strangle the tail operator and fakes decay).  Observed
# slopes: not-compact critical measures in [-0.106, -0.059] with last
# tail/full ratio >= 0.70; compact measures <= -0.221 with ratio <= 0.26.
# The engine reads Hardy constants on the same thresholds, untuned: their
# slopes lie in [-0.045, -0.007] and <= -0.208, and the thinnest level
# margin is 0.415 against 0.4 (mix_atom_crit at (1.5, 0.5)).  The two
# thresholds sit between those clusters, and both signals must agree.
COMPACT_SLOPE_THRESHOLD = -0.15
COMPACT_LEVEL_THRESHOLD = 0.4

# The budget those thresholds were calibrated at; they hold for no other.
COMPACT_SIZE = 8192
COMPACT_TRUNCATIONS = tuple(16 << k for k in range(6))

_KIND_BY_ENGINE = {
    "carleson": {
        "bounded": "bounded_carleson",
        "vanishing": "vanishing_carleson",
        "unbounded": "not_carleson",
        "inconclusive": "inconclusive_carleson",
    },
    "moments": {
        "bounded": "bounded_moments",
        "vanishing": "vanishing_moments",
        "unbounded": "not_moments",
        "inconclusive": "inconclusive_moments",
    },
    "norm": {
        "bounded": "bounded_norm",
        "unbounded": "not_norm",
        "inconclusive": "inconclusive_norm",
    },
    "compactness": {
        "bounded": "not_compact",
        "vanishing": "compact",
        "inconclusive": "inconclusive_compactness",
    },
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of one engine with its raw evidence.

    status is bounded / vanishing / unbounded / inconclusive, limited to
    the ones the engine can produce: the norm engine never says vanishing
    and the compactness engine never says unbounded.  kind renders it in
    the engine's own vocabulary (e.g. vanishing_carleson, compact).
    evidence holds the (parameter, ratio) samples the slope was fitted on;
    fitted_slope is -inf when trailing ratios hit exact zero.
    """

    engine: str
    status: str
    evidence: tuple[tuple[float, float], ...]
    fitted_slope: float
    slope_stderr: float

    def __post_init__(self) -> None:
        if self.engine not in _KIND_BY_ENGINE:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.status not in _KIND_BY_ENGINE[self.engine]:
            raise ValueError(
                f"unknown status {self.status!r} for the {self.engine} engine"
            )
        if not self.evidence:
            raise ValueError("evidence must be nonempty")

    @property
    def kind(self) -> str:
        return _KIND_BY_ENGINE[self.engine][self.status]

    @property
    def indicates_bounded(self) -> bool:
        return self.status in ("bounded", "vanishing")

    @property
    def indicates_vanishing(self) -> bool:
        return self.status == "vanishing"


def carleson_exponent(alpha: float, beta: float) -> float:
    """Critical tail exponent s = 1 + (alpha - beta)/2 for the pair."""
    require_index(alpha, "alpha")
    require_index(beta, "beta")
    return 1.0 + (alpha - beta) / 2.0


def _trend(xs, ratios) -> tuple[float, float]:
    """Least-squares slope of log(ratio) on x over the deepest half of the
    grid, with its standard error.

    A ratio in that half that is exactly zero has already vanished: the
    slope is then -inf with standard error 0; a non-finite ratio raises.
    """
    if not all(map(math.isfinite, ratios)):
        raise ValueError("a ratio exceeds the double range; no trend fits it")
    half = len(ratios) // 2
    if min(ratios[half:]) <= 0.0:
        return -math.inf, 0.0
    xs = np.asarray(xs[half:], dtype=float)
    ys = np.asarray([math.log(r) for r in ratios[half:]])
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, yc)) / sxx
    if len(xs) > 2:
        resid = yc - slope * xc
        stderr = math.sqrt(float(np.dot(resid, resid)) / (len(xs) - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


def _slope_status(xs, ratios, deadband: float) -> tuple[str, float, float]:
    """Shared verdict rule: the trend against the deadband, with a
    boundary band of one standard error declared inconclusive.  A vanished
    ratio (slope -inf) is vanishing."""
    slope, stderr = _trend(xs, ratios)
    if abs(slope + deadband) <= stderr or abs(slope - deadband) <= stderr:
        return "inconclusive", slope, stderr
    if slope < -deadband:
        return "vanishing", slope, stderr
    if slope > deadband:
        return "unbounded", slope, stderr
    return "bounded", slope, stderr


def classify_carleson(m: Measure, s: float) -> Verdict:
    """Tail-ratio engine: r_j = mu([t_j,1)) / (1-t_j)^s on CARLESON_GRID."""
    if s <= 0:
        raise ValueError("s must be positive")
    ts = CARLESON_GRID
    tails = tail_values(m, ts)
    ratios = [float(mass) / (1.0 - t) ** s for mass, t in zip(tails, ts)]
    status, slope, stderr = _slope_status(
        list(range(1, len(ts) + 1)), ratios, DEADBAND
    )
    return Verdict("carleson", status, tuple(zip(ts, ratios)), slope, stderr)


def classify_moments(m: Measure, s: float) -> Verdict:
    """Moment-decay engine: q_n = mu_n * (n+1)^s on MOMENT_GRID."""
    if s <= 0:
        raise ValueError("s must be positive")
    moments = moments_at(m, MOMENT_GRID)
    ratios = [float(mu) * (n + 1.0) ** s for mu, n in zip(moments, MOMENT_GRID)]
    status, slope, stderr = _slope_status(
        [math.log(n) for n in MOMENT_GRID], ratios, DEADBAND
    )
    evidence = tuple((float(n), r) for n, r in zip(MOMENT_GRID, ratios))
    return Verdict("moments", status, evidence, slope, stderr)


def classify_boundedness(
    m: Measure,
    alpha: float,
    beta: float,
    sizes=NORM_SIZES,
    tol: float = TOL,
) -> Verdict:
    """Norm-profile engine: section norms over dyadic sizes.

    The log-norm slope against log-size over the deepest half of sizes
    decides alone, against the wide NORM_DEADBAND (see its calibration
    note); a slope below the band is bounded too, and growth slower than
    the band reads as a critical transient.  That half must hold two
    sizes, so fewer than 3 raise ValueError.
    """
    if len(sizes) < 3:
        raise ValueError(f"sizes needs at least 3 section sizes, got {len(sizes)}")
    profile = norm_growth_profile(
        m, SpaceIndex(alpha), SpaceIndex(beta), sizes, tol=tol
    )
    values = [est.value for _, est in profile]
    evidence = tuple((float(n), est.value) for n, est in profile)
    status, slope, stderr = _slope_status(
        [math.log(n) for n, _ in profile], values, NORM_DEADBAND
    )
    if status == "vanishing":
        status = "bounded"
    return Verdict("norm", status, evidence, slope, stderr)


def classify_compactness(m: Measure, alpha: float, beta: float) -> Verdict:
    """Tail-operator engine: Hardy constants B_M of the rows-above-M
    remainder of the size-COMPACT_SIZE section, for M in
    COMPACT_TRUNCATIONS, against B of the whole section.

    Each B brackets its section's norm, B <= norm <= 2B, and a Hardy
    operator is compact exactly when the constant of its tail tends to 0
    (Opic and Kufner 1990), which is the paper's mu_n = o(n^-s).
    Compactness presumes boundedness, which check_equivalence's gate
    ensures; this engine does not check it.  The verdict needs both
    signals from the calibration note on the thresholds: decaying tail
    slope and a small final tail/full level for compact; shallow slope and
    a high level for not compact; mixed or boundary-grazing signals are
    inconclusive.  Tails of any size are fitted; only exactly zero ones,
    from underflowed moments, skip the fit.
    """
    op = SectionOp(m, SpaceIndex(alpha), SpaceIndex(beta), COMPACT_SIZE)
    full = hardy_constant(op)
    tails = [hardy_constant(tail_section(op, mm)) for mm in COMPACT_TRUNCATIONS]
    evidence = tuple((float(mm), v) for mm, v in zip(COMPACT_TRUNCATIONS, tails))

    slope, stderr = _trend([math.log(mm) for mm in COMPACT_TRUNCATIONS], tails)
    if slope == -math.inf:
        return Verdict("compactness", "vanishing", evidence, -math.inf, 0.0)
    level = tails[-1] / full
    if abs(slope - COMPACT_SLOPE_THRESHOLD) <= stderr:
        status = "inconclusive"
    elif slope < COMPACT_SLOPE_THRESHOLD and level < COMPACT_LEVEL_THRESHOLD:
        status = "vanishing"
    elif slope > COMPACT_SLOPE_THRESHOLD and level >= COMPACT_LEVEL_THRESHOLD:
        status = "bounded"
    else:
        status = "inconclusive"
    return Verdict("compactness", status, evidence, slope, stderr)


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-entry outcome: the verdict of every engine that ran, in run
    order; compactness runs only where the other three voted bounded.

    The rest is read from the verdicts; inconclusive ones take no part in
    agreement and are named in warnings.  boundedness_agree: the
    conclusive verdicts agree on bounded-or-not.  compactness_agree: None
    without a compactness verdict, else whether the conclusive verdicts
    other than the norm engine's agree on vanishing-or-not.
    """

    measure: str
    alpha: float
    beta: float
    s: float
    verdicts: dict

    def _conclusive(self, skip: str = "") -> list[Verdict]:
        items = self.verdicts.items()
        return [v for k, v in items if k != skip and v.status != "inconclusive"]

    @property
    def boundedness_agree(self) -> bool:
        return len({v.indicates_bounded for v in self._conclusive()}) <= 1

    @property
    def compactness_agree(self) -> bool | None:
        if "compactness" not in self.verdicts:
            return None
        return len({v.indicates_vanishing for v in self._conclusive("norm")}) <= 1

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(
            f"{name} engine inconclusive"
            for name, v in self.verdicts.items()
            if v.status == "inconclusive"
        )

    @property
    def ok(self) -> bool:
        return self.boundedness_agree and self.compactness_agree is not False


def check_equivalence(
    m: Measure,
    alpha: float,
    beta: float,
    sizes=NORM_SIZES,
    tol: float = TOL,
) -> EquivalenceReport:
    """Run the boundedness engines on one (measure, pair) entry, and the
    compactness engine where they agree and the norm engine says bounded;
    sizes and tol steer the norm engine alone."""
    s = carleson_exponent(alpha, beta)
    verdicts = {
        "carleson": classify_carleson(m, s),
        "moments": classify_moments(m, s),
        "norm": classify_boundedness(m, alpha, beta, sizes, tol),
    }
    report = EquivalenceReport(format_measure(m), alpha, beta, s, verdicts)
    if not (report.boundedness_agree and verdicts["norm"].status == "bounded"):
        return report
    compactness = classify_compactness(m, alpha, beta)
    return replace(report, verdicts={**verdicts, "compactness": compactness})


def _max_workers() -> int:
    raw = os.environ.get("CESARO_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CESARO_THREADS must be a positive integer, got {raw!r}")
    return workers


def evaluate_panel(entries, sizes=NORM_SIZES, tol: float = TOL) -> list:
    """check_equivalence over (name, measure, alpha, beta) entries.

    Entries are evaluated independently (thread pool respects
    CESARO_THREADS) and reports come back sorted by name then pair, so the
    output is schedule-independent.  Engine ValueErrors name their entry.
    """
    ordered = sorted(entries, key=lambda e: (e[0], e[2], e[3]))

    def run(entry):
        name, m, alpha, beta = entry
        try:
            return check_equivalence(m, alpha, beta, sizes, tol)
        except ValueError as exc:
            where = f"measure {name!r} at pair ({alpha}, {beta})"
            raise ValueError(f"{where}: {exc}") from exc

    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, ordered))
    else:
        reports = [run(e) for e in ordered]
    return [(name, report) for (name, _, _, _), report in zip(ordered, reports)]


def _json_value(x: float):
    return x if math.isfinite(x) else repr(x)


def _verdict_dict(v: Verdict) -> dict:
    return {
        "engine": v.engine,
        "status": v.status,
        "kind": v.kind,
        "fitted_slope": _json_value(v.fitted_slope),
        "slope_stderr": _json_value(v.slope_stderr),
        "evidence": [[_json_value(p), _json_value(r)] for p, r in v.evidence],
    }


def reports_to_json(named_reports) -> str:
    """Panel reports as a JSON document (named entries plus a global flag)."""
    entries = []
    for name, rep in named_reports:
        entries.append(
            {
                "name": name,
                "measure": rep.measure,
                "alpha": rep.alpha,
                "beta": rep.beta,
                "s": rep.s,
                "verdicts": {k: _verdict_dict(v) for k, v in rep.verdicts.items()},
                "boundedness_agree": rep.boundedness_agree,
                "compactness_agree": rep.compactness_agree,
                "warnings": list(rep.warnings),
            }
        )
    doc = {
        "entries": entries,
        "all_agree": all(rep.ok for _, rep in named_reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reports_to_csv(named_reports) -> str:
    """Flat per-evidence-sample CSV of the panel reports, for plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "name",
            "measure",
            "alpha",
            "beta",
            "s",
            "engine",
            "status",
            "kind",
            "fitted_slope",
            "parameter",
            "ratio",
        ]
    )
    for name, rep in named_reports:
        for engine in sorted(rep.verdicts):
            v = rep.verdicts[engine]
            for p, r in v.evidence:
                writer.writerow(
                    [
                        name,
                        rep.measure,
                        repr(rep.alpha),
                        repr(rep.beta),
                        repr(rep.s),
                        engine,
                        v.status,
                        v.kind,
                        repr(v.fitted_slope),
                        repr(float(p)),
                        repr(float(r)),
                    ]
                )
    return buf.getvalue()


def est_ratio_check(c: float, t_grid, n_max: int) -> tuple[float, float]:
    """Extremes of rho(t) = (1-t^2)^c * sum_{n=1}^{n_max} n^(c-1) t^(2n).

    The partial sum stands in for the full series only when n_max covers
    the decay scale of t^(2n); n_max >= 50/(1-t) keeps the dropped tail
    below 1e-12 relative, and a smaller budget is rejected rather than
    silently truncated.  The powers t^(2n) come from one vectorized
    exp(2n log t), whose relative error per term is at most about
    |2n log t| * 1.5 * 2^-53, so at most 1.2e-13 on every term that does
    not underflow (1.0e-13 measured), well inside that budget.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be finite and positive, got {c}")
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be nonempty")
    for t in ts:
        if not 0.0 < t < 1.0:
            raise ValueError(f"t must lie in (0, 1), got {t}")
        needed = 50.0 / (1.0 - t)
        if n_max < needed:
            raise ValueError(
                f"n_max={n_max} too small for t={t}: need at least {math.ceil(needed)}"
            )
    ns = np.arange(1, n_max + 1, dtype=float)
    powers = ns ** (c - 1.0)
    # One scratch array for every t.  glibc maps arrays this size fresh
    # from the kernel on each allocation, so a temporary per point faults
    # its pages in again: at 60,000 terms and 10 points a call took 2,264
    # minor faults that way, and 319 with the scratch array.
    scaled = np.empty_like(ns)
    values = []
    for t in ts:
        np.multiply(ns, 2.0 * math.log(t), out=scaled)
        partial = float(np.dot(powers, np.exp(scaled, out=scaled)))
        values.append((1.0 - t * t) ** c * partial)
    return min(values), max(values)


@dataclass(frozen=True)
class Prop1Bound:
    """Classical-operator norm check against sqrt(2(2+alpha))/alpha.

    prefix_max_ratio and suffix_max_ratio are the largest left/right ratios of the
    two pointwise inequalities behind the bound,

        sum_{k<=n} (k+1)^(-(2-alpha)/2)          <= (2/alpha)(n+1)^(alpha/2),
        (k+1)^(alpha/2) sum_{n>=k} (n+1)^(-(2+alpha)/2) <= (2+alpha)/alpha,

    so both inequalities hold exactly when the ratios are <= 1.  The
    infinite sum in the second is bounded above (see prop1_bound_check), so
    suffix_max_ratio is conservative, at least the exact ratio: at n = 4096
    and alpha in [0.25, 1.75] it read 1.8e-12 to 1.2e-10 relative above
    it, more than the partial sums' rounding (at most about n ulp) can
    take back.  A ratio <= 1 thus certifies the second inequality at every
    k <= n; it says nothing past n.
    """

    section_norm_value: float
    bound: float
    prefix_max_ratio: float
    suffix_max_ratio: float


def prop1_bound_check(alpha: float, n: int = 4096) -> Prop1Bound:
    """Norm of the size-n classical section at (alpha, alpha), at
    section_norm's default tolerance, plus the pointwise inequality sweep
    over all indices up to n.

    The suffix sums of k^(-p), p = (2+alpha)/2, are summed over k <= n+1
    by one reversed cumsum in place.  Past n+1 each k^(-p) is at most
    int_{k-1/2}^{k+1/2} x^(-p) dx, since x^(-p) is convex
    (Hermite-Hadamard), so the tail adds int_{n+3/2}^inf x^(-p) dx =
    (2/alpha)(n+3/2)^(-alpha/2), an upper bound.  At n = 4096 each suffix
    sum read 1.8e-12 to 4.1e-9 relative above zeta(p, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    op = SectionOp(Measure.lebesgue(), SpaceIndex(alpha), SpaceIndex(alpha), n)
    value = section_norm(op).value
    bound = math.sqrt(2.0 * (2.0 + alpha)) / alpha

    idx = np.arange(1, n + 2, dtype=float)
    lhs_prefix = np.cumsum(idx ** (-(2.0 - alpha) / 2.0))
    rhs_prefix = (2.0 / alpha) * idx ** (alpha / 2.0)
    prefix_max = float(np.max(lhs_prefix / rhs_prefix))

    suffix = idx ** (-(2.0 + alpha) / 2.0)
    np.cumsum(suffix[::-1], out=suffix[::-1])
    suffix += (2.0 / alpha) * (n + 1.5) ** (-alpha / 2.0)
    suffix *= idx ** (alpha / 2.0)
    suffix_max = float(np.max(suffix)) / ((2.0 + alpha) / alpha)
    return Prop1Bound(value, bound, prefix_max, suffix_max)
