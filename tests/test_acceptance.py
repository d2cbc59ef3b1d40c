"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success; a failed criterion shows
up as the test's FAILED line.  The heavyweight default panel is evaluated
once and shared by the two criteria that read it and by the test that pins
each of its verdicts.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from cesarobench.analysis import est_ratio_check, prop1_bound_check
from cesarobench.cli import build_panel, cmd_verify, default_config
from cesarobench.measures import (
    Measure,
    moment,
    moment_by_parts,
    moment_sequence,
    parse_measure,
)
from cesarobench.operators import (
    SectionOp,
    apply,
    norm_growth_profile,
    section_norm,
    tail_section,
)
from cesarobench.spaces import (
    CoeffVec,
    SpaceIndex,
    counterexample_family,
    norm,
    truncated_geometric_family,
    weak_null_family,
)

LEBESGUE = parse_measure("lebesgue")
SIZES_4096 = tuple(1 << k for k in range(6, 13))


@pytest.fixture(scope="module")
def default_panel_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    start = time.monotonic()
    rc = cmd_verify(None, str(out))
    elapsed = time.monotonic() - start
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return rc, doc, elapsed


def test_criterion_1_classical_norm_bound() -> None:
    start = time.monotonic()
    for alpha in (0.5, 1.0, 1.5):
        bound = math.sqrt(2.0 * (2.0 + alpha)) / alpha
        profile = norm_growth_profile(
            LEBESGUE, SpaceIndex(alpha), SpaceIndex(alpha), SIZES_4096
        )
        values = [est.value for _, est in profile]
        assert all(v <= bound + 1e-9 for v in values), (alpha, max(values), bound)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 1: classical sections stay below sqrt(2(2+a))/a "
        f"and grow monotonically ({elapsed:.1f}s)"
    )


def test_criterion_2_unbounded_growth_rate() -> None:
    profile = norm_growth_profile(
        LEBESGUE, SpaceIndex(1.5), SpaceIndex(0.5), SIZES_4096 + (8192,)
    )
    values = {n: est.value for n, est in profile}
    assert values[4096] >= 2.0 * values[64]

    def fit(ns):
        xs = [math.log(n) for n in ns]
        ys = [math.log(values[n]) for n in ns]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        return num / sum((x - xbar) ** 2 for x in xs)

    slope = fit((1024, 2048, 4096))
    slope_deeper = fit((2048, 4096, 8192))
    assert slope > 0
    assert abs(slope_deeper - slope) <= 0.2 * abs(slope)
    print(
        f"PASS criterion 2: growth factor {values[4096] / values[64]:.2f}x, "
        f"log-log slope {slope:.4f} stable to {abs(slope_deeper - slope) / slope:.1%} "
        "under one further doubling"
    )


def test_criterion_3_boundedness_panel_agreement(default_panel_report) -> None:
    rc, doc, elapsed = default_panel_report
    assert rc == 0
    entries = doc["entries"]
    assert len(entries) == 40
    disagreements = [e for e in entries if e["boundedness_agree"] is not True]
    assert disagreements == []
    assert doc["all_agree"] is True
    assert elapsed < 300.0
    print(
        f"PASS criterion 3: all {len(entries)} panel entries agree across the "
        f"three boundedness engines, exit code 0 ({elapsed:.1f}s)"
    )


def test_criterion_4_compactness_panel_agreement(default_panel_report) -> None:
    _, doc, _ = default_panel_report
    bounded = [e for e in doc["entries"] if e["compactness_agree"] is not None]
    assert bounded, "panel produced no bounded entries"
    assert all(e["compactness_agree"] is True for e in bounded)

    critical = next(
        e
        for e in doc["entries"]
        if e["name"] == "lebesgue" and e["alpha"] == e["beta"]
    )
    assert critical["verdicts"]["compactness"]["kind"] == "not_compact"
    for _, ratio in critical["verdicts"]["carleson"]["evidence"]:
        assert ratio == pytest.approx(1.0, rel=1e-12)

    atom_entries = [e for e in doc["entries"] if e["name"].startswith("atom")]
    assert atom_entries
    assert all(
        e["verdicts"]["compactness"]["kind"] == "compact" for e in atom_entries
    )
    # Tail sections of atom operators collapse long before M = N/4.
    n = 2048
    for expr in ("atom(0.5,1.0)", "atom(0.9,1.0)"):
        op = SectionOp(parse_measure(expr), SpaceIndex(1.0), SpaceIndex(1.0), n)
        tail_norm = section_norm(tail_section(op, n // 4)).value
        assert tail_norm < 1e-6
    print(
        f"PASS criterion 4: {len(bounded)} bounded entries agree across the "
        "compactness engines; lebesgue critical is bounded-not-compact with "
        "unit tail ratios; atom tails vanish below 1e-6 by M = N/4"
    )


# Each engine's kind for the three outcomes on the default panel: compact
# (mu_n = o(n^-s)), bounded but not compact (critical), and unbounded, where
# the compactness engine does not run.
_COMPACT = {
    "carleson": "vanishing_carleson",
    "moments": "vanishing_moments",
    "norm": "bounded_norm",
    "compactness": "compact",
}
_CRITICAL = {
    "carleson": "bounded_carleson",
    "moments": "bounded_moments",
    "norm": "bounded_norm",
    "compactness": "not_compact",
}
_UNBOUNDED = {"carleson": "not_carleson", "moments": "not_moments", "norm": "not_norm"}
PANEL_PAIRS = ((0.5, 1.5), (0.8, 1.2), (1.0, 1.0), (1.2, 0.8), (1.5, 0.5))
PANEL_OUTCOMES = {
    "atom_edge": (_COMPACT,) * 5,
    "atom_half": (_COMPACT,) * 5,
    "lebesgue": (_COMPACT, _COMPACT, _CRITICAL, _UNBOUNDED, _UNBOUNDED),
    "mix_atom_crit": (_CRITICAL,) * 5,
    "mix_atom_sub": (_COMPACT,) * 5,
    "powlaw_crit": (_CRITICAL,) * 5,
    "powlaw_near": (_COMPACT,) * 5,
    "powlaw_sub": (_COMPACT,) * 5,
}


def test_default_panel_kinds_are_pinned(default_panel_report) -> None:
    # Agreement alone would pass if every engine flipped together; this
    # pins each (name, pair, engine) of the 40 entries to its kind.
    _, doc, _ = default_panel_report
    got = {
        (e["name"], (e["alpha"], e["beta"]), engine): verdict["kind"]
        for e in doc["entries"]
        for engine, verdict in e["verdicts"].items()
    }
    want = {
        (name, pair, engine): kind
        for name, outcomes in PANEL_OUTCOMES.items()
        for pair, kinds in zip(PANEL_PAIRS, outcomes, strict=True)
        for engine, kind in kinds.items()
    }
    assert len(doc["entries"]) == 40
    assert got == want
    print(f"PASS panel kinds: all {len(got)} engine kinds of the 40 entries as pinned")


def test_criterion_5_moment_machinery() -> None:
    panel = build_panel(default_config())
    seen: set[str] = set()
    worst = 0.0
    for _, m, _, _ in panel:
        key = repr(m)
        if key in seen:
            continue
        seen.add(key)
        for n in range(1, 65):
            diff = abs(moment(m, n) - moment_by_parts(m, n))
            worst = max(worst, diff)
            assert diff < 1e-7, (key, n, diff)

    # Critical power law: mu_n (n+1)^s tends to Gamma(s); the oracle is the
    # C library's Gamma, an independent route from the moment's scipy
    # Gamma / Pochhammer evaluation.
    n_big = 10**5
    for s in (0.5, 0.8, 1.0, 1.2, 1.5):
        m = Measure(densities=((1.0, s - 1.0, 0.0),))
        observed = moment(m, n_big) * (n_big + 1.0) ** s
        gamma_s = math.gamma(s)
        assert observed == pytest.approx(gamma_s, rel=0.01), (s, observed, gamma_s)
    print(
        f"PASS criterion 5: dual-route moments agree within 1e-7 on all panel "
        f"measures (worst {worst:.2e}); critical normalized moments reach "
        "Gamma(s) within 1% at n = 1e5"
    )


def test_criterion_6_series_ratio_bracket() -> None:
    ts = [1.0 - 2.0**-j for j in range(1, 11)]
    for c in (0.5, 1.0, 2.0):
        lo, hi = est_ratio_check(c, ts, 60000)
        assert 0.0 < lo <= hi < math.inf
        assert hi / lo <= 10.0, (c, lo, hi)
    lo, hi = est_ratio_check(1.0, ts, 60000)
    assert lo == pytest.approx(min(t * t for t in ts), rel=1e-9)
    assert hi == pytest.approx(max(t * t for t in ts), rel=1e-9)
    print(
        "PASS criterion 6: series ratio bracketed within 10x for "
        "c in {0.5, 1, 2}; c = 1 matches t^2 to 1e-9"
    )


def test_criterion_7_pointwise_inequalities() -> None:
    start = time.monotonic()
    for alpha in (0.25, 0.5, 1.0, 1.5, 1.75):
        result = prop1_bound_check(alpha, 4096)
        assert result.prefix_max_ratio <= 1.0, (alpha, result.prefix_max_ratio)
        assert result.suffix_max_ratio <= 1.0, (alpha, result.suffix_max_ratio)
        assert result.section_norm_value <= result.bound + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: both pointwise inequalities hold for all "
        f"n,k <= 4096 at five alpha values, zero violations ({elapsed:.1f}s)"
    )


def test_criterion_8_property_suites(dense_norm) -> None:
    rng = np.random.default_rng(20260819)
    measures = [
        LEBESGUE,
        parse_measure("atom(0.5,1.0)"),
        parse_measure("powlaw(c=1.0, gamma=-0.5, delta=0.0)"),
        parse_measure("atom(0.3,0.5) + powlaw(c=0.5, gamma=0.5, delta=1.0)"),
    ]

    # Prefix-sum application agrees exactly with the O(N^2) double loop,
    # whose inner sums accumulate left to right like the prefix sum does.
    for trial in range(100):
        n = int(rng.integers(1, 1025))
        m = measures[trial % len(measures)]
        coeffs = rng.standard_normal(int(rng.integers(1, n + 1)))
        op = SectionOp(m, SpaceIndex(1.0), SpaceIndex(1.0), n)
        fast = apply(op, CoeffVec(coeffs))
        mu = moment_sequence(m, n)
        padded = [0.0] * n
        padded[: len(coeffs)] = [float(c) for c in coeffs]
        slow = np.empty(n)
        for i in range(n):
            total = 0.0
            for k in range(i + 1):
                total += padded[k]
            slow[i] = float(mu[i]) * total
        assert np.array_equal(fast.coeffs, slow), (trial, n)

    # Lanczos matches the dense SVD to 1e-10 relative.
    for m in measures:
        for alpha, beta in ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5)):
            op = SectionOp(m, SpaceIndex(alpha), SpaceIndex(beta), 256)
            lanczos = section_norm(op, tol=1e-12).value
            assert lanczos == pytest.approx(dense_norm(op), rel=1e-10)

    # Test families: unit-norm geometric, dominated counterexample, and a
    # weak-null family whose norms stay in a 4x bracket.
    for alpha in (0.5, 1.0, 1.5):
        s = SpaceIndex(alpha)
        f = truncated_geometric_family(s, 0.9, 200)
        assert norm(f, s) == pytest.approx(1.0, abs=1e-12)
        g = counterexample_family(s, 0.1, 10**4)
        assert norm(g, s) <= 1.0 + 1e-12
    s_half = SpaceIndex(0.5)
    weak_norms = [
        norm(weak_null_family(s_half, b), s_half) for b in (0.9, 0.99, 0.999)
    ]
    assert max(weak_norms) / min(weak_norms) <= 4.0
    print(
        "PASS criterion 8: exact prefix-sum equality on 100 random vectors, "
        "Lanczos within 1e-10 of dense SVD, and all test-family norm "
        "properties hold"
    )
