"""Verdict-engine tests against closed-form measures.

Oracles: lebesgue tails give exactly (1-t), so the tail ratio at exponent
s is (1-t)^(1-s) with a known log-slope per dyadic level; delta=0 power
laws give exactly constant ratios at the matching exponent; atoms give
exact-zero tails and underflowing moments.  Engine verdicts are checked
against these, never against the engines themselves.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import astuple, fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesarobench.analysis import (
    CARLESON_GRID,
    COMPACT_SIZE,
    COMPACT_SLOPE_THRESHOLD,
    NORM_DEADBAND,
    EquivalenceReport,
    Prop1Bound,
    Verdict,
    carleson_exponent,
    check_equivalence,
    classify_boundedness,
    classify_carleson,
    classify_compactness,
    classify_moments,
    est_ratio_check,
    evaluate_panel,
    prop1_bound_check,
    reports_to_csv,
    reports_to_json,
)
from cesarobench.measures import Measure, parse_measure
from cesarobench.operators import SectionOp, hardy_constant, section_norm, tail_section
from cesarobench.spaces import SpaceIndex

LEBESGUE = parse_measure("lebesgue")
ATOM_HALF = parse_measure("atom(0.5,1.0)")
# Total mass 1e307 fits a double, but at s = 1.5 its tail ratios and
# normalized moments grow past the double range.
OVERFLOWING = parse_measure("powlaw(c=1e307, gamma=0.0, delta=0.0)")

# Reduced sizes keep unit tests fast; verdicts at these sizes were
# verified to match the full-budget ones for the measures used here.
FAST_SIZES = tuple(1 << k for k in range(6, 13))


class TestCarlesonExponent:
    def test_values(self) -> None:
        assert carleson_exponent(1.0, 1.0) == 1.0
        assert carleson_exponent(0.5, 1.5) == 0.5
        assert carleson_exponent(1.5, 0.5) == 1.5
        assert carleson_exponent(1.2, 0.8) == pytest.approx(1.2, rel=1e-15)

    @given(
        st.floats(min_value=0.01, max_value=1.99),
        st.floats(min_value=0.01, max_value=1.99),
    )
    def test_pair_symmetry(self, alpha: float, beta: float) -> None:
        assert carleson_exponent(alpha, beta) + carleson_exponent(beta, alpha) == 2.0

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, 2.5, math.nan])
    def test_domain(self, bad: float) -> None:
        with pytest.raises(ValueError):
            carleson_exponent(bad, 1.0)
        with pytest.raises(ValueError):
            carleson_exponent(1.0, bad)


class TestClassifyCarleson:
    def test_lebesgue_critical_unit_ratios(self) -> None:
        v = classify_carleson(LEBESGUE, 1.0)
        assert v.status == "bounded"
        assert v.kind == "bounded_carleson"
        for _, ratio in v.evidence:
            assert ratio == pytest.approx(1.0, rel=1e-12)
        assert abs(v.fitted_slope) < 1e-10

    def test_lebesgue_supercritical_slope(self) -> None:
        # tail/(1-t)^1.5 = (1-t)^-0.5 doubles every two dyadic levels.
        v = classify_carleson(LEBESGUE, 1.5)
        assert v.status == "unbounded"
        assert v.kind == "not_carleson"
        assert v.fitted_slope == pytest.approx(0.5 * math.log(2.0), rel=1e-6)

    def test_lebesgue_subcritical_slope(self) -> None:
        v = classify_carleson(LEBESGUE, 0.5)
        assert v.status == "vanishing"
        assert v.kind == "vanishing_carleson"
        assert v.fitted_slope == pytest.approx(-0.5 * math.log(2.0), rel=1e-6)

    def test_power_law_constant_ratio(self) -> None:
        # tail = 2(1-t)^0.5 / 0.5 = 4(1-t)^0.5, so the s=0.5 ratio is 4.
        m = parse_measure("powlaw(c=2.0, gamma=-0.5, delta=0.0)")
        v = classify_carleson(m, 0.5)
        assert v.status == "bounded"
        for _, ratio in v.evidence:
            assert ratio == pytest.approx(4.0, rel=1e-11)

    def test_atom_tail_vanishes_exactly(self) -> None:
        v = classify_carleson(ATOM_HALF, 1.0)
        assert v.status == "vanishing"
        assert v.fitted_slope == -math.inf
        assert v.evidence[-1][1] == 0.0

    def test_evidence_grid(self) -> None:
        v = classify_carleson(LEBESGUE, 1.0)
        assert len(v.evidence) == 30
        assert [p for p, _ in v.evidence] == list(CARLESON_GRID)
        assert list(CARLESON_GRID) == [1.0 - 2.0**-j for j in range(1, 31)]

    @settings(max_examples=25, deadline=None)
    @given(
        mass=st.floats(min_value=0.1, max_value=8.0),
        t0=st.floats(min_value=0.05, max_value=0.9),
        gamma=st.floats(min_value=-0.9, max_value=2.0),
        s=st.floats(min_value=0.2, max_value=1.8),
    )
    def test_scaling_invariance(
        self, mass: float, t0: float, gamma: float, s: float
    ) -> None:
        # Doubling the measure shifts log-ratios by a constant, so the
        # verdict and fitted slope cannot move.
        m = Measure(atoms=((t0, mass),), densities=((mass, gamma, 0.0),))
        doubled = Measure(
            atoms=((t0, 2.0 * mass),), densities=((2.0 * mass, gamma, 0.0),)
        )
        v1 = classify_carleson(m, s)
        v2 = classify_carleson(doubled, s)
        assert v1.status == v2.status
        if math.isfinite(v1.fitted_slope):
            assert v2.fitted_slope == pytest.approx(v1.fitted_slope, abs=1e-9)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            classify_carleson(LEBESGUE, 0.0)
        with pytest.raises(ValueError, match="double range"):
            classify_carleson(OVERFLOWING, 1.5)


class TestClassifyMoments:
    def test_lebesgue_critical_exact_ones(self) -> None:
        # mu_n = 1/(n+1) makes every normalized moment exactly 1.
        v = classify_moments(LEBESGUE, 1.0)
        assert v.status == "bounded"
        for _, ratio in v.evidence:
            assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_lebesgue_supercritical_slope(self) -> None:
        v = classify_moments(LEBESGUE, 1.5)
        assert v.status == "unbounded"
        assert v.fitted_slope == pytest.approx(0.5, abs=1e-3)

    def test_lebesgue_subcritical_slope(self) -> None:
        v = classify_moments(LEBESGUE, 0.5)
        assert v.status == "vanishing"
        assert v.fitted_slope == pytest.approx(-0.5, abs=1e-3)

    def test_atom_moment_underflow(self) -> None:
        # 0.5^n underflows to exact zero well before n = 2^20.
        v = classify_moments(ATOM_HALF, 1.0)
        assert v.status == "vanishing"
        assert v.fitted_slope == -math.inf

    def test_critical_power_law_limit(self) -> None:
        # For the critical power law the normalized moment converges to
        # Gamma(s); the deepest sample must sit within 1%.
        s = 1.2
        m = parse_measure(f"powlaw(c=1.0, gamma={s - 1.0}, delta=0.0)")
        v = classify_moments(m, s)
        assert v.status == "bounded"
        assert v.evidence[-1][1] == pytest.approx(math.gamma(s), rel=0.01)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            classify_moments(LEBESGUE, -1.0)
        with pytest.raises(ValueError, match="double range"):
            classify_moments(OVERFLOWING, 1.5)

    def test_one_moment_pass(self, monkeypatch) -> None:
        # The whole grid comes from one vectorized call, never from
        # per-index scalar moments.
        import cesarobench.analysis as analysis
        import cesarobench.measures as measures

        calls = {"moments_at": 0, "moment": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (analysis, measures):
            monkeypatch.setattr(
                module, "moments_at", counted("moments_at", measures.moments_at),
                raising=False,
            )
            monkeypatch.setattr(
                module, "moment", counted("moment", measures.moment), raising=False
            )
        classify_moments(LEBESGUE, 1.0)
        assert calls == {"moments_at": 1, "moment": 0}


class TestClassifyBoundedness:
    def test_critical_is_bounded(self) -> None:
        v = classify_boundedness(LEBESGUE, 1.0, 1.0, FAST_SIZES)
        assert v.status == "bounded"
        assert v.kind == "bounded_norm"
        assert abs(v.fitted_slope) < NORM_DEADBAND

    def test_unbounded_slope_matches_exponent_gap(self) -> None:
        # s = 1.5 exceeds the critical tail exponent 1 by 0.5, and the
        # section norms grow with that log-log slope.
        v = classify_boundedness(LEBESGUE, 1.5, 0.5, FAST_SIZES)
        assert v.status == "unbounded"
        assert v.kind == "not_norm"
        assert v.fitted_slope == pytest.approx(0.5, abs=0.05)

    def test_atom_plateau(self) -> None:
        v = classify_boundedness(ATOM_HALF, 1.5, 0.5, FAST_SIZES)
        assert v.status == "bounded"
        assert abs(v.fitted_slope) < 1e-6

    def test_vanishing_type_reports_bounded(self) -> None:
        v = classify_boundedness(LEBESGUE, 0.5, 1.5, FAST_SIZES)
        assert v.status == "bounded"

    def test_evidence_is_nondecreasing_profile(self) -> None:
        v = classify_boundedness(LEBESGUE, 1.0, 1.0, FAST_SIZES)
        values = [r for _, r in v.evidence]
        assert len(values) == len(FAST_SIZES)
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-8

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            classify_boundedness(LEBESGUE, 2.5, 1.0, FAST_SIZES)
        with pytest.raises(ValueError):
            classify_boundedness(LEBESGUE, 1.0, 1.0, (64, 64, 128))
        # Fewer than 3 sizes leave under two points in the deepest half.
        for sizes in ((64,), (8, 16)):
            with pytest.raises(ValueError, match="sizes"):
                classify_boundedness(LEBESGUE, 1.0, 1.0, sizes)
        # Not run as their integer parts 64, 128 and 256.
        with pytest.raises(ValueError, match="positive integer"):
            classify_boundedness(LEBESGUE, 1.0, 1.0, (64.5, 128.2, 256.7))


class TestClassifyCompactness:
    def test_atom_tails_decay(self) -> None:
        # The tails fall from about 1e-5 at M = 16 to about 1e-153 at
        # M = 512 without underflowing, so the verdict rests on a real fit.
        v = classify_compactness(ATOM_HALF, 1.0, 1.0)
        assert v.status == "vanishing"
        assert v.kind == "compact"
        assert math.isfinite(v.fitted_slope)
        assert v.fitted_slope < COMPACT_SLOPE_THRESHOLD
        assert all(tail > 0.0 for _, tail in v.evidence)

    def test_tail_in_its_own_frame(self) -> None:
        # The M = 256 tail, near 3.8e-179, squares to zero in the full
        # section's frame (peak mu_0 = 1), so only its own frame keeps B
        # positive; past M = 512 the moments underflow to exactly zero.
        m = parse_measure("atom(0.2,1.0)")
        op = SectionOp(m, SpaceIndex(1.0), SpaceIndex(1.0), COMPACT_SIZE)
        tail = tail_section(op, 256)
        bound = hardy_constant(tail)
        assert 0.0 < bound < 1e-170
        value = section_norm(tail).value
        assert bound * (1 - 1e-12) <= value <= 2 * bound * (1 + 1e-12)
        assert hardy_constant(tail_section(op, 512)) == 0.0
        v = classify_compactness(m, 1.0, 1.0)
        assert dict(v.evidence)[256.0] == bound
        assert dict(v.evidence)[512.0] == 0.0
        assert v.fitted_slope == -math.inf
        assert v.status == "vanishing"

    def test_small_critical_part_not_compact(self) -> None:
        # The critical density makes the operator bounded but not compact,
        # however small its weight; its tails dwarf the atom's, and no
        # tail-to-full level may stand in for the fit.
        m = parse_measure("atom(0.5,1.0) + powlaw(c=1e-8, gamma=0.0, delta=0.0)")
        v = classify_compactness(m, 1.0, 1.0)
        assert v.status != "vanishing"

    def test_critical_not_compact(self) -> None:
        v = classify_compactness(LEBESGUE, 1.0, 1.0)
        assert v.status == "bounded"
        assert v.kind == "not_compact"
        assert v.fitted_slope > COMPACT_SLOPE_THRESHOLD
        # Tail norms stay comparable to the full norm.
        op = SectionOp(LEBESGUE, SpaceIndex(1.0), SpaceIndex(1.0), COMPACT_SIZE)
        full = section_norm(op).value
        assert v.evidence[-1][1] > 0.5 * full

    def test_vanishing_type_compact(self) -> None:
        v = classify_compactness(LEBESGUE, 0.5, 1.5)
        assert v.status == "vanishing"
        assert v.kind == "compact"
        assert v.fitted_slope < COMPACT_SLOPE_THRESHOLD


class TestVerdict:
    def test_kind_mapping(self) -> None:
        ev = ((1.0, 1.0),)
        assert Verdict("carleson", "unbounded", ev, 1.0, 0.0).kind == "not_carleson"
        assert Verdict("moments", "vanishing", ev, -1.0, 0.0).kind == "vanishing_moments"
        assert Verdict("norm", "inconclusive", ev, 0.0, 0.0).kind == "inconclusive_norm"
        assert Verdict("compactness", "vanishing", ev, -1.0, 0.0).kind == "compact"
        assert Verdict("compactness", "bounded", ev, 0.0, 0.0).kind == "not_compact"

    def test_boolean_views(self) -> None:
        ev = ((1.0, 1.0),)
        assert Verdict("carleson", "bounded", ev, 0.0, 0.0).indicates_bounded
        assert Verdict("carleson", "vanishing", ev, -1.0, 0.0).indicates_bounded
        assert not Verdict("carleson", "unbounded", ev, 1.0, 0.0).indicates_bounded
        assert Verdict("carleson", "vanishing", ev, -1.0, 0.0).indicates_vanishing
        assert not Verdict("carleson", "bounded", ev, 0.0, 0.0).indicates_vanishing

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Verdict("spectral", "bounded", ((1.0, 1.0),), 0.0, 0.0)
        with pytest.raises(ValueError):
            Verdict("carleson", "maybe", ((1.0, 1.0),), 0.0, 0.0)
        with pytest.raises(ValueError):
            Verdict("carleson", "bounded", (), 0.0, 0.0)

    def test_status_the_engine_cannot_produce(self) -> None:
        # classify_boundedness folds vanishing into bounded, and
        # classify_compactness only tells compact from not compact.
        with pytest.raises(ValueError, match="norm engine"):
            Verdict("norm", "vanishing", ((1.0, 1.0),), -1.0, 0.0)
        with pytest.raises(ValueError, match="compactness engine"):
            Verdict("compactness", "unbounded", ((1.0, 1.0),), 1.0, 0.0)


class TestCheckEquivalence:
    def test_bounded_entry_full_agreement(self) -> None:
        m = parse_measure("powlaw(c=1.0, gamma=0.0, delta=0.0)")
        rep = check_equivalence(m, 1.0, 1.0, sizes=FAST_SIZES)
        assert rep.s == 1.0
        assert rep.boundedness_agree is True
        assert rep.compactness_agree is True
        assert set(rep.verdicts) == {"carleson", "moments", "norm", "compactness"}
        assert rep.verdicts["compactness"].kind == "not_compact"
        assert rep.warnings == ()
        assert rep.ok

    def test_unbounded_entry(self) -> None:
        rep = check_equivalence(LEBESGUE, 1.5, 0.5, sizes=FAST_SIZES)
        assert rep.boundedness_agree is True
        assert rep.compactness_agree is None
        assert "compactness" not in rep.verdicts
        assert all(not v.indicates_bounded for v in rep.verdicts.values())
        assert rep.ok

    def test_vanishing_entry(self) -> None:
        rep = check_equivalence(ATOM_HALF, 1.0, 1.0, sizes=FAST_SIZES)
        assert rep.boundedness_agree is True
        assert rep.compactness_agree is True
        assert rep.verdicts["compactness"].kind == "compact"

    def test_inconclusive_engine_excluded_with_warning(self, monkeypatch) -> None:
        import cesarobench.analysis as analysis

        def stub(m, s):
            return Verdict("moments", "inconclusive", ((1.0, 1.0),), 0.0, 1.0)

        monkeypatch.setattr(analysis, "classify_moments", stub)
        rep = check_equivalence(LEBESGUE, 1.0, 1.0, sizes=FAST_SIZES)
        assert rep.boundedness_agree is True
        assert "moments engine inconclusive" in rep.warnings
        assert rep.ok

    def test_disagreement_detected(self, monkeypatch) -> None:
        import cesarobench.analysis as analysis

        def stub(m, s):
            return Verdict("moments", "unbounded", ((1.0, 1.0),), 1.0, 0.0)

        monkeypatch.setattr(analysis, "classify_moments", stub)
        rep = check_equivalence(LEBESGUE, 1.0, 1.0, sizes=FAST_SIZES)
        assert rep.boundedness_agree is False
        assert "compactness" not in rep.verdicts
        assert not rep.ok

    def test_flags_are_read_from_the_verdicts(self) -> None:
        ev = ((1.0, 1.0),)
        verdicts = {
            "carleson": Verdict("carleson", "vanishing", ev, -1.0, 0.0),
            "moments": Verdict("moments", "inconclusive", ev, 0.0, 1.0),
            "norm": Verdict("norm", "bounded", ev, 0.0, 0.0),
            "compactness": Verdict("compactness", "bounded", ev, 0.0, 0.0),
        }
        rep = EquivalenceReport("lebesgue", 1.0, 1.0, 1.0, verdicts)
        assert [f.name for f in fields(rep)] == [
            "measure", "alpha", "beta", "s", "verdicts"
        ]
        assert rep.boundedness_agree is True
        assert rep.compactness_agree is False
        assert rep.warnings == ("moments engine inconclusive",)
        assert not rep.ok

    def test_inconclusive_norm_skips_compactness(self, monkeypatch) -> None:
        # The gate in check_equivalence is all that keeps the compactness
        # engine off entries the norm engine does not call bounded.
        import cesarobench.analysis as analysis

        def stub(m, alpha, beta, sizes, tol):
            return Verdict("norm", "inconclusive", ((1.0, 1.0),), 0.0, 1.0)

        monkeypatch.setattr(analysis, "classify_boundedness", stub)
        rep = check_equivalence(LEBESGUE, 1.0, 1.0, sizes=FAST_SIZES)
        assert "compactness" not in rep.verdicts
        assert rep.compactness_agree is None
        assert rep.warnings == ("norm engine inconclusive",)
        assert rep.ok


class TestResolution:
    """Each engine's status near the critical line, as it is today.

    Lebesgue measure at (b + d, b - d) has s - 1 = d, so by the paper every
    entry here is unbounded.  README's "Resolution" paragraph and two FOUND
    lines in CHANGES.md describe the outcomes as known defects: a norm
    slope inside NORM_DEADBAND reads as bounded and prints DISAGREE; for d
    between DEADBAND and 0.02 the Carleson engine reads bounded too, and
    only the moment engine unbounded; below DEADBAND every engine reads
    bounded and the entry agrees on a wrong verdict.  On the compact side,
    Lebesgue measure at (1 - d, 1 + d) and powlaw(c=1, gamma=0.5+e,
    delta=0) at (1.5, 0.5) are compact by the paper for every d, e > 0, but
    the compactness engine reads not compact up to d = 0.1 and e = 0.1 and
    compact from 0.15 on, over d, e in {0.02, 0.05, 0.1, 0.15, 0.2, 0.3}.  A
    change that moves any status pinned here must say so in CHANGES.md.
    """

    @pytest.mark.parametrize("alpha, beta", [(1.03, 0.97), (1.06, 0.94)])
    def test_norm_deadband_prints_disagree(self, alpha: float, beta: float) -> None:
        rep = check_equivalence(LEBESGUE, alpha, beta)
        assert {k: v.kind for k, v in rep.verdicts.items()} == {
            "carleson": "not_carleson",
            "moments": "not_moments",
            "norm": "bounded_norm",
        }
        assert rep.boundedness_agree is False
        assert not rep.ok

    @pytest.mark.parametrize("b", [0.6, 1.0, 1.4])
    def test_band_between_deadbands_prints_disagree(self, b: float) -> None:
        # Offset 0.016, between DEADBAND (0.0139) and 0.02.  The Carleson
        # slope, per step of j, is 0.016 ln 2 = 0.0111, inside DEADBAND;
        # the moment slope 0.0160 lies outside it; the norm slopes 0.0358,
        # 0.0208 and 0.0105 at b = 0.6, 1.0 and 1.4 lie inside NORM_DEADBAND.
        rep = check_equivalence(LEBESGUE, b + 0.016, b - 0.016)
        assert {k: v.kind for k, v in rep.verdicts.items()} == {
            "carleson": "bounded_carleson",
            "moments": "not_moments",
            "norm": "bounded_norm",
        }
        assert rep.boundedness_agree is False
        assert not rep.ok

    def test_below_deadband_agrees_on_bounded(self) -> None:
        rep = check_equivalence(LEBESGUE, 1.005, 0.995)
        assert {k: v.kind for k, v in rep.verdicts.items()} == {
            "carleson": "bounded_carleson",
            "moments": "bounded_moments",
            "norm": "bounded_norm",
            "compactness": "not_compact",
        }
        assert rep.ok

    @pytest.mark.parametrize(
        "measure, alpha, beta, kind",
        [
            ("lebesgue", 0.98, 1.02, "not_compact"),
            ("lebesgue", 0.95, 1.05, "not_compact"),
            ("lebesgue", 0.9, 1.1, "not_compact"),
            ("lebesgue", 0.85, 1.15, "compact"),
            ("lebesgue", 0.8, 1.2, "compact"),
            ("lebesgue", 0.7, 1.3, "compact"),
            ("powlaw(c=1, gamma=0.52, delta=0)", 1.5, 0.5, "not_compact"),
            ("powlaw(c=1, gamma=0.55, delta=0)", 1.5, 0.5, "not_compact"),
            ("powlaw(c=1, gamma=0.6, delta=0)", 1.5, 0.5, "not_compact"),
            ("powlaw(c=1, gamma=0.65, delta=0)", 1.5, 0.5, "compact"),
            ("powlaw(c=1, gamma=0.7, delta=0)", 1.5, 0.5, "compact"),
            ("powlaw(c=1, gamma=0.8, delta=0)", 1.5, 0.5, "compact"),
        ],
    )
    def test_compactness_edge(
        self, measure: str, alpha: float, beta: float, kind: str
    ) -> None:
        # Hardy-constant slopes, against COMPACT_SLOPE_THRESHOLD = -0.15:
        # -0.038, -0.066, -0.113, -0.161, -0.208 and -0.303 for Lebesgue
        # measure at d = 0.02, 0.05, 0.1, 0.15, 0.2 and 0.3; -0.026, -0.055,
        # -0.104, -0.153, -0.202 and -0.300 for the power law at the same e.
        v = classify_compactness(parse_measure(measure), alpha, beta)
        assert v.kind == kind


PANEL_ENTRIES = [
    ("lebesgue", LEBESGUE, 1.0, 1.0),
    ("atom_half", ATOM_HALF, 1.0, 1.0),
    ("atom_half", ATOM_HALF, 0.5, 1.5),
]


class TestEvaluatePanel:
    def test_sorted_output(self) -> None:
        shuffled = [PANEL_ENTRIES[2], PANEL_ENTRIES[0], PANEL_ENTRIES[1]]
        named = evaluate_panel(shuffled, sizes=FAST_SIZES)
        keys = [(name, rep.alpha, rep.beta) for name, rep in named]
        assert keys == sorted(keys)

    def test_deterministic_and_thread_invariant(self, monkeypatch) -> None:
        serial = reports_to_json(evaluate_panel(PANEL_ENTRIES, sizes=FAST_SIZES))
        again = reports_to_json(evaluate_panel(PANEL_ENTRIES, sizes=FAST_SIZES))
        assert serial == again
        monkeypatch.setenv("CESARO_THREADS", "3")
        threaded = reports_to_json(evaluate_panel(PANEL_ENTRIES, sizes=FAST_SIZES))
        assert threaded == serial

    def test_bad_thread_env(self, monkeypatch) -> None:
        for bad in ("many", "0"):
            monkeypatch.setenv("CESARO_THREADS", bad)
            with pytest.raises(ValueError, match="CESARO_THREADS"):
                evaluate_panel(PANEL_ENTRIES[:1], sizes=FAST_SIZES)


class TestReportSerialization:
    def test_json_roundtrip_and_nonfinite(self) -> None:
        named = evaluate_panel(PANEL_ENTRIES[:2], sizes=FAST_SIZES)
        doc = json.loads(reports_to_json(named))
        assert doc["all_agree"] is True
        assert len(doc["entries"]) == 2
        atom_entry = next(e for e in doc["entries"] if e["name"] == "atom_half")
        # The atom's carleson slope is -inf and must serialize as a string.
        assert atom_entry["verdicts"]["carleson"]["fitted_slope"] == "-inf"
        leb_entry = next(e for e in doc["entries"] if e["name"] == "lebesgue")
        assert isinstance(leb_entry["verdicts"]["norm"]["fitted_slope"], float)

    def test_csv_shape(self) -> None:
        named = evaluate_panel(PANEL_ENTRIES[:1], sizes=FAST_SIZES)
        lines = reports_to_csv(named).splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["name", "measure", "alpha", "beta", "s", "engine"]
        expected_rows = sum(
            len(v.evidence) for _, rep in named for v in rep.verdicts.values()
        )
        assert len(lines) - 1 == expected_rows


class TestEstRatioCheck:
    def test_closed_forms(self) -> None:
        ts = [0.5, 0.9, 0.99]
        # c = 1 and c = 2 both collapse to rho(t) = t^2.
        for c in (1.0, 2.0):
            lo, hi = est_ratio_check(c, ts, 20000)
            assert lo == pytest.approx(0.25, rel=1e-9)
            assert hi == pytest.approx(0.99**2, rel=1e-9)
        # c = 3: rho(t) = t^2 (1 + t^2).
        lo, hi = est_ratio_check(3.0, ts, 20000)
        assert lo == pytest.approx(0.25 * 1.25, rel=1e-9)
        assert hi == pytest.approx(0.99**2 * (1 + 0.99**2), rel=1e-9)

    def test_stable_under_budget_doubling(self) -> None:
        ts = [0.5, 0.9, 0.99, 0.999]
        for c in (0.25, 0.7, 1.5, 3.5):
            lo, hi = est_ratio_check(c, ts, 100000)
            lo2, hi2 = est_ratio_check(c, ts, 200000)
            assert lo2 == pytest.approx(lo, rel=0.01)
            assert hi2 == pytest.approx(hi, rel=0.01)
            assert 0.0 < lo <= hi < math.inf

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            est_ratio_check(0.0, [0.5], 1000)
        with pytest.raises(ValueError):
            est_ratio_check(1.0, [], 1000)
        with pytest.raises(ValueError):
            est_ratio_check(1.0, [1.0], 1000)
        with pytest.raises(ValueError, match="too small"):
            est_ratio_check(1.0, [0.999], 1000)
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                est_ratio_check(c, [0.5], 1000)

    @pytest.mark.parametrize("c", [0.5, 1.5, 3.5])
    def test_against_mpmath(self, c: float) -> None:
        # The reference is the full series (1-t^2)^c Li_{1-c}(t^2); past
        # n_max = 60000 its tail is below t^120000 < 1e-52 of the sum.
        ts = [0.5, 0.9, 0.99, 0.999]
        lo, hi = est_ratio_check(c, ts, 60000)
        with mpmath.workdps(30):
            exact = []
            for t in ts:
                z = mpmath.mpf(t) ** 2
                exact.append((1 - z) ** c * mpmath.polylog(1 - c, z))
        for got, want in ((lo, min(exact)), (hi, max(exact))):
            assert float(abs((mpmath.mpf(got) - want) / want)) <= 1e-12, (c, got)


def _prop1_reference(alpha: float, n: int) -> Prop1Bound:
    """prop1_bound_check with a separate array for the sweep's indices, its
    weights and its reversed suffix sums."""
    op = SectionOp(Measure.lebesgue(), SpaceIndex(alpha), SpaceIndex(alpha), n)
    value = section_norm(op).value
    bound = math.sqrt(2.0 * (2.0 + alpha)) / alpha
    idx = np.arange(1, n + 2, dtype=float)
    lhs_prefix = np.cumsum(idx ** (-(2.0 - alpha) / 2.0))
    rhs_prefix = (2.0 / alpha) * idx ** (alpha / 2.0)
    prefix_max = float(np.max(lhs_prefix / rhs_prefix))
    cutoff = 64 * n
    tail_idx = np.arange(1, cutoff + 1, dtype=float)
    weights = tail_idx ** (-(2.0 + alpha) / 2.0)
    suffix = np.cumsum(weights[::-1])[::-1]
    remainder = (2.0 / alpha) * (cutoff + 1.0) ** (-alpha / 2.0)
    lhs_suffix = idx ** (alpha / 2.0) * (suffix[: n + 1] + remainder)
    suffix_max = float(np.max(lhs_suffix)) / ((2.0 + alpha) / alpha)
    return Prop1Bound(value, bound, prefix_max, suffix_max)


class TestProp1BoundCheck:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 1.75])
    def test_norm_below_bound(self, alpha: float) -> None:
        result = prop1_bound_check(alpha, 512)
        assert result.section_norm_value <= result.bound + 1e-9
        assert result.bound == pytest.approx(
            math.sqrt(2.0 * (2.0 + alpha)) / alpha, rel=1e-15
        )
        assert result.prefix_max_ratio <= 1.0
        assert result.suffix_max_ratio <= 1.0

    def test_partial_sum_inequality_brute_force(self) -> None:
        # Recompute the cumulative-sum inequality directly for small n.
        alpha = 0.5
        result = prop1_bound_check(alpha, 64)
        worst = 0.0
        for n in range(65):
            lhs = sum((k + 1.0) ** (-(2.0 - alpha) / 2.0) for k in range(n + 1))
            rhs = (2.0 / alpha) * (n + 1.0) ** (alpha / 2.0)
            assert lhs <= rhs
            worst = max(worst, lhs / rhs)
        assert result.prefix_max_ratio == pytest.approx(worst, rel=1e-12)

    def test_tail_sum_inequality_brute_force(self) -> None:
        # Suffix sums plus the integral remainder dominate the true tail.
        alpha = 1.0
        result = prop1_bound_check(alpha, 64)
        bound = (2.0 + alpha) / alpha
        # k = 0 is the worst index: the sum is a zeta-like tail.
        lhs = sum((n + 1.0) ** (-(2.0 + alpha) / 2.0) for n in range(200000))
        assert lhs <= bound
        assert result.suffix_max_ratio <= 1.0
        assert result.suffix_max_ratio == pytest.approx(lhs / bound, rel=1e-2)

    def test_value_and_bound_fields(self) -> None:
        result = prop1_bound_check(1.0, 128)
        assert isinstance(result.section_norm_value, float)
        assert result.section_norm_value <= result.bound

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.6])
    def test_matches_the_three_array_sweep_bitwise(self, alpha: float) -> None:
        got = astuple(prop1_bound_check(alpha, 4096))
        want = astuple(_prop1_reference(alpha, 4096))
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_sweep_holds_one_array(self) -> None:
        # The 64 n suffix sweep is one array of 64 n doubles; with a
        # separate array for the indices, the weights and the reversed
        # sums the traced peak read 3.1 times that, and in place 1.14.
        prop1_bound_check(0.9, 4096)
        tracemalloc.start()
        try:
            prop1_bound_check(0.9, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 64 * 4096 * 8

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            prop1_bound_check(0.0)
        with pytest.raises(ValueError):
            prop1_bound_check(2.0)
        with pytest.raises(ValueError):
            prop1_bound_check(1.0, 0)
