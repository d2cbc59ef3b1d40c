"""Checks of the program's outputs against values computed apart from it.

Nothing here calls cesarobench.  Moments come from scipy.special (vectorized)
or mpmath (40 digits), measure expressions are read by the benchmark's own
parser, and the paper's characterization is evaluated from the expression.
Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import special

from workloads import (
    BY_PARTS_NS,
    MOMENT_N_MAX,
    PROFILE_SIZES,
    critical_exponent,
    parse_expr,
    resolve_template,
)

MOMENT_RTOL = 1e-7  # direct and by-parts moments against mpmath
UNDERFLOW = 1e-300  # below this the double result has no relative accuracy
# moment_by_parts skips quadrature panels that "cannot contribute above
# ~1e-20" (its own comment), so below that size it is held to an absolute
# error of 1e-20 instead.
BY_PARTS_FLOOR = 1e-20
EXPONENT_ATOL = 1e-9  # gamma + 1 == s counts as critical within this
BOUND_RTOL = 1e-9  # norm against the benchmark's lower and upper bounds
EST_RTOL = 1e-9  # est_ratio_check at c = 1 against t^2
FAMILY_TOL = 1e-12  # unit norm of the truncated geometric family
APPLY_RTOL = 1e-9  # apply() against the benchmark's own prefix sums
MP_DIGITS = 40


def moments(mix, count: int) -> np.ndarray:
    """mu[0..count-1]: c Gamma(g+1) / poch(n+d+1, g+1) plus atoms."""
    atoms, densities = mix
    ns = np.arange(count, dtype=float)
    out = np.zeros(count)
    for t0, mass in atoms:
        out += mass * t0**ns
    for c, g, d in densities:
        out += c * special.gamma(g + 1.0) / special.poch(ns + d + 1.0, g + 1.0)
    return out


def moment_mp(mix, n: int):
    atoms, densities = mix
    with mpmath.workdps(MP_DIGITS):
        total = mpmath.mpf(0)
        for t0, mass in atoms:
            total += mpmath.mpf(mass) * mpmath.mpf(t0) ** n
        for c, g, d in densities:
            total += mpmath.mpf(c) * mpmath.beta(n + mpmath.mpf(d) + 1, mpmath.mpf(g) + 1)
        return total


def characterization(mix, s: float) -> tuple[bool, bool]:
    """(bounded, compact) by the paper: the tail mu([t,1)) of a density
    term decays like (1-t)^(gamma+1), and atoms in [0,1) impose nothing."""
    _, densities = mix
    if not densities:
        return True, True
    exponent = min(g + 1.0 for _, g, _ in densities)
    if abs(exponent - s) <= EXPONENT_ATOL:
        return True, False
    return exponent > s, exponent > s


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _fsum_norm(coeffs, alpha: float) -> float:
    return math.sqrt(math.fsum(
        (n + 1.0) ** (1.0 - alpha) * float(a) * float(a) for n, a in enumerate(coeffs)
    ))


def section_bounds(mix, alpha: float, beta: float, sizes) -> list[tuple[float, float]]:
    """(lower, upper) for the norm of each nested section.

    With A the weight-conjugated section, power iteration from the all-ones
    vector has nondecreasing Rayleigh quotients and stops at iteration 2 at
    the earliest, so ||A v1|| with v1 = A^T A 1 / |.| bounds its result from
    below.  A has no negative entries, so for any positive v the
    Collatz-Wielandt quotient max_i (A^T A v)_i / v_i bounds ||A||^2 above.
    """
    mu = moments(mix, max(sizes))
    out = []
    for size in sizes:
        idx = np.arange(1, size + 1, dtype=float)
        w_in = idx ** (-(1.0 - alpha) / 2.0)
        w_out = idx ** ((1.0 - beta) / 2.0) * mu[:size]

        def gram(v):
            av = w_out * np.cumsum(w_in * v)
            return av, w_in * np.cumsum((w_out * av)[::-1])[::-1]

        _, v = gram(np.ones(size))
        v /= np.linalg.norm(v)
        av, btv = gram(v)
        lower = float(np.linalg.norm(av))
        for _ in range(8):
            v = btv / np.linalg.norm(btv)
            _, btv = gram(v)
        upper = math.sqrt(float(np.max(btv / v)))
        out.append((lower, upper))
    return out


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def check(workload, outputs: list, out_dir: Path, source_digest: str) -> list[str]:
    """Problems in one round's outputs (None marks a failed operation).

    run.py checks the first round and requires every later round's outputs
    to be bit-identical to it.
    """
    checker = {
        "verify_panel": _check_verify,
        "norm_profile_large": _check_profiles,
        "paper_checks": _check_paper,
    }[workload.name]
    return checker(workload, outputs, out_dir, source_digest)


def _check_verify(workload, outputs, out_dir, source_digest) -> list[str]:
    if outputs[0] is None:
        return []
    (rc, _), report = outputs[0]
    problems = [] if rc == 0 else [f"verify exit code {rc}"]
    problems += _check_report(workload, json.loads(report))
    # Runs of one set share a source tree; the first run records its
    # report digest and the later ones must match it.
    digest = hashlib.sha256(report).hexdigest()
    store = out_dir / "verify_panel" / "report_digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    expected = known.setdefault(source_digest, digest)
    if expected != digest:
        problems.append(f"report.json digest {digest} differs from an earlier run's {expected}")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return problems


def _check_report(workload, doc) -> list[str]:
    problems = []
    inputs = workload.inputs
    entries = doc["entries"]
    seen = sorted({(e["name"], e["alpha"], e["beta"]) for e in entries})
    wanted = sorted((n, a, b) for n in inputs["names"] for a, b in inputs["pairs"])
    if seen != wanted or len(entries) != len(wanted):
        problems.append(f"report entries {seen} differ from the panel {wanted}")
    if doc["all_agree"] is not True:
        problems.append("report says the engines disagree")
    for e in entries:
        label = f"{e['name']} ({e['alpha']}, {e['beta']})"
        s = critical_exponent(e["alpha"], e["beta"])
        mix = parse_expr(e["measure"])
        expected = parse_expr(resolve_template(inputs["templates"][e["name"]], s))
        if not _same_mix(mix, expected):
            problems.append(f"{label}: measure {e['measure']} is not the panel's")
        verdicts = e["verdicts"]
        for engine, v in verdicts.items():
            if v["status"] == "inconclusive":
                problems.append(f"{label}: {engine} engine inconclusive")
        bounded, compact = characterization(mix, s)
        want_norm = "bounded_norm" if bounded else "not_norm"
        if verdicts["norm"]["kind"] != want_norm:
            problems.append(f"{label}: norm {verdicts['norm']['kind']}, paper {want_norm}")
        got_compact = verdicts.get("compactness", {}).get("kind")
        want_compact = ("compact" if compact else "not_compact") if bounded else None
        if got_compact != want_compact:
            problems.append(f"{label}: compactness {got_compact}, paper {want_compact}")
    return problems


def _same_mix(a, b) -> bool:
    flat_a = [x for part in a for term in part for x in term]
    flat_b = [x for part in b for term in part for x in term]
    return len(flat_a) == len(flat_b) and all(
        abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in zip(flat_a, flat_b)
    )


def _check_profiles(workload, outputs, out_dir, source_digest) -> list[str]:
    problems = []
    expected = []
    for name, expr, alpha, beta in workload.inputs["profiles"]:
        mix = parse_expr(expr)
        classical = name == "lebesgue" and alpha == beta
        cap = math.sqrt(2.0 * (2.0 + alpha)) / alpha if classical else math.inf
        expected.append((expr, alpha, beta, section_bounds(mix, alpha, beta, PROFILE_SIZES), cap))
    for (expr, alpha, beta, bounds, cap), result in zip(expected, outputs):
        if result is None:
            continue
        label = f"{expr} ({alpha}, {beta})"
        rc, text = result
        if rc != 0:
            problems.append(f"{label}: exit code {rc}")
            continue
        rows = json.loads(text)["rows"]
        if [r["N"] for r in rows] != list(PROFILE_SIZES):
            problems.append(f"{label}: sizes {[r['N'] for r in rows]}")
            continue
        for prev, row in zip(rows, rows[1:]):
            if row["norm"] < prev["norm"] - (prev["residual"] + row["residual"]):
                problems.append(f"{label}: norm decreases at N={row['N']}")
        for row, (lower, upper) in zip(rows, bounds):
            value = row["norm"]
            if not lower * (1 - BOUND_RTOL) <= value <= upper * (1 + BOUND_RTOL):
                problems.append(
                    f"{label}: N={row['N']} norm {value!r} outside [{lower!r}, {upper!r}]"
                )
            if value >= cap:
                problems.append(f"{label}: N={row['N']} norm {value!r} >= {cap!r}")
    return problems


def _check_moment(label: str, value: float, exact, floor: float = UNDERFLOW) -> list[str]:
    if exact < floor:
        ok = abs(value - float(exact)) <= floor
        return [] if ok else [f"{label}: {value!r}, exact {float(exact)!r}"]
    err = _rel(value, float(exact))
    return [] if err <= MOMENT_RTOL else [f"{label}: relative error {err:.3g}"]


def _check_paper(workload, outputs, out_dir, source_digest) -> list[str]:
    inputs = workload.inputs
    grid = [1 << k for k in range(MOMENT_N_MAX.bit_length())]
    exact = {}
    for expr in inputs["measures"]:
        mix = parse_expr(expr)
        for n in sorted(set(grid) | set(BY_PARTS_NS)):
            exact[expr, n] = moment_mp(mix, n)
    fam_alpha = inputs["family_alpha"]
    classical_cap = math.sqrt(2.0 * (2.0 + fam_alpha)) / fam_alpha

    problems = []
    results = iter(outputs)
    for expr in inputs["measures"]:
        table, by_parts = next(results), next(results)
        if table is not None:
            rc, text = table
            rows = json.loads(text)["rows"] if rc == 0 else []
            if [r["n"] for r in rows] != grid:
                problems.append(f"moments {expr}: exit code {rc}, rows {len(rows)}")
            for r in rows:
                n = r["n"]
                problems += _check_moment(f"moment {expr} n={n}", r["moment"], exact[expr, n])
                problems += _check_moment(
                    f"moments table by-parts {expr} n={n}", r["moment_by_parts"],
                    exact[expr, n], BY_PARTS_FLOOR,
                )
        if by_parts is not None:
            for n, value in zip(BY_PARTS_NS, by_parts):
                problems += _check_moment(
                    f"moment_by_parts {expr} n={n}", value, exact[expr, n], BY_PARTS_FLOOR
                )
    for alpha in inputs["prop1_alphas"]:
        result = next(results)
        if result is None:
            continue
        bound = math.sqrt(2.0 * (2.0 + alpha)) / alpha
        if _rel(result.bound, bound) > 1e-15:
            problems.append(f"prop1 {alpha}: bound {result.bound!r}, expected {bound!r}")
        if result.prefix_max_ratio > 1.0 or result.suffix_max_ratio > 1.0:
            problems.append(f"prop1 {alpha}: ratios {result.prefix_max_ratio}, {result.suffix_max_ratio}")
        if result.section_norm_value > bound:
            problems.append(f"prop1 {alpha}: norm {result.section_norm_value} > {bound}")
    est = next(results)
    if est is not None:
        squares = [t * t for t in inputs["est_ts"]]
        if _rel(est[0], min(squares)) > EST_RTOL or _rel(est[1], max(squares)) > EST_RTOL:
            problems.append(f"est_ratio_check at c=1: {est}, expected t^2 range")
    for family in inputs["family_args"]:
        fam = next(results)
        if fam is None:
            continue
        coeffs = fam["coeffs"]
        true_norm = _fsum_norm(coeffs, fam_alpha)
        if family == "geometric" and abs(true_norm - 1.0) > FAMILY_TOL:
            problems.append(f"geometric family norm {true_norm!r}")
        if family == "counterexample" and true_norm > 1.0 + FAMILY_TOL:
            problems.append(f"counterexample family norm {true_norm!r} > 1")
        if _rel(fam["norm"], true_norm) > FAMILY_TOL:
            problems.append(f"{family}: norm() {fam['norm']!r}, fsum {true_norm!r}")
        # Lebesgue measure has moments 1/(n+1).
        image = np.cumsum(coeffs) / np.arange(1.0, len(coeffs) + 1.0)
        if np.max(np.abs(fam["image"] - image) / image) > APPLY_RTOL:
            problems.append(f"{family}: apply() differs from the prefix sums")
        if _rel(fam["image_norm"], _fsum_norm(image, fam_alpha)) > 1e-9:
            problems.append(f"{family}: norm() of the image {fam['image_norm']!r}")
        if fam["image_norm"] > classical_cap * fam["norm"] * (1 + 1e-12):
            problems.append(f"{family}: image norm above the classical bound")
    if next(results, "end") != "end":
        problems.append("more outputs than operations")
    return problems
