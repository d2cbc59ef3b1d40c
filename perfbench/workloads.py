"""Inputs and rounds of the three benchmark workloads.

Importing this module imports the program (numpy, scipy and cesarobench).
The set-up probe times that import plus `setup()`, so nothing here may do
other work at import time.

A round is a fixed list of operations.  Each operation is a call into the
program; a round's outputs are raw program results, checked later by
`oracle.check` outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cesarobench import analysis, cli, measures, operators, spaces

NAMES = ("verify_panel", "norm_profile_large", "paper_checks")

# verify_panel: the default panel's eight measures at one pair.  A round at
# all five pairs takes about 63 s on two cores; one pair keeps a round near
# 15 s.  (0.5, 1.5) has the deepest critical transient of the norm engine.
VERIFY_PAIRS = ((0.5, 1.5),)

# norm_profile_large: (1, 1) is the classical pair, where Lebesgue measure
# is exactly critical; (1.5, 0.5) is a pair where its section norms grow.
PROFILE_PAIRS = ((1.0, 1.0), (1.5, 0.5))
PROFILE_MEASURES = ("lebesgue", "powlaw_near", "mix_atom_crit")
# Every size is above DENSE_SVD_LIMIT (512), so only power iteration runs.
PROFILE_SIZES = tuple(1 << k for k in range(10, 18))

MOMENT_N_MAX = 1 << 20
BY_PARTS_NS = tuple(range(1, 65))
PROP1_N = 4096
EST_N_MAX = 60000
EST_POINTS = 10
FAMILY_SIZE = 4096

# ---------------------------------------------------------------------------
# Measure expressions, read and written by the benchmark itself
# ---------------------------------------------------------------------------

_NUM = r"\s*([^,()\s]+)\s*"
_TERM = re.compile(
    r"\s*(?:atom\(" + _NUM + r"," + _NUM + r"\)"
    r"|powlaw\(\s*c\s*=" + _NUM + r",\s*gamma\s*=" + _NUM + r",\s*delta\s*=" + _NUM + r"\)"
    r"|(lebesgue))\s*(?:\+|$)"
)
_PLACEHOLDER = re.compile(r"\{s(?:([+-])([0-9.]+))?\}")


def parse_expr(text: str) -> tuple[tuple, tuple]:
    """(atoms, densities) of a measure expression, without the program."""
    atoms, densities = [], []
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"cannot read measure expression {text!r} at {pos}")
        t0, mass, c, gamma, delta, leb = match.groups()
        if leb:
            densities.append((1.0, 0.0, 0.0))
        elif t0 is not None:
            atoms.append((float(t0), float(mass)))
        else:
            densities.append((float(c), float(gamma), float(delta)))
        pos = match.end()
    return tuple(atoms), tuple(densities)


def format_expr(mix: tuple[tuple, tuple]) -> str:
    atoms, densities = mix
    parts = [f"atom({t0!r},{mass!r})" for t0, mass in atoms]
    parts += [f"powlaw(c={c!r},gamma={g!r},delta={d!r})" for c, g, d in densities]
    return " + ".join(parts)


def resolve_template(template: str, s: float) -> str:
    """Fill the panel's {s}, {s-0.5}, {s+0.25} placeholders."""

    def repl(match: re.Match) -> str:
        sign, offset = match.groups()
        if sign is None:
            return repr(s)
        return repr(s + float(offset) if sign == "+" else s - float(offset))

    return _PLACEHOLDER.sub(repl, template)


def critical_exponent(alpha: float, beta: float) -> float:
    return 1.0 + (alpha - beta) / 2.0


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation: `weight` counted operations made by one call."""

    name: str
    weight: int
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict
    # Reads what a round left on disk, after its timed region.
    collect: Callable[[list], list] = lambda outputs: outputs

    @property
    def ops_per_round(self) -> int:
        return sum(op.weight for op in self.ops)


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """cesarobench's command line in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def panel_config_path(out_dir: Path) -> Path:
    return out_dir / "verify_panel" / "panel.ini"


def prepare(name: str, out_dir: Path) -> None:
    """Write the input files a workload reads (verify_panel's config)."""
    if name == "verify_panel":
        path = panel_config_path(out_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        pairs = "; ".join(f"{a!r},{b!r}" for a, b in VERIFY_PAIRS)
        path.write_text(f"[panel]\npairs = {pairs}\n", encoding="utf-8")


def setup(name: str, seed: int, out_dir: Path) -> Workload:
    """Config parsing and panel building for one workload."""
    if name == "verify_panel":
        return _setup_verify(out_dir)
    if name == "norm_profile_large":
        return _setup_profiles(seed)
    if name == "paper_checks":
        return _setup_paper(seed)
    raise ValueError(f"unknown workload {name!r}")


def _setup_verify(out_dir: Path) -> Workload:
    # The panel is the program's own default panel, so the inputs do not
    # depend on the seed; this is what lets report.json be compared byte
    # for byte across the runs of a set.
    config_path = panel_config_path(out_dir)
    config = cli.load_config(str(config_path))
    entries = cli.build_panel(config)
    report_dir = config_path.parent / "reports"
    argv = ["verify", "--config", str(config_path), "--out", str(report_dir)]
    ops = [Op("verify", len(entries), lambda: _quiet_main(argv))]
    inputs = {
        "names": sorted({name for name, *_ in entries}),
        "pairs": config.pairs,
        "templates": dict(config.measures),
        "report_dir": report_dir,
    }
    report = report_dir / "report.json"

    def collect(outputs):
        return [None if out is None else (out, report.read_bytes()) for out in outputs]

    return Workload("verify_panel", ops, inputs, collect)


def _setup_profiles(seed: int) -> Workload:
    rng = random.Random(seed)
    templates = dict(cli.DEFAULT_MEASURES)
    sizes = ",".join(str(n) for n in PROFILE_SIZES)
    profiles = []
    for name in PROFILE_MEASURES:
        # Lebesgue measure stays the classical operator; the others get a
        # seed-drawn weight, which scales their norms and leaves the work
        # per section unchanged.
        weight = 1.0 if name == "lebesgue" else rng.uniform(0.5, 2.0)
        for alpha, beta in PROFILE_PAIRS:
            atoms, densities = parse_expr(
                resolve_template(templates[name], critical_exponent(alpha, beta))
            )
            mix = (
                tuple((t0, mass * weight) for t0, mass in atoms),
                tuple((c * weight, g, d) for c, g, d in densities),
            )
            profiles.append((name, format_expr(mix), alpha, beta))
    rng.shuffle(profiles)
    ops = [
        Op(
            f"norm-growth {name} ({alpha}, {beta})",
            len(PROFILE_SIZES),
            lambda expr=expr, alpha=alpha, beta=beta: _quiet_main(
                ["norm-growth", "--measure", expr, "--alpha", repr(alpha),
                 "--beta", repr(beta), "--sizes", sizes, "--format", "json"]
            ),
        )
        for name, expr, alpha, beta in profiles
    ]
    return Workload("norm_profile_large", ops, {"profiles": profiles})


def _setup_paper(seed: int) -> Workload:
    rng = random.Random(seed)
    panel = cli.build_panel(cli.default_config())
    distinct = sorted({measures.format_measure(m): m for _, m, _, _ in panel}.items())
    prop1_alphas = sorted(round(rng.uniform(0.25, 1.75), 6) for _ in range(5))
    # n_max >= 50/(1-t) for every t keeps est_ratio_check's series tail
    # below 1e-12 relative.
    t_max = 1.0 - 50.0 / EST_N_MAX
    est_ts = sorted(rng.uniform(0.05, t_max) for _ in range(EST_POINTS))
    fam_alpha = round(rng.uniform(0.25, 1.75), 6)
    family_args = {
        "geometric": rng.uniform(0.5, 0.99),
        "counterexample": rng.uniform(0.05, 0.95) * fam_alpha,
        "weak_null": rng.uniform(0.5, 0.99),
    }

    ops = []
    for expr, m in distinct:
        ops.append(Op(
            f"moments {expr}", 1,
            lambda expr=expr: _quiet_main(
                ["moments", "--measure", expr, "--n-max", str(MOMENT_N_MAX),
                 "--format", "json"]
            ),
        ))
        ops.append(Op(
            f"moment_by_parts {expr}", 1,
            lambda m=m: [measures.moment_by_parts(m, n) for n in BY_PARTS_NS],
        ))
    for alpha in prop1_alphas:
        ops.append(Op(
            f"prop1_bound_check {alpha}", 1,
            lambda alpha=alpha: analysis.prop1_bound_check(alpha, PROP1_N),
        ))
    ops.append(Op(
        "est_ratio_check", 1,
        lambda: analysis.est_ratio_check(1.0, est_ts, EST_N_MAX),
    ))
    space = spaces.SpaceIndex(fam_alpha)
    lebesgue = measures.parse_measure("lebesgue")
    builders = {
        "geometric": lambda b: spaces.truncated_geometric_family(space, b, FAMILY_SIZE - 1),
        "counterexample": lambda eps: spaces.counterexample_family(space, eps, FAMILY_SIZE),
        "weak_null": lambda b: spaces.weak_null_family(space, b, FAMILY_SIZE),
    }
    for family, arg in family_args.items():
        ops.append(Op(
            f"family {family}", 1,
            lambda build=builders[family], arg=arg: _family(build(arg), space, lebesgue),
        ))
    inputs = {
        "measures": [expr for expr, _ in distinct],
        "prop1_alphas": prop1_alphas,
        "est_ts": est_ts,
        "family_alpha": fam_alpha,
        "family_args": family_args,
    }
    return Workload("paper_checks", ops, inputs)


def _family(f, space, lebesgue) -> dict:
    """A test family through the classical operator: apply, then norm."""
    op = operators.SectionOp(lebesgue, space, space, len(f))
    image = operators.apply(op, f)
    return {
        "coeffs": f.coeffs,
        "norm": spaces.norm(f, space),
        "image": image.coeffs,
        "image_norm": spaces.norm(image, space),
    }
