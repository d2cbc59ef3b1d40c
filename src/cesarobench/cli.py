"""Command-line front end for the moment, norm-growth, and verdict engines.

Subcommands:

  moments      dyadic moment table for one measure, with the integration
               by-parts cross-check column,
  norm-growth  section-norm profile for one measure and space pair,
  verify       the full equivalence panel from a config file (or the
               built-in default panel), written as report.json/report.csv.

moments and norm-growth each build their rows once and write them through
one table writer: --format csv gives a header line and one line per row,
--format json the command's inputs plus a "rows" list of objects.

Exit codes: 0 success, 1 falsification (some panel entry's engines
disagree), 2 usage or config errors.  All output is deterministic:
repeated runs on the same inputs on one machine produce byte-identical
files.  Across CPUs the last bits may differ, because numpy's vectorized
np.power, which gives the atom moments, is not correctly rounded on
every SIMD path (see the README).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    NORM_SIZES,
    carleson_exponent,
    evaluate_panel,
    reports_to_csv,
    reports_to_json,
)
from .measures import (
    BY_PARTS_N_MAX,
    dyadic_grid,
    moment_by_parts,
    moments_at,
    parse_measure,
)
from .operators import TOL, norm_growth_profile
from .spaces import SpaceIndex

__all__ = [
    "PanelConfig",
    "ConfigError",
    "default_config",
    "load_config",
    "substitute_exponent",
    "build_panel",
    "cmd_moments",
    "cmd_norm_growth",
    "cmd_verify",
    "main",
]


class ConfigError(Exception):
    """Malformed panel configuration (reported on stderr, exit code 2)."""


DEFAULT_PAIRS = ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5), (1.2, 0.8), (0.8, 1.2))

# Canonical panel: expressions may reference the pair's critical exponent
# through {s}, {s-0.5}, {s+0.25} placeholders resolved per pair.
DEFAULT_MEASURES = (
    ("atom_edge", "atom(0.9,1.0)"),
    ("atom_half", "atom(0.5,1.0)"),
    ("lebesgue", "lebesgue"),
    ("mix_atom_crit", "atom(0.5,0.5) + powlaw(c=1.0, gamma={s-1}, delta=0.0)"),
    ("mix_atom_sub", "atom(0.9,0.25) + powlaw(c=0.5, gamma={s-0.5}, delta=1.0)"),
    ("powlaw_crit", "powlaw(c=1.0, gamma={s-1}, delta=0.0)"),
    ("powlaw_near", "powlaw(c=1.0, gamma={s-0.75}, delta=0.0)"),
    ("powlaw_sub", "powlaw(c=1.0, gamma={s-0.5}, delta=0.0)"),
)

@dataclass(frozen=True)
class PanelConfig:
    """Named measure templates, space pairs, and the engines' budgets.

    Only emptiness and repeats are checked here: the pair range by
    carleson_exponent in build_panel, sizes by the norm engine and tol by
    section_norm.
    """

    measures: tuple[tuple[str, str], ...] = DEFAULT_MEASURES
    pairs: tuple[tuple[float, float], ...] = DEFAULT_PAIRS
    sizes: tuple[int, ...] = NORM_SIZES
    tol: float = TOL

    def __post_init__(self) -> None:
        if not self.measures:
            raise ConfigError("no measures configured")
        if not self.pairs:
            raise ConfigError("no space pairs configured")
        names = [name for name, _ in self.measures]
        for what, items in (("measure names", names), ("space pairs", self.pairs)):
            repeated = [x for i, x in enumerate(items) if x in items[:i]]
            if repeated:
                raise ConfigError(f"duplicate {what}: {repeated}")


def default_config() -> PanelConfig:
    return PanelConfig()


_PANEL_KEYS = ("pairs", "sizes", "tol")


def load_config(path: str) -> PanelConfig:
    """Read a panel config: INI text with [panel] and [measures] sections,
    and no others, [DEFAULT] included.

    [panel] keys (all optional, no others, case ignored): pairs as
    semicolon-separated alpha,beta; sizes as comma-separated integers; tol
    a scalar.  sizes and tol become PanelConfig.sizes and .tol and are
    checked only by the engines that use them.  [measures] maps entry
    names, case kept, to measure expressions, which may use {s...}
    placeholders.  Omitted parts fall back to the default panel.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # entry names keep their case
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    unknown = set(parser.sections()) - {"panel", "measures"}
    if parser.defaults():
        unknown.add(parser.default_section)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    kwargs: dict = {}
    if parser.has_section("panel"):
        panel = {key.lower(): value for key, value in parser["panel"].items()}
        bad = set(panel) - set(_PANEL_KEYS)
        if bad:
            raise ConfigError(f"unknown [panel] keys: {sorted(bad)}")
        if len(panel) < len(parser["panel"]):
            raise ConfigError(f"repeated [panel] keys: {sorted(parser['panel'])}")
        try:
            if "pairs" in panel:
                pairs = []
                for chunk in panel["pairs"].split(";"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    a, b = (float(x) for x in chunk.split(","))
                    pairs.append((a, b))
                kwargs["pairs"] = tuple(pairs)
            if "sizes" in panel:
                kwargs["sizes"] = _parse_sizes(panel["sizes"])
            if "tol" in panel:
                kwargs["tol"] = float(panel["tol"])
        except ValueError as exc:
            raise ConfigError(f"malformed [panel] value: {exc}") from exc
    if parser.has_section("measures"):
        kwargs["measures"] = tuple(sorted(parser["measures"].items()))
    return PanelConfig(**kwargs)


_PLACEHOLDER = re.compile(
    r"\{s(?:(?P<sign>[+-])(?P<off>[0-9]+(?:\.[0-9]+)?))?\}"
)


def substitute_exponent(template: str, s: float) -> str:
    """Resolve {s}, {s-0.5}, {s+1} placeholders to the pair's exponent."""

    def repl(match: re.Match) -> str:
        value = s
        if match.group("sign"):
            offset = float(match.group("off"))
            value = s + offset if match.group("sign") == "+" else s - offset
        return repr(value)

    out = _PLACEHOLDER.sub(repl, template)
    if "{" in out or "}" in out:
        raise ConfigError(f"unresolved placeholder in measure template {template!r}")
    return out


def build_panel(config: PanelConfig) -> list:
    """(name, measure, alpha, beta) entries, one per measure/pair combo."""
    entries = []
    for name, template in config.measures:
        for alpha, beta in config.pairs:
            try:
                s = carleson_exponent(alpha, beta)
                m = parse_measure(substitute_exponent(template, s))
            except ValueError as exc:
                raise ConfigError(
                    f"measure {name!r} at pair ({alpha}, {beta}): {exc}"
                ) from exc
            entries.append((name, m, alpha, beta))
    return entries


def _write_table(out: str | None, fmt: str, head: dict, columns, rows) -> None:
    """Write rows under columns to out (stdout when None).

    csv is a header line of columns, then one line per row; json is head
    plus "rows", each row an object keyed by columns.  Floats are written
    in repr form, so every value reads back exactly.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        doc = {**head, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_moments(expr: str, n_max: int, out: str | None, fmt: str = "csv") -> int:
    """Dyadic moment table with the by-parts cross-check column.

    Past measures.BY_PARTS_N_MAX the by-parts route carries no accuracy, so
    its two cells are left empty in csv and null in json.
    """
    m = parse_measure(expr)
    grid = dyadic_grid(n_max)
    rows = []
    for n, direct in zip(grid, moments_at(m, grid).tolist()):
        if n > BY_PARTS_N_MAX:
            rows.append((n, direct, None, None))
            continue
        by_parts = moment_by_parts(m, n)
        rows.append((n, direct, by_parts, abs(direct - by_parts)))
    columns = ("n", "moment", "moment_by_parts", "abs_diff")
    _write_table(out, fmt, {"measure": expr}, columns, rows)
    return 0


def cmd_norm_growth(
    expr: str,
    alpha: float,
    beta: float,
    sizes,
    tol: float = TOL,
    out: str | None = None,
    fmt: str = "csv",
) -> int:
    """Section-norm profile over the given sizes."""
    m = parse_measure(expr)
    profile = norm_growth_profile(m, SpaceIndex(alpha), SpaceIndex(beta), sizes, tol=tol)
    rows = [
        (n, est.value, est.method, est.iterations, est.residual) for n, est in profile
    ]
    columns = ("N", "norm", "method", "iterations", "residual")
    head = {"measure": expr, "alpha": alpha, "beta": beta}
    _write_table(out, fmt, head, columns, rows)
    return 0


def cmd_verify(config_path: str | None, out_dir: str) -> int:
    """Run the equivalence panel and write report.json / report.csv."""
    config = default_config() if config_path is None else load_config(config_path)
    named = evaluate_panel(build_panel(config), config.sizes, config.tol)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "report.json").write_text(reports_to_json(named), encoding="utf-8")
    (out_path / "report.csv").write_text(reports_to_csv(named), encoding="utf-8")

    failures = 0
    for name, rep in named:
        verdict_summary = " ".join(
            f"{engine}={rep.verdicts[engine].kind}" for engine in sorted(rep.verdicts)
        )
        mark = "OK" if rep.ok else "DISAGREE"
        if not rep.ok:
            failures += 1
        line = f"{mark} {name} ({rep.alpha},{rep.beta}) s={rep.s}: {verdict_summary}"
        if rep.warnings:
            line += " [" + "; ".join(rep.warnings) + "]"
        print(line)
    print(
        f"panel: {len(named)} entries, "
        + ("all agree" if failures == 0 else f"{failures} disagreements")
    )
    return 0 if failures == 0 else 1


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"malformed sizes value {text!r}") from exc


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesarobench",
        description="Numerical workbench for measure-induced averaging "
        "operators between coefficient-weighted spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_m = sub.add_parser("moments", help="dyadic moment table with cross-check")
    p_m.add_argument("--measure", required=True, help="measure expression")
    p_m.add_argument("--n-max", type=int, default=4096, dest="n_max")
    p_m.add_argument("--out", default=None, help="output file (default stdout)")
    p_m.add_argument("--format", choices=("csv", "json"), default="csv")

    p_n = sub.add_parser("norm-growth", help="section-norm profile")
    p_n.add_argument("--measure", required=True, help="measure expression")
    p_n.add_argument("--alpha", type=float, required=True)
    p_n.add_argument("--beta", type=float, required=True)
    p_n.add_argument(
        "--sizes",
        default="64,128,256,512,1024,2048,4096",
        help="comma-separated strictly increasing section sizes",
    )
    p_n.add_argument("--tol", type=float, default=TOL)
    p_n.add_argument("--out", default=None, help="output file (default stdout)")
    p_n.add_argument("--format", choices=("csv", "json"), default="csv")

    p_v = sub.add_parser("verify", help="equivalence panel with reports")
    p_v.add_argument("--config", default=None, help="panel config file (INI)")
    p_v.add_argument("--out", default=".", help="report directory (default .)")
    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser main reuses: parse_args starts every call from the
    defaults, so nothing one call reads carries over to the next."""
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        if args.command == "moments":
            return cmd_moments(args.measure, args.n_max, args.out, args.format)
        if args.command == "norm-growth":
            return cmd_norm_growth(
                args.measure,
                args.alpha,
                args.beta,
                _parse_sizes(args.sizes),
                args.tol,
                args.out,
                args.format,
            )
        return cmd_verify(args.config, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
