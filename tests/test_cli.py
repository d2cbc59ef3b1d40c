"""Command-line surface tests: parsing, templating, files, exit codes."""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cesarobench
from cesarobench.cli import (
    ConfigError,
    DEFAULT_MEASURES,
    DEFAULT_PAIRS,
    PanelConfig,
    _PANEL_KEYS,
    build_panel,
    default_config,
    load_config,
    main,
    substitute_exponent,
)
from cesarobench.measures import parse_measure
from cesarobench.operators import norm_growth_profile
from cesarobench.spaces import SpaceIndex


# Measures that must exit 2: an infinite literal, and finite literals whose
# total mass overflows.  Each with the text its error line must contain.
NONFINITE_MEASURES = [
    ("atom(0.5,1e999)", "1e999"),
    ("atom(0.5,1e308) + atom(0.6,1e308)", "total mass must be finite"),
    ("powlaw(c=1e300,gamma=-0.99999999999,delta=0)", "total mass must be finite"),
]

# A finite measure whose total mass fits but whose tail ratios at s = 1.5
# and section norms at (1.5, 0.5) do not.
OVERFLOWING_MEASURE = "powlaw(c=1e307, gamma=0.0, delta=0.0)"


class TestSubstituteExponent:
    def test_bare_placeholder(self) -> None:
        assert substitute_exponent("powlaw(c=1.0, gamma={s}, delta=0.0)", 1.5) == (
            "powlaw(c=1.0, gamma=1.5, delta=0.0)"
        )

    def test_offsets(self) -> None:
        assert substitute_exponent("{s-1}", 1.5) == "0.5"
        assert substitute_exponent("{s+0.25}", 0.5) == "0.75"
        assert substitute_exponent("{s-0.75}", 1.0) == "0.25"

    def test_multiple_occurrences(self) -> None:
        assert substitute_exponent("atom({s},{s})", 0.5) == "atom(0.5,0.5)"

    def test_plain_text_passthrough(self) -> None:
        assert substitute_exponent("lebesgue", 1.0) == "lebesgue"

    def test_unresolved_braces_rejected(self) -> None:
        with pytest.raises(ConfigError, match="unresolved"):
            substitute_exponent("powlaw(c={c}, gamma=0.0, delta=0.0)", 1.0)


class TestPanelConfig:
    def test_default_is_valid_and_canonical(self) -> None:
        config = default_config()
        assert len(config.measures) == 8
        assert len(config.pairs) == 5
        assert config.pairs == DEFAULT_PAIRS

    def test_bad_pair_named_in_error(self) -> None:
        config = PanelConfig(pairs=((1.0, 1.0), (2.5, 1.0)))
        with pytest.raises(ConfigError, match=r"\(2\.5, 1\.0\)"):
            build_panel(config)

    def test_empty_measures(self) -> None:
        with pytest.raises(ConfigError, match="measures"):
            PanelConfig(measures=())


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text(
            "[panel]\n"
            "pairs = 1.0,1.0; 1.5,0.5\n"
            "sizes = 64,128,256\n"
            "tol = 1e-8\n"
            "[measures]\n"
            "leb = lebesgue\n"
            "crit = powlaw(c=1.0, gamma={s-1}, delta=0.0)\n",
            encoding="utf-8",
        )
        config = load_config(str(path))
        assert config.pairs == ((1.0, 1.0), (1.5, 0.5))
        assert config.equivalence.sizes == (64, 128, 256)
        assert config.equivalence.tol == 1e-8
        assert config.measures == (
            ("crit", "powlaw(c=1.0, gamma={s-1}, delta=0.0)"),
            ("leb", "lebesgue"),
        )

    def test_partial_config_keeps_defaults(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text("[measures]\nleb = lebesgue\n", encoding="utf-8")
        config = load_config(str(path))
        assert config.measures == (("leb", "lebesgue"),)
        assert config.pairs == DEFAULT_PAIRS
        assert config.equivalence == default_config().equivalence

    def test_unknown_section_rejected(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text("[extras]\nx = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="extras"):
            load_config(str(path))

    # The tail and moment grids are fixed (analysis.CARLESON_GRID and
    # MOMENT_GRID), so grid_depth and n_max are unknown keys like any other.
    @pytest.mark.parametrize("key", ["seed", "grid_depth", "n_max"])
    def test_unknown_panel_key_rejected(self, tmp_path, key) -> None:
        path = tmp_path / "panel.ini"
        path.write_text(f"[panel]\n{key} = 7\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"unknown \[panel\] keys: \['{key}'\]"):
            load_config(str(path))

    def test_malformed_pairs_rejected(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text("[panel]\npairs = 1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


class TestReadmeConfig:
    """The README's panel config example stays a working config."""

    @staticmethod
    def _example() -> str:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(
            r"^```ini\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.M | re.S
        )
        assert len(blocks) == 1
        return blocks[0]

    def test_example_loads_and_builds(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text(self._example(), encoding="utf-8")
        config = load_config(str(path))
        assert len(build_panel(config)) == len(config.measures) * len(config.pairs)

    def test_example_sets_every_panel_key(self) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(self._example())
        assert sorted(parser["panel"]) == sorted(_PANEL_KEYS)


class TestBuildPanel:
    def test_default_panel_shape(self) -> None:
        entries = build_panel(default_config())
        assert len(entries) == len(DEFAULT_MEASURES) * len(DEFAULT_PAIRS)
        names = {name for name, _, _, _ in entries}
        assert names == {name for name, _ in DEFAULT_MEASURES}

    def test_template_resolved_per_pair(self) -> None:
        config = PanelConfig(
            measures=(("crit", "powlaw(c=1.0, gamma={s-1}, delta=0.0)"),),
            pairs=((0.5, 1.5), (1.5, 0.5)),
        )
        entries = build_panel(config)
        gammas = {m.densities[0][1] for _, m, _, _ in entries}
        assert gammas == {-0.5, 0.5}

    def test_bad_template_names_measure(self) -> None:
        config = PanelConfig(measures=(("broken", "atom({s} 1.0)"),))
        with pytest.raises(ConfigError, match="broken"):
            build_panel(config)


class TestCmdMoments:
    def test_lebesgue_table(self, capsys) -> None:
        assert main(["moments", "--measure", "lebesgue", "--n-max", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,moment,moment_by_parts,abs_diff"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 8]
        for r in rows:
            n = int(r[0])
            assert float(r[1]) == pytest.approx(1.0 / (n + 1), rel=1e-12)
            assert float(r[3]) < 1e-7

    def test_atom_moment_column(self, capsys) -> None:
        assert main(["moments", "--measure", "atom(0.5,1.0)", "--n-max", "16"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            n = int(cells[0])
            assert float(cells[1]) == pytest.approx(2.0**-n, rel=1e-12)

    def test_json_format(self, tmp_path) -> None:
        out = tmp_path / "moments.json"
        rc = main(
            [
                "moments",
                "--measure",
                "lebesgue",
                "--n-max",
                "4",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [row["n"] for row in doc["rows"]] == [1, 2, 4]
        assert all(row["abs_diff"] < 1e-7 for row in doc["rows"])

    def test_parse_error_exit_2(self, capsys) -> None:
        assert main(["moments", "--measure", "atom(0.5 1.0)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_n_max_past_double_range_exit_2(self, capsys) -> None:
        # Powers of two above the double range cannot be moment indices.
        assert main(["moments", "--measure", "lebesgue", "--n-max", str(10**309)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_max" in err

    def test_by_parts_cells_empty_past_its_accuracy_limit(self, tmp_path, capsys) -> None:
        # Past n = 2^32 the by-parts route drifts (2.1e-5 relative at 2^40),
        # so its cells are empty in csv and null in json.
        expr = "atom(0.5,1)+lebesgue"
        args = ["moments", "--measure", expr, "--n-max", str(1 << 40)]
        assert main(args) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [1 << k for k in range(41)]
        for r in rows:
            if int(r[0]) > 1 << 32:
                assert r[1] and r[2:] == ["", ""], r
            else:
                assert float(r[2]) == pytest.approx(float(r[1]), rel=1e-7), r
        out = tmp_path / "moments.json"
        assert main(args + ["--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        late = [row for row in doc["rows"] if row["n"] > 1 << 32]
        assert len(late) == 8
        assert all(row["moment_by_parts"] is None and row["abs_diff"] is None for row in late)
        assert all(row["moment"] > 0 for row in late)
        # The rows up to 2^32 are those of a table that stops there.
        short = tmp_path / "short.json"
        assert main(args[:-1] + [str(1 << 32), "--out", str(short), "--format", "json"]) == 0
        assert doc["rows"][:33] == json.loads(short.read_text(encoding="utf-8"))["rows"]

    def test_byte_identical_reruns(self, tmp_path) -> None:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["moments", "--measure", "atom(0.3,0.7) + lebesgue", "--n-max", "64"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCmdNormGrowth:
    def test_classical_bound(self, capsys) -> None:
        rc = main(
            [
                "norm-growth",
                "--measure",
                "lebesgue",
                "--alpha",
                "1.0",
                "--beta",
                "1.0",
                "--sizes",
                "64,128,256",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,norm,method,iterations,residual"
        norms = [float(line.split(",")[1]) for line in lines[1:]]
        assert norms[-1] <= math.sqrt(6.0) + 1e-9
        assert norms == sorted(norms)

    def test_growth_column_strictly_increasing(self, capsys) -> None:
        rc = main(
            [
                "norm-growth",
                "--measure",
                "lebesgue",
                "--alpha",
                "1.5",
                "--beta",
                "0.5",
                "--sizes",
                "64,256,1024",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        norms = [float(line.split(",")[1]) for line in lines]
        assert norms[0] < norms[1] < norms[2]

    def test_atom_plateau(self, capsys) -> None:
        rc = main(
            [
                "norm-growth",
                "--measure",
                "atom(0.5,1.0)",
                "--alpha",
                "1.0",
                "--beta",
                "1.0",
                "--sizes",
                "64,128,256",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        norms = [float(line.split(",")[1]) for line in lines]
        assert norms[-1] - norms[0] < 1e-9

    def test_huge_mass_stays_finite(self, capsys) -> None:
        # The norm is linear in the measure; a mass near the float limit
        # must scale the unit-mass norms, not overflow them to inf.
        def norms(mass: str) -> list[float]:
            argv = ["norm-growth", "--measure", f"atom(0.5,{mass})",
                    "--alpha", "1", "--beta", "1", "--sizes", "16,32"]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            return [float(line.split(",")[1]) for line in lines]

        huge, unit = norms("1e300"), norms("1")
        assert all(math.isfinite(v) for v in huge)
        for h, u in zip(huge, unit):
            assert h == pytest.approx(1e300 * u, rel=1e-8)

    def test_json_format(self, tmp_path) -> None:
        out = tmp_path / "profile.json"
        rc = main(
            [
                "norm-growth",
                "--measure",
                "lebesgue",
                "--alpha",
                "1.0",
                "--beta",
                "1.0",
                "--sizes",
                "16,32",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [row["N"] for row in doc["rows"]] == [16, 32]
        assert doc["rows"][0]["method"] == "power_iteration"

    def test_csv_matches_profile(self, capsys) -> None:
        rc = main(
            ["norm-growth", "--measure", "atom(0.5,0.5) + lebesgue",
             "--alpha", "0.5", "--beta", "1.5", "--sizes", "8,16,64"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,norm,method,iterations,residual"
        profile = norm_growth_profile(
            parse_measure("atom(0.5,0.5) + lebesgue"),
            SpaceIndex(0.5), SpaceIndex(1.5), [8, 16, 64],
        )
        assert len(lines) == 1 + len(profile)
        for line, (n, est) in zip(lines[1:], profile):
            size, norm, method, iterations, residual = line.split(",")
            assert int(size) == n
            assert float(norm) == est.value
            assert method == est.method
            assert int(iterations) == est.iterations
            assert float(residual) == est.residual

    def test_python_dash_m_entry_point(self) -> None:
        src = str(Path(cesarobench.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "cesarobench", "norm-growth", "--measure",
             "lebesgue", "--alpha", "1", "--beta", "1", "--sizes", "8,16"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("N,norm,method,iterations,residual\n")

    @staticmethod
    def _error_exit(capsys, *flags: str) -> str:
        assert main(["norm-growth", "--measure", "lebesgue", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        return err

    def test_bad_sizes_exit_2(self, capsys) -> None:
        self._error_exit(capsys, "--alpha", "1.0", "--beta", "1.0", "--sizes", "64,xyz")

    def test_bad_alpha_exit_2(self, capsys) -> None:
        self._error_exit(capsys, "--alpha", "nan", "--beta", "1.0")

    def test_nonfinite_measure_exit_2(self, capsys) -> None:
        for expr, needle in NONFINITE_MEASURES:
            argv = ["norm-growth", "--measure", expr,
                    "--alpha", "1.0", "--beta", "1.0", "--sizes", "16,32"]
            assert main(argv) == 2, expr
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert needle in captured.err
            assert captured.out == ""

    def test_overflowing_norm_exit_2(self, capsys) -> None:
        # The second measure's total mass fits, but its row weight
        # (n+1)^0.45 mu_n does not.
        for measure, alpha, beta, sizes in [
            (OVERFLOWING_MEASURE, "1.5", "0.5", "64,1024"),
            ("atom(0.99999,1.7e308)", "1", "0.1", "16,32"),
        ]:
            argv = ["norm-growth", "--measure", measure,
                    "--alpha", alpha, "--beta", beta, "--sizes", sizes]
            assert main(argv) == 2, measure
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert "double range" in captured.err
            assert captured.out == ""

    def test_nan_tol_exit_2(self, capsys) -> None:
        # NaN fails every comparison, so only an explicit finiteness check
        # keeps it from running every size to the iteration cap.
        err = self._error_exit(
            capsys, "--alpha", "1.0", "--beta", "1.0", "--sizes", "64,128", "--tol", "nan"
        )
        assert "tol" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--measure", "atom(0.3,0.7) + lebesgue", "--n-max", "64"],
        ["norm-growth", "--measure", "powlaw(c=1.0, gamma=-0.5, delta=0.0)",
         "--alpha", "1.5", "--beta", "0.5", "--sizes", "16,32,64"],
    ],
    ids=["moments", "norm-growth"],
)
def test_csv_and_json_tables_agree(tmp_path, argv) -> None:
    csv_path, json_path = tmp_path / "table.csv", tmp_path / "table.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--out", str(json_path), "--format", "json"]) == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        csv_rows = list(csv.DictReader(fh))
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert doc["measure"] == argv[2]
    assert len(csv_rows) == len(doc["rows"]) > 0
    for csv_row, json_row in zip(csv_rows, doc["rows"]):
        assert csv_row.keys() == json_row.keys()
        for key, value in json_row.items():
            if isinstance(value, str):
                assert csv_row[key] == value
            else:
                assert float(csv_row[key]) == value


SMALL_CONFIG = (
    "[panel]\n"
    "pairs = 1.0,1.0; 1.5,0.5\n"
    "sizes = 64,128,256,512,1024,2048,4096\n"
    "[measures]\n"
    "atom_half = atom(0.5,1.0)\n"
    "lebesgue = lebesgue\n"
)


class TestCmdVerify:
    def test_small_panel_reports_and_exit_0(self, tmp_path, capsys) -> None:
        config = tmp_path / "panel.ini"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "all agree" in stdout
        assert stdout.count("OK ") == 4
        doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert doc["all_agree"] is True
        assert len(doc["entries"]) == 4
        csv_lines = (out_dir / "report.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("name,measure,alpha,beta,s,engine")
        assert len(csv_lines) > 4

    def test_reports_byte_identical(self, tmp_path) -> None:
        config = tmp_path / "panel.ini"
        config.write_text(SMALL_CONFIG, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["verify", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

    def test_out_of_range_pair_exit_2(self, tmp_path, capsys) -> None:
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\npairs = 2.5,1.0\n[measures]\nleb = lebesgue\n",
            encoding="utf-8",
        )
        rc = main(["verify", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(2.5, 1.0)" in err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("sizes = 64,64", "sizes"),
            ("sizes = 64", "sizes"),
            ("sizes = 8,16", "sizes"),
            ("tol = 0", "tol"),
            ("tol = nan", "tol"),
        ],
        ids=["sizes", "sizes_one", "sizes_two", "tol_zero", "tol_nan"],
    )
    def test_bad_budget_exit_2(self, tmp_path, capsys, line, field) -> None:
        # Each budget is checked by its engine on the first panel entry,
        # before any report is written.
        config = tmp_path / "panel.ini"
        config.write_text(
            f"[panel]\npairs = 1.0,1.0\n{line}\n[measures]\nleb = lebesgue\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err
        assert not (out_dir / "report.json").exists()

    def test_nonfinite_measure_exit_2(self, tmp_path, capsys) -> None:
        # 1e999 parses to inf, and the finite literals of the other two sum
        # to an infinite total mass; unchecked, every engine would run on an
        # infinite measure and report overflowed evidence.
        config = tmp_path / "panel.ini"
        out_dir = tmp_path / "reports"
        for expr, needle in NONFINITE_MEASURES:
            config.write_text(
                f"[panel]\npairs = 1.0,1.0\n[measures]\nbig = {expr}\n",
                encoding="utf-8",
            )
            rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
            assert rc == 2, expr
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert needle in err
            assert not (out_dir / "report.json").exists()

    def test_huge_mass_panel_exit_0(self, tmp_path, capsys) -> None:
        # A finite mass near the float limit runs every engine without an
        # overflow (pytest turns the RuntimeWarning into an error).
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\npairs = 1.0,1.0\n[measures]\nbig = atom(0.5,1e300)\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 0
        assert "all agree" in capsys.readouterr().out

    def test_overflowing_ratios_exit_2(self, tmp_path, capsys) -> None:
        # The tail ratios overflow to inf at deep t; a slope fitted through
        # them would be NaN and read as bounded, a false verdict.
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\npairs = 1.5,0.5\nsizes = 64,128,256\n[measures]\n"
            f"big = {OVERFLOWING_MEASURE}\nleb = lebesgue\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "double range" in err
        # The error names the failing entry among the good ones.
        assert "'big'" in err and "(1.5, 0.5)" in err
        assert not (out_dir / "report.json").exists()

    def test_empty_measures_section_exit_2(self, tmp_path, capsys) -> None:
        config = tmp_path / "panel.ini"
        config.write_text("[panel]\npairs = 1.0,1.0\n[measures]\n", encoding="utf-8")
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "measures" in err
        assert not (out_dir / "report.json").exists()

    def test_missing_config_exit_2(self, tmp_path, capsys) -> None:
        rc = main(
            ["verify", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_falsified_engine_exit_1(self, tmp_path, capsys, monkeypatch) -> None:
        # Force one engine to contradict the others; the panel must fail
        # with exit code 1 and flag the disagreeing entries.
        import cesarobench.analysis as analysis
        from cesarobench.analysis import Verdict

        def stub(m, s):
            return Verdict("moments", "unbounded", ((1.0, 1.0),), 1.0, 0.0)

        monkeypatch.setattr(analysis, "classify_moments", stub)
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\n"
            "pairs = 1.0,1.0\n"
            "sizes = 64,128,256,512,1024\n"
            "[measures]\nlebesgue = lebesgue\n",
            encoding="utf-8",
        )
        rc = main(["verify", "--config", str(config), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "DISAGREE" in capsys.readouterr().out
