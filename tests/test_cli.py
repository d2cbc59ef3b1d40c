"""Command-line surface tests: parsing, templating, files, exit codes."""

from __future__ import annotations

import json
import math
import os
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
    build_panel,
    default_config,
    load_config,
    main,
    substitute_exponent,
)


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
            "grid_depth = 12\n"
            "n_max = 16384\n"
            "[measures]\n"
            "leb = lebesgue\n"
            "crit = powlaw(c=1.0, gamma={s-1}, delta=0.0)\n",
            encoding="utf-8",
        )
        config = load_config(str(path))
        assert config.pairs == ((1.0, 1.0), (1.5, 0.5))
        assert config.equivalence.sizes == (64, 128, 256)
        assert config.equivalence.tol == 1e-8
        assert config.equivalence.grid_depth == 12
        assert config.equivalence.n_max == 16384
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

    def test_unknown_panel_key_rejected(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text("[panel]\nseed = 7\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))

    def test_malformed_pairs_rejected(self, tmp_path) -> None:
        path = tmp_path / "panel.ini"
        path.write_text("[panel]\npairs = 1.0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


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
        argv = ["norm-growth", "--measure", "atom(0.5,1e999)",
                "--alpha", "1.0", "--beta", "1.0", "--sizes", "16,32"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "1e999" in captured.err
        assert captured.out == ""

    def test_nan_tol_exit_2(self, capsys) -> None:
        # NaN fails every comparison, so only an explicit finiteness check
        # keeps it from running every size to the iteration cap.
        err = self._error_exit(
            capsys, "--alpha", "1.0", "--beta", "1.0", "--sizes", "64,128", "--tol", "nan"
        )
        assert "tol" in err


SMALL_CONFIG = (
    "[panel]\n"
    "pairs = 1.0,1.0; 1.5,0.5\n"
    "sizes = 64,128,256,512,1024,2048,4096\n"
    "grid_depth = 12\n"
    "n_max = 16384\n"
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
            ("tol = 0", "tol"),
            ("tol = nan", "tol"),
            ("grid_depth = 4", "grid_depth"),
            ("n_max = 10", "n_max"),
        ],
        ids=["sizes", "tol_zero", "tol_nan", "grid_depth", "n_max"],
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
        # 1e999 parses to inf; unchecked, every engine would run on an
        # infinite atom and the panel would report a false DISAGREE.
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\npairs = 1.0,1.0\n[measures]\nbig = atom(0.5,1e999)\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "reports"
        rc = main(["verify", "--config", str(config), "--out", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1e999" in err
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

        def stub(m, s, n_max=1 << 20):
            return Verdict("moments", "unbounded", ((1.0, 1.0),), 1.0, 0.0)

        monkeypatch.setattr(analysis, "classify_moments", stub)
        config = tmp_path / "panel.ini"
        config.write_text(
            "[panel]\n"
            "pairs = 1.0,1.0\n"
            "sizes = 64,128,256,512,1024\n"
            "grid_depth = 12\n"
            "n_max = 16384\n"
            "[measures]\nlebesgue = lebesgue\n",
            encoding="utf-8",
        )
        rc = main(["verify", "--config", str(config), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "DISAGREE" in capsys.readouterr().out
