import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import spinsectors
from spinsectors import (cli, default_sample_count, max_spin_entropy_asymptotic,
                         max_spin_state_entropy, singlet_average_asymptotic)
from spinsectors.cli import main


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def body_without_walltime(path):
    header, rows = read_rows(path)
    return [tuple(v for k, v in row.items() if k != "wall_time_ms") for row in rows]


class TestDims:
    def test_triangle_values(self, tmp_path):
        out = tmp_path / "dims.csv"
        assert main(["dims", "--L", "4,6", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        by_key = {(r["L"], r["two_J"]): r for r in rows}
        assert by_key[("4", "0")]["n_exact"] == "2"
        assert by_key[("6", "2")]["n_exact"] == "9"
        assert by_key[("6", "6")]["n_exact"] == "1"
        # exact fraction column: n/D = 2/6 at L=4, J=0
        assert float(by_key[("4", "0")]["fraction"]) == pytest.approx(1 / 3)

    def test_all_is_default_expansion(self, tmp_path):
        out = tmp_path / "dims.csv"
        main(["dims", "--L", "5", "--out", str(out)])
        _, rows = read_rows(out)
        assert [r["two_J"] for r in rows] == ["1", "3", "5"]

    def test_stretched_row_has_no_asymptotic_fraction(self, tmp_path):
        # the asymptotic fraction refuses x = 2J/L = 1, and the row keeps its nan cell
        out = tmp_path / "dims.csv"
        main(["dims", "--L", "10", "--two-J", "10", "--out", str(out)])
        assert out.read_text() == ("species,L,two_J,n_exact,n_asymptotic_log,fraction,fraction_asymptotic\n"
                                   "half,10,10,1,nan,0.003968253968253968,nan\n")

    @pytest.mark.parametrize("spins", [[], ["--two-J", "0"]], ids=["all", "two-J"])
    def test_sizes_past_the_exact_bound_are_one_error_line(self, tmp_path, spins):
        # range and math.comb overflowed there, which printed "error: OverflowError: ..."
        out = tmp_path / "dims.csv"
        with pytest.raises(SystemExit, match=rf"^error: sites must be at most 2\*\*63 - 1, got {10**30}$"):
            main(["dims", "--L", str(10**30), "--out", str(out)] + spins)
        assert not out.exists()

    def test_spin_one_rows(self, tmp_path):
        out = tmp_path / "dims.csv"
        main(["dims", "--species", "one", "--L", "3", "--out", str(out)])
        _, rows = read_rows(out)
        assert [(r["two_J"], r["n_exact"]) for r in rows] == [
            ("0", "1"), ("2", "3"), ("4", "2"), ("6", "1"),
        ]


class TestBeta:
    def test_rate_column(self, tmp_path):
        out = tmp_path / "beta.csv"
        main(["beta", "--species", "half", "--j-list", "0,0.5,1", "--out", str(out)])
        _, rows = read_rows(out)
        assert float(rows[0]["beta"]) == pytest.approx(math.log(2), abs=1e-12)
        assert float(rows[1]["beta"]) == pytest.approx(0.562335, abs=1e-6)
        assert float(rows[2]["beta"]) == 0.0
        assert float(rows[1]["saddle_point"]) == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_spin_one_rate_stays_positive_next_to_one(self, tmp_path):
        # the character-polynomial route printed -0.0645 here
        out = tmp_path / "beta.csv"
        main(["beta", "--species", "one", "--j-list", "0.9999999999999999", "--out", str(out)])
        _, rows = read_rows(out)
        assert 0.0 < float(rows[0]["beta"]) < 1e-14


class TestAverage:
    def test_closed_form_row(self, tmp_path):
        out = tmp_path / "avg.csv"
        main(["average", "--method", "closed", "--L", "4", "--two-J", "0", "--f", "1/2",
              "--out", str(out)])
        _, rows = read_rows(out)
        assert float(rows[0]["mean"]) == pytest.approx(0.5 + math.log(3) / 2, abs=1e-12)
        assert rows[0]["std_dev"] == "nan"
        assert rows[0]["f"] == "1/2"

    def test_closed_row_beyond_float_range(self, tmp_path):
        # the J=0 sector of 2000 sites has ~1e598 states
        out = tmp_path / "avg.csv"
        main(["average", "--method", "closed", "--L", "2000", "--two-J", "0", "--out", str(out)])
        _, rows = read_rows(out)
        assert len(rows) == 1 and math.isfinite(float(rows[0]["mean"]))

    def test_closed_sd2_row_is_a_plain_number(self, tmp_path):
        # 0 < 2J < L rows come from sd2_average_closed; the CSV holds a float literal
        out = tmp_path / "avg.csv"
        main(["average", "--method", "closed", "--L", "16", "--two-J", "4", "--f", "5/16",
              "--out", str(out)])
        _, rows = read_rows(out)
        assert float(rows[0]["mean"]) == pytest.approx(2.8695834663775757, rel=1e-12)

    @pytest.mark.parametrize("sites", [4, 8, 16, 30, 128])
    def test_max_spin_rows_are_the_stretched_state(self, tmp_path, sites):
        # 2J = L rows come from sd2_average_closed and sd2_asymptotic, which at
        # J = L/2 give the stretched-state values bit for bit
        for f in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)):
            cut = round(f * sites)
            for method, want in (("closed", max_spin_state_entropy(sites, cut)),
                                 ("asymptotic", max_spin_entropy_asymptotic(sites, f))):
                out = tmp_path / f"{method}-{f.denominator}-{f.numerator}.csv"
                main(["average", "--method", method, "--L", str(sites), "--two-J", str(sites),
                      "--f", str(f), "--out", str(out)])
                _, rows = read_rows(out)
                assert rows[0]["mean"] == repr(want), (method, f)

    def test_odd_max_spin_closed_row_refused(self):
        # the geometry refuses odd L before any stretched-state code runs
        with pytest.raises(SystemExit,
                           match="^error: the spin-1/2 J_z=0 sector needs an even number of sites, got 7$"):
            main(["average", "--method", "closed", "--L", "7", "--two-J", "7"])

    def test_asymptotic_singlet_row(self, tmp_path):
        # 2J = 0 rows come from singlet_average_asymptotic, bit for bit
        out = tmp_path / "avg.csv"
        main(["average", "--method", "asymptotic", "--L", "12", "--two-J", "0", "--f", "1/4",
              "--out", str(out)])
        _, rows = read_rows(out)
        assert rows[0]["mean"] == repr(singlet_average_asymptotic(12, Fraction(1, 4)))

    def test_missing_sizes_refused(self, capsys):
        with pytest.raises(SystemExit, match="^error: L: at least one system size is required$"):
            main(["average", "--method", "closed"])
        assert capsys.readouterr().out == ""

    def test_seed_required_for_stochastic(self, tmp_path):
        with pytest.raises(SystemExit, match="seed"):
            main(["average", "--method", "full", "--L", "8", "--two-J", "0",
                  "--out", str(tmp_path / "x.csv")])

    def test_existing_output_refused(self, tmp_path):
        out = tmp_path / "avg.csv"
        out.write_text("existing")
        with pytest.raises(SystemExit, match="overwrite"):
            main(["average", "--method", "closed", "--L", "4", "--two-J", "0",
                  "--out", str(out)])
        assert out.read_text() == "existing"

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        args = ["average", "--method", "sd2", "--L", "10", "--two-J", "2,4", "--f", "1/2",
                "--samples", "40", "--seed", "9"]
        out1 = tmp_path / "w1.csv"
        monkeypatch.setenv("SPINSECTORS_WORKERS", "1")
        main(args + ["--out", str(out1)])
        out2 = tmp_path / "w2.csv"
        monkeypatch.setenv("SPINSECTORS_WORKERS", "2")
        main(args + ["--out", str(out2)])
        assert body_without_walltime(out1) == body_without_walltime(out2)

    def test_j_density_selection(self, tmp_path):
        out = tmp_path / "avg.csv"
        main(["average", "--method", "asymptotic", "--L", "16", "--j-density", "0.5",
              "--f", "1/4", "--out", str(out)])
        _, rows = read_rows(out)
        assert rows[0]["two_J"] == "8"

    @pytest.mark.parametrize("sites,j,two_j", [
        (10, 0.48, 4), (10, 0.5, 6), (10, 0.52, 6), (9, 3.8 / 9, 3), (10, 0, 0), (9, 1, 9)])
    def test_j_density_picks_the_nearest_spin(self, tmp_path, sites, j, two_j):
        # round(j L) raised to L's parity gave 6 at (10, 0.48) and 5 at (9, 3.8/9)
        out = tmp_path / "avg.csv"
        main(["average", "--method", "asymptotic", "--L", str(sites), "--j-density", repr(j),
              "--out", str(out)])
        _, rows = read_rows(out)
        assert rows[0]["two_J"] == str(two_j)

    @pytest.mark.parametrize("config,flags", [
        ("", ["--two-J", "2", "--j-density", "0.5"]),
        ("two_J=2\n", ["--j-density", "0.5"]),
        ("j_density=0.5\n", ["--two-J", "2"]),
    ], ids=["flags", "config-two_J", "config-j_density"])
    def test_j_density_refuses_two_j(self, tmp_path, config, flags):
        # j-density used to override two-J silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        with pytest.raises(SystemExit, match="^error: j-density: cannot be combined with two-J$"):
            main(["average", "--config", str(cfg), "--L", "8", "--method", "full", "--seed", "1",
                  "--samples", "5"] + flags)

    def test_spin_one_rejected_for_averages(self, tmp_path):
        with pytest.raises(SystemExit, match="species"):
            main(["average", "--species", "one", "--method", "closed", "--L", "4",
                  "--two-J", "0", "--out", str(tmp_path / "x.csv")])

    def test_bad_method_names_key(self):
        with pytest.raises(SystemExit, match="method"):
            main(["average", "--method", "bogus", "--L", "8"])

    @pytest.mark.parametrize("method,flags,message", [
        ("closed", ["--seed", "bogus"], "seed: expects an integer >= 0, got 'bogus'"),
        ("closed", ["--samples", "0"], "samples: expects an integer >= 1, got '0'"),
        ("asymptotic", ["--samples", "-3"], "samples: expects an integer >= 1, got '-3'"),
    ], ids=["closed-seed", "closed-samples", "asymptotic-samples"])
    def test_options_the_method_ignores_are_validated(self, tmp_path, method, flags, message):
        # the closed forms used to skip seed and samples, malformed or not
        out = tmp_path / "avg.csv"
        with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
            main(["average", "--method", method, "--L", "4", "--two-J", "0", "--out", str(out)]
                 + flags)
        assert not out.exists()

    def test_bad_two_j_names_key(self):
        with pytest.raises(SystemExit, match="two_J"):
            main(["average", "--method", "closed", "--L", "8", "--two-J", "3"])

    @pytest.mark.parametrize(
        "key,value",
        [("seed", "x"), ("seed", "-1"), ("samples", "0"), ("samples", "2.5"), ("j-density", "x"),
         ("j-density", "2"), ("j-density", "-0.5"), ("j-density", "nan"), ("j-density", "inf")],
    )
    def test_bad_number_names_option_and_value(self, key, value):
        # the last of a repeated option wins, so the bad value replaces the good one
        with pytest.raises(SystemExit, match=f"^error: {key}: .*'{value}'"):
            main(["average", "--method", "full", "--L", "8", "--seed", "5", "--samples", "10",
                  f"--{key}", value])

    def test_arithmetic_error_is_one_line(self, monkeypatch):
        def overflow(sites, cut):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli, "singlet_average_exact", overflow)
        with pytest.raises(SystemExit, match="^error: OverflowError: int too large"):
            main(["average", "--method", "closed", "--L", "4", "--two-J", "0"])

    def test_sample_count_past_2_53_is_one_line(self, tmp_path):
        # numpy's linspace refused 10**30 with a casting traceback
        out = tmp_path / "avg.csv"
        with pytest.raises(SystemExit, match=rf"^error: samples must be at most 2\*\*53, got {10**30}$"):
            main(["average", "--method", "full", "--L", "12", "--two-J", "2", "--seed", "1",
                  "--samples", str(10**30), "--out", str(out)])
        assert not out.exists()

    def test_memory_error_is_one_line(self, monkeypatch):
        # L = 40 asks numpy for a 254 GiB W, which ended in a traceback;
        # numpy raises a private subclass of MemoryError
        class _ArrayMemoryError(MemoryError):
            pass

        def too_big(*args):
            raise _ArrayMemoryError("Unable to allocate 254. GiB for an array with shape "
                                    "(1, 184756, 184756) and data type float64")

        monkeypatch.setattr(cli, "ensemble_entropy_samples", too_big)
        with pytest.raises(SystemExit, match=r"^error: MemoryError: Unable to allocate 254\. GiB "):
            main(["average", "--method", "full", "--L", "40", "--two-J", "0", "--samples", "1",
                  "--seed", "1"])

    def test_sd2_all_spins_skip_the_unpaired_singlet(self, tmp_path, capsys):
        # 2J = 0 at the odd cut 5 of L = 10 has no J_B = J - J_A pairing; `all`
        # used to compute the L = 16 rows, then exit 1 and write nothing
        out = tmp_path / "sd2.csv"
        main(["average", "--method", "sd2", "--L", "16,10", "--samples", "20", "--seed", "5",
              "--out", str(out)])
        _, rows = read_rows(out)
        assert [(r["L"], r["two_J"]) for r in rows] == (
            [("16", str(j)) for j in range(0, 17, 2)] + [("10", str(j)) for j in range(2, 11, 2)])
        assert capsys.readouterr().err == "skipped, no sd2 pairing J_B = J - J_A: L=10 two_J=0\n"

    @pytest.mark.parametrize("flags,key", [(["--two-J", "0"], "two_J"),
                                           (["--j-density", "0"], "j-density")])
    def test_sd2_chosen_unpaired_singlet_refused_before_any_row(self, tmp_path, monkeypatch,
                                                                flags, key):
        def forbidden(*args):
            raise AssertionError("a row was computed before the spins were checked")

        monkeypatch.setattr(cli, "ensemble_entropy_samples", forbidden)
        out = tmp_path / "sd2.csv"
        message = f"{key}: no J_B = J - J_A pairing exists for L=10, two_j=0, cut=5"
        with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
            main(["average", "--method", "sd2", "--L", "16,10", "--samples", "20", "--seed", "5",
                  "--out", str(out)] + flags)
        assert not out.exists()

    @pytest.mark.parametrize("method,ensembles", [
        ("closed", ["full", "sd2", "sd2"]),
        ("asymptotic", ["full", "sd2", "sd2"]),
        ("full", ["full"] * 3),
        ("sd1", ["sd1"] * 3),
        ("sd2", ["sd2"] * 3),
    ])
    def test_each_row_names_its_ensemble(self, tmp_path, method, ensembles):
        # the closed forms hold the full ensemble at J = 0 but sd2 above it
        out = tmp_path / "avg.csv"
        main(["average", "--method", method, "--L", "8", "--two-J", "0,2,8", "--samples", "3",
              "--seed", "1", "--out", str(out)])
        header, rows = read_rows(out)
        assert header[:3] == ["command", "method", "ensemble"]
        assert [r["ensemble"] for r in rows] == ensembles

    def test_complex_flag_changes_the_draws(self, tmp_path):
        base = ["average", "--method", "full", "--L", "8", "--two-J", "0", "--f", "1/2",
                "--samples", "30", "--seed", "5"]
        out_r = tmp_path / "real.csv"
        out_c = tmp_path / "complex.csv"
        main(base + ["--out", str(out_r)])
        main(base + ["--complex", "--out", str(out_c)])
        mean_r = float(read_rows(out_r)[1][0]["mean"])
        mean_c = float(read_rows(out_c)[1][0]["mean"])
        assert mean_r != mean_c


class TestConfigFile:
    def test_config_supplies_defaults_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep configuration\nL=4\ntwo_J=0\nmethod=closed\nf=1/2\n")
        out1 = tmp_path / "a.csv"
        main(["average", "--config", str(cfg), "--out", str(out1)])
        _, rows = read_rows(out1)
        assert rows[0]["L"] == "4" and rows[0]["method"] == "closed"
        out2 = tmp_path / "b.csv"
        main(["average", "--config", str(cfg), "--L", "6", "--out", str(out2)])
        _, rows2 = read_rows(out2)
        assert rows2[0]["L"] == "6"

    @pytest.mark.parametrize("command,settings", [
        ("dims", {"species": "half", "L": "4", "two_J": "0"}),
        ("beta", {"species": "one", "j_list": "0.5"}),
        ("average", {"species": "half", "L": "4", "two_J": "0", "f": "1/2", "method": "full",
                     "samples": "4", "seed": "1", "complex": "1"}),
        ("ed", {"species": "half", "L": "8", "two_J": "0", "f": "1/2", "coupling": "3"}),
        ("chaos-scan", {"species": "one", "L": "7", "two_J": "0", "f": "1/2", "coupling": "0"}),
    ])
    def test_config_may_set_every_option(self, tmp_path, command, settings):
        settings = dict(settings, out=str(tmp_path / "out.csv"))
        if command in ("ed", "chaos-scan"):
            settings["eigenstates_out"] = str(tmp_path / "eigenstates.csv")
        options = vars(cli.build_parser().parse_args([command]))
        # j_density excludes two_J (test_j_density_refuses_two_j reads it from a config)
        assert set(settings) == set(options) - {"config", "command", "func", "j_density"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
        assert main([command, "--config", str(cfg)]) == 0
        for key in ("out", "eigenstates_out"):
            if key in settings:
                _, rows = read_rows(Path(settings[key]))
                assert rows and all(row["species"] == settings["species"] for row in rows)

    def test_config_complex_reads_0_and_1(self, tmp_path):
        base = ["average", "--method", "full", "--L", "8", "--two-J", "2", "--samples", "50",
                "--seed", "3"]
        means = {}
        for name, extra, config in (("real", [], ""), ("complex", ["--complex"], ""),
                                    ("config0", [], "complex=0\n"),
                                    ("config1", [], "complex=1\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            out = tmp_path / f"{name}.csv"
            main(base + extra + ["--config", str(cfg), "--out", str(out)])
            means[name] = read_rows(out)[1][0]["mean"]
        assert means["config0"] == means["real"] != means["complex"] == means["config1"]

    @pytest.mark.parametrize("value", ["false", "", "yes", "2"])
    def test_config_complex_refuses_other_values(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"complex={value}\n")
        with pytest.raises(SystemExit, match=rf"^error: complex: expects 0 or 1, got '{value}'$"):
            main(["average", "--config", str(cfg), "--L", "8", "--two-J", "2", "--samples", "5",
                  "--seed", "3"])

    @pytest.mark.parametrize("command,key,message", [
        ("average", "species", "species: unknown species ''; expected 'half' or 'one'"),
        ("average", "f", "f: expects a rational like 1/2, got ''"),
        ("average", "method", "method: unknown method ''"),
        ("average", "samples", "samples: expects an integer >= 1, got ''"),
        ("average", "out", "out: expects a file path, got ''"),
        ("ed", "two_J", "two_J: expects a non-empty comma-separated list, got ''"),
        ("ed", "coupling", "coupling: expects a non-empty comma-separated list, got ''"),
        ("ed", "eigenstates_out", "eigenstates-out: expects a file path, got ''"),
    ], ids=["species", "f", "method", "samples", "out", "two_J", "coupling", "eigenstates_out"])
    def test_empty_config_value_refused(self, tmp_path, monkeypatch, capsys, command, key, message):
        # these read an empty value as unset, or (out) raised FileNotFoundError
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(f"{key}=\n")
        given = {"average": ["--L", "8", "--two-J", "0", "--seed", "1"], "ed": ["--L", "8"]}[command]
        with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
            main([command, "--config", "run.cfg"] + given)
        assert os.listdir(tmp_path) == ["run.cfg"] and capsys.readouterr().out == ""

    @pytest.mark.parametrize("name,reason", [("missing.cfg", "No such file or directory"),
                                             (".", "Is a directory")], ids=["missing", "directory"])
    def test_unreadable_config_refused(self, tmp_path, monkeypatch, capsys, name, reason):
        # open() raised FileNotFoundError or IsADirectoryError as a traceback
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"^error: config: cannot read {re.escape(name)}: {reason}$"):
            main(["dims", "--L", "4", "--config", name])
        assert os.listdir(tmp_path) == [] and capsys.readouterr().out == ""

    def test_config_line_without_equals_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("# sizes\nL=4\nmethod closed\n")
        with pytest.raises(SystemExit, match="^error: run.cfg:3: expected key=value, got 'method closed'$"):
            main(["average", "--config", "run.cfg"])

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(SystemExit, match="bogus"):
            main(["average", "--config", str(cfg), "--L", "4", "--method", "closed"])


class TestEd:
    def test_summary_and_eigenstate_dump(self, tmp_path):
        out = tmp_path / "ed.csv"
        dump = tmp_path / "eigen.csv"
        main(["ed", "--L", "8", "--coupling", "0,3", "--two-J", "0,2", "--f", "1/2",
              "--out", str(out), "--eigenstates-out", str(dump)])
        header, rows = read_rows(out)
        assert len(rows) == 4
        assert {r["coupling"] for r in rows} == {"0.0", "3.0"}
        _, eigen = read_rows(dump)
        # every eigenstate of the diagonalized blocks appears, with sharp spin
        assert all(float(r["j2_residual"]) < 1e-8 for r in eigen)

    def test_rerun_determinism(self, tmp_path):
        args = ["ed", "--L", "8", "--coupling", "3", "--two-J", "0", "--f", "1/2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert body_without_walltime(out1) == body_without_walltime(out2)

    def test_chaos_scan_gamma_column(self, tmp_path):
        out = tmp_path / "chaos.csv"
        main(["chaos-scan", "--L", "8", "--coupling", "0,3", "--two-J", "0",
              "--out", str(out)])
        header, rows = read_rows(out)
        assert "gamma" in header and len(rows) == 2
        for r in rows:
            assert float(r["gamma"]) == pytest.approx(
                float(r["gamma_minus_rmt"]) + math.pi / 2, abs=1e-12
            )

    def test_chaos_scan_entropy_maximum_in_chaotic_window(self, tmp_path):
        # the mean J=0 entropy over the coupling grid peaks between 2 and 6
        out = tmp_path / "chaos.csv"
        main(["chaos-scan", "--L", "12", "--coupling", "0,1,2,3,4,6,8", "--two-J", "0",
              "--out", str(out)])
        _, rows = read_rows(out)
        best = max(rows, key=lambda r: float(r["mean"]))
        assert 2.0 <= float(best["coupling"]) <= 6.0

    @pytest.mark.parametrize("command", ["ed", "chaos-scan"])
    def test_all_spins_skip_those_without_central_eigenstates(self, tmp_path, capsys, command):
        # at L = 8 the spin 2J = 6, 8 sectors have no central complex-sector
        # eigenstate; `all` used to diagonalize everything, then exit 1
        out = tmp_path / "all.csv"
        main([command, "--L", "8", "--coupling", "0,3", "--two-J", "all", "--out", str(out)])
        _, rows = read_rows(out)
        assert [(r["coupling"], r["two_J"]) for r in rows] == [
            (c, j) for c in ("0.0", "3.0") for j in ("0", "2", "4")]
        assert {r["ensemble"] for r in rows} == {""}
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("skipped, no central complex-sector eigenstates")
        assert "L=8 coupling=0.0 two_J=6" in err and "L=8 coupling=3.0 two_J=8" in err

    @pytest.mark.parametrize("command", ["ed", "chaos-scan"])
    def test_listed_spin_without_central_eigenstates_is_refused(self, tmp_path, command):
        out = tmp_path / "listed.csv"
        with pytest.raises(SystemExit, match="^error: two_J: no central eigenstates with two_j=6"):
            main([command, "--L", "8", "--coupling", "0,3", "--two-J", "0,6", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ed", "chaos-scan"])
    @pytest.mark.parametrize("existing,out,dump,message", [
        (None, "a.csv", "a.csv", "eigenstates-out: same path as out: a.csv"),
        (None, "./a.csv", "a.csv", "eigenstates-out: same path as out: a.csv"),
        ("e.csv", "b.csv", "e.csv", "eigenstates-out: refusing to overwrite existing file: e.csv"),
        ("b.csv", "b.csv", "e.csv", "out: refusing to overwrite existing file: b.csv"),
    ], ids=["same-path", "same-file", "existing-dump", "existing-out"])
    def test_refused_outputs_leave_no_file(self, tmp_path, monkeypatch, command, existing, out,
                                           dump, message):
        # the summary used to be written after the whole run, and then the dump refused
        monkeypatch.chdir(tmp_path)
        if existing:
            Path(existing).write_text("existing")

        def forbidden(*args):
            raise AssertionError("the run started before its outputs were checked")

        monkeypatch.setattr(cli, "diagonalize_and_resolve", forbidden)
        with pytest.raises(SystemExit, match=f"^error: {message}$"):
            main([command, "--L", "8", "--coupling", "1", "--out", out, "--eigenstates-out", dump])
        assert sorted(os.listdir(tmp_path)) == ([existing] if existing else [])

    @pytest.mark.parametrize("command", ["ed", "chaos-scan"])
    @pytest.mark.parametrize("sizes,f,bad", [("8", "3/2", 8), ("40,8", "1/16", 8), ("8", "0", 8)],
                             ids=["past-one", "second-size", "zero"])
    def test_empty_cut_refused_before_any_chain(self, monkeypatch, command, sizes, f, bad):
        # the library refused it without the option's name, after the chains before it
        def forbidden(*args):
            raise AssertionError("a chain was built before the cuts were checked")

        monkeypatch.setattr(cli, "ChainSpec", forbidden)
        message = f"f: fraction {f} gives an empty bipartition at L={bad}"
        with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
            main([command, "--L", sizes, "--coupling", "1", "--f", f])

    def test_average_fraction_past_one_refused(self, monkeypatch):
        # refused as an empty bipartition, before any row
        def forbidden(*args):
            raise AssertionError("a row was computed before the cuts were checked")

        monkeypatch.setattr(cli, "singlet_average_exact", forbidden)
        with pytest.raises(SystemExit,
                           match="^error: f: fraction 3/2 gives an empty bipartition at L=4$"):
            main(["average", "--method", "closed", "--L", "4", "--two-J", "0", "--f", "3/2"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_refused_before_any_chain(self, monkeypatch, value):
        # ChainSpec refused it, without the option's name, after the chains before it
        def forbidden(*args):
            raise AssertionError("a chain was built before the couplings were checked")

        monkeypatch.setattr(cli, "ChainSpec", forbidden)
        with pytest.raises(SystemExit, match=f"^error: coupling: expects a number, got '{value}'$"):
            main(["ed", "--L", "8", "--coupling", f"1,{value}"])

    def test_couplings_past_1e100_refused_and_1e100_resolved(self, tmp_path):
        with pytest.raises(SystemExit, match=r"^error: \|coupling\| must be at most 1e100, got 1e\+101$"):
            main(["ed", "--L", "10", "--coupling", "1e101"])
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["ed", "--L", "10", "--coupling=-1e100,1e100", "--two-J", "0", "--out", str(out)])
        _, rows = read_rows(out)
        assert [r["coupling"] for r in rows] == ["-1e+100", "1e+100"]
        assert all(int(r["count"]) > 0 and math.isfinite(float(r["mean"])) for r in rows)

    def test_cap_produces_size_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cap"):
            main(["ed", "--L", "20", "--coupling", "0", "--two-J", "0",
                  "--out", str(tmp_path / "x.csv")])


@pytest.mark.parametrize("argv,forbid,message", [
    (["dims", "--L", "4", "--out", "missing/x.csv"], "multiplicity", "out: no such directory: missing"),
    (["ed", "--L", "8", "--out", "a.csv", "--eigenstates-out", "missing/e.csv"],
     "diagonalize_and_resolve", "eigenstates-out: no such directory: missing"),
    (["average", "--L", "8", "--method", "closed", "--out", "notes.txt/x.csv"],
     "singlet_average_exact", "out: no such directory: notes.txt"),
], ids=["dims-out", "ed-dump", "out-under-a-file"])
def test_output_in_missing_directory_refused_before_any_work(tmp_path, monkeypatch, capsys, argv,
                                                             forbid, message):
    # the CSV was opened after the whole run, which then ended in a FileNotFoundError traceback
    monkeypatch.chdir(tmp_path)
    Path("notes.txt").write_text("a file, not a directory")

    def forbidden(*args):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr(cli, forbid, forbidden)
    with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
        main(argv)
    assert os.listdir(tmp_path) == ["notes.txt"] and capsys.readouterr().out == ""


_CAPPED = "L=20 exceeds the dense-diagonalization cap L<=18 for spin half"
_ODD = "the spin-1/2 J_z=0 sector needs an even number of sites, got 7"


@pytest.mark.parametrize("argv,message", [
    *[pytest.param([command] + flags, message, id=f"{command}-{name}")
      for command in ("ed", "chaos-scan")
      for name, flags, message in (
          ("cap", ["--L", "16,20"], _CAPPED),
          ("odd", ["--L", "16,7"], "two_J=0 is not an admissible doubled spin at L=7"),
          ("spin", ["--L", "16,6", "--two-J", "8"], "two_J=8 is not an admissible doubled spin at L=6"))],
    pytest.param(["dims", "--L", "8,3", "--two-J", "8"], "two_J=8 is not an admissible doubled spin at L=3",
                 id="dims-spin"),
    *[pytest.param(["average", "--method", method, "--L", "20,7", "--samples", "300", "--seed", "1"],
                   _ODD, id=f"average-{method}-odd") for method in ("full", "sd1", "closed")],
])
def test_every_size_and_spin_refused_before_any_work(monkeypatch, capsys, argv, message):
    # each was refused only after the rows of the sizes before it: a whole
    # L = 16 chain, 300 samples at L = 20 or every spin of an L = 20 closed form
    def forbidden(*args):
        raise AssertionError("a computation ran before every size and spin was checked")

    for name in ("diagonalize_and_resolve", "ensemble_entropy_samples", "singlet_average_exact",
                 "sd2_average_closed", "multiplicity"):
        monkeypatch.setattr(cli, name, forbidden)
    with pytest.raises(SystemExit, match=f"^error: {re.escape(message)}$"):
        main(argv)
    assert capsys.readouterr().out == ""


def test_every_option_has_a_parser():
    assert all(callable(parse) for _, parse, _, _ in cli._OPTIONS.values())


@pytest.mark.parametrize(
    "argv,key",
    [
        (["ed", "--L", "8", "--coupling", ","], "coupling"),
        (["chaos-scan", "--L", ",", "--coupling", "3"], "L"),
        (["average", "--method", "closed", "--L", "8", "--two-J", ","], "two_J"),
        (["beta", "--j-list", ","], "j-list"),
        (["dims", "--L", "-3"], "L"),
        (["dims", "--L", "4,0"], "L"),
        (["beta", "--j-list", "2"], "j-list"),
        (["beta", "--j-list", "nan"], "j-list"),
    ],
)
def test_empty_lists_and_sizes_below_one_refused(argv, key, capsys):
    with pytest.raises(SystemExit, match=f"^error: {key}: "):
        main(argv)
    assert capsys.readouterr().out == ""


_COMMON = {"-h", "--help", "--config", "--out", "--species"}
_ED_FLAGS = _COMMON | {"--L", "--two-J", "--f", "--coupling", "--eigenstates-out"}


@pytest.mark.parametrize("command,flags", [
    ("dims", _COMMON | {"--L", "--two-J"}),
    ("beta", _COMMON | {"--j-list"}),
    ("average", _COMMON | {"--L", "--two-J", "--f", "--method", "--samples", "--complex",
                           "--seed", "--j-density"}),
    ("ed", _ED_FLAGS),
    ("chaos-scan", _ED_FLAGS),
    ("selftest", {"-h", "--help"}),
])
def test_help_lists_the_flags(capsys, command, flags):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = re.findall(r"^  (-[\w-]+)(?:, (--[\w-]+))?", capsys.readouterr().out, re.M)
    assert {flag for line in listed for flag in line if flag} == flags


@pytest.mark.parametrize("command,given,method,two_js", [
    ("dims", [], None, ["0", "2", "4", "6"]),
    ("average", ["--seed", "1"], "full", ["0", "2", "4", "6"]),
    ("ed", [], "ed", ["0"]),
    ("chaos-scan", [], "ed", ["0"]),
])
def test_defaults(tmp_path, command, given, method, two_js):
    out = tmp_path / "out.csv"
    main([command, "--L", "6", "--out", str(out)] + given)
    _, rows = read_rows(out)
    assert [r["two_J"] for r in rows] == two_js
    assert {r["species"] for r in rows} == {"half"}
    if method:
        assert {(r["f"], r["method"]) for r in rows} == {("1/2", method)}
    if command in ("ed", "chaos-scan"):
        assert {r["coupling"] for r in rows} == {"0.0"}
    if command == "average":
        # real draws: the body equals the run that asks for them
        real = tmp_path / "real.csv"
        cfg = tmp_path / "real.cfg"
        cfg.write_text("complex=0\n")
        main([command, "--L", "6", "--config", str(cfg), "--out", str(real)] + given)
        assert body_without_walltime(out) == body_without_walltime(real)
        assert {r["samples"] for r in rows} == {str(default_sample_count("full", 6))}


def test_beta_default_grid(tmp_path):
    out = tmp_path / "beta.csv"
    main(["beta", "--out", str(out)])
    _, rows = read_rows(out)
    assert [r["j"] for r in rows] == [repr(k / 20) for k in range(21)]
    assert {r["species"] for r in rows} == {"half"}


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_package_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(spinsectors.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "spinsectors", "selftest"],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_selftest_refuses_optimized_mode(self):
        # python -O strips the asserts the checks are made of, so a run would print ok
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(spinsectors.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-m", "spinsectors.cli", "selftest"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: selftest: ") and proc.stderr.count("\n") == 1
