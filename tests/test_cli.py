import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from qdilemma import cli
from qdilemma.cli import (
    _columns,
    _parse_grid,
    _parse_table,
    _preset_gamma,
    build_parser,
    main,
)
from qdilemma.datasets import read_metadata
from qdilemma.equilibrium import DEFAULT_GRID, DEFAULT_TOL, thresholds
from qdilemma.game import DEFAULT_TABLE, PayoffTable


def run_cli(*args):
    return main(list(args))


def _load_tracer():
    """The benchmark's span recorder, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# an integer that JSON holds exactly and a float cannot
HUGE = int("9" * 400)


class TestThresholdsCommand:
    def test_prints_six_decimals(self, capsys, tmp_path):
        assert run_cli("thresholds") == 0
        out = capsys.readouterr().out
        assert "gamma_th1 = 0.463648" in out
        assert "gamma_th2 = 0.684719" in out

    def test_writes_report(self, tmp_path):
        out = str(tmp_path / "th.json")
        assert run_cli("thresholds", "--format", "json", "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["columns"]["gamma_th1"][0] == pytest.approx(0.4636476090008061)

    @pytest.mark.parametrize("fmt", [("--format", "json"), ("--format", "csv"), ("--form=json",)])
    def test_format_without_out_is_input_error(self, tmp_path, capsys, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        assert run_cli("thresholds", *fmt) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --format needs --out: without --out no file is written\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    def test_generalized_table(self, capsys):
        assert run_cli("thresholds", "--table", "3,0,4,1") == 0
        out = capsys.readouterr().out
        assert "0.523599" in out  # both thresholds coincide at pi/6

    def test_non_dilemma_table_is_input_error(self, capsys):
        assert run_cli("thresholds", "--table", "3,0,5,6") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ("thresholds", "--table=3,0,inf,1"),
            ("thresholds", "--table=3,-inf,5,1"),
            ("landscape", "--table=3,0,inf,1", "--gamma", "0.5"),
        ],
    )
    def test_non_finite_table_is_input_error(self, tmp_path, capsys, args):
        out = str(tmp_path / "x.csv")
        assert run_cli(*args, "--out", out) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestEquilibriaCommand:
    @pytest.mark.parametrize(
        "gamma,count",
        [("0.0", 1), ("0.6", 2), (str(math.pi / 2), 1)],
    )
    def test_equilibrium_counts(self, tmp_path, gamma, count):
        out = str(tmp_path / "eq.csv")
        assert run_cli("equilibria", "--gamma", gamma, "--grid", "31x16", "--out", out) == 0
        text = read(out)
        meta = read_metadata(text)
        assert meta["equilibrium_count"] == count
        rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == count

    def test_nan_tol_is_input_error(self, tmp_path, capsys):
        out = str(tmp_path / "eq.csv")
        assert run_cli("equilibria", "--gamma", "0.6", "--grid", "21x11", "--tol", "nan",
                       "--out", out) == 1
        assert "tol must be a positive finite number" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestLandscapeCommand:
    def test_preset_fig4_corner(self, tmp_path):
        out = str(tmp_path / "l.csv")
        assert run_cli("landscape", "--preset", "fig4", "--steps", "2", "--out", out) == 0
        lines = [l for l in read(out).splitlines() if not l.startswith("#")]
        assert lines[0] == "t_a,t_b,payoff_a"
        row = dict(zip(("t_a", "t_b", "payoff_a"), lines[1].split(",")))
        assert float(row["payoff_a"]) == pytest.approx(3.0, abs=1e-9)  # (-1,-1)

    @pytest.mark.parametrize("table", [PayoffTable(), PayoffTable(4, 0, 6, 2),
                                       PayoffTable(2.5, 0.5, 3.75, 1.25)],
                             ids=lambda t: str(t.as_tuple()))
    def test_presets_are_regime_midpoints(self, table):
        th = thresholds(table)
        assert _preset_gamma("fig2", table) == th.gamma_th1 / 2
        assert _preset_gamma("fig3", table) == (th.gamma_th1 + th.gamma_th2) / 2
        assert _preset_gamma("fig4", table) == (th.gamma_th2 + math.pi / 2) / 2

    def test_needs_gamma_or_preset(self, tmp_path):
        assert run_cli("landscape", "--out", str(tmp_path / "x.csv")) == 1

    def test_gamma_bound_error(self, tmp_path):
        assert run_cli("landscape", "--gamma", "2.5", "--out", str(tmp_path / "x.csv")) == 1

    def test_gamma_and_preset_exclude_each_other(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("landscape", "--gamma", "0.3", "--preset", "fig2", "--steps", "2",
                       "--out", str(out)) == 1
        assert "error: argument --preset: not allowed with argument --gamma" in \
            capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_small_sweep_rows(self, tmp_path):
        out = str(tmp_path / "s.csv")
        code = run_cli(
            "sweep", "--gamma", "0.0", "--gamma", "0.6", "--gamma", str(math.pi / 2),
            "--seed", "3", "--out", out,
        )
        assert code == 0
        lines = [l for l in read(out).splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert len(rows) == 4  # one DD, two intermediate branches, one QQ
        assert rows[0]["label"] == "DD"
        assert float(rows[0]["payoff_analytic"]) == pytest.approx(1.0)
        assert float(rows[0]["payoff_nmr_ideal"]) == pytest.approx(1.0, abs=1e-6)
        assert {rows[1]["label"], rows[2]["label"]} == {"DQ", "QD"}
        assert float(rows[1]["payoff_analytic"]) == pytest.approx(5 * math.cos(0.6) ** 2)
        assert float(rows[2]["payoff_analytic"]) == pytest.approx(5 * math.sin(0.6) ** 2)
        assert rows[3]["label"] == "QQ"
        assert float(rows[3]["payoff_nmr_ideal"]) == pytest.approx(3.0, abs=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ("sweep", "--gamma", "0.1", "--gamma", "0.6", "--seed", "11")
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert read(a) == read(b)

    def test_seed_changes_noisy_column(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "1", "--out", a) == 0
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "2", "--out", b) == 0
        assert read(a) != read(b)

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert run_cli("sweep", "--gamma", "0.0", "--format", "json", "--out", out) == 0
        payload = json.loads(read(out))
        assert payload["kind"] == "sweep_comparison"
        assert payload["columns"]["label"] == ["DD"]


class TestReplay:
    def test_replay_matches(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "5", "--out", out) == 0
        assert run_cli("sweep", "--replay", out) == 0

    def test_replay_detects_tampering(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "5", "--out", out) == 0
        text = read(out).replace("DQ", "XX")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run_cli("sweep", "--replay", out) == 1

    @pytest.mark.parametrize("command, make", [
        ("landscape", ("--gamma", "0.3", "--steps", "3", "--format", "csv")),
        ("sweep", ("--gamma", "0.6", "--format", "json")),
    ], ids=["csv", "json"])
    def test_replay_refuses_crlf_line_endings(self, tmp_path, capsys, command, make):
        out = tmp_path / "r"
        assert run_cli(command, *make, "--out", str(out)) == 0
        out.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        assert run_cli(command, "--replay", str(out)) == 1
        assert "replay ok" not in capsys.readouterr().out

    def test_replay_landscape(self, tmp_path):
        out = str(tmp_path / "l.json")
        assert run_cli("landscape", "--gamma", "0.3", "--steps", "5",
                       "--format", "json", "--out", out) == 0
        assert run_cli("landscape", "--replay", out) == 0

    @pytest.mark.parametrize("command, make, extra, named", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"),
         ("--steps", "5", "--gamma", "1.0", "--format", "json"), "--gamma, --steps, --format"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), ("--table", "4,0,6,2"), "--table"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), ("--preset", "fig3"), "--preset"),
        ("sweep", ("--gamma", "0.6"), ("--seed", "3", "--noise-angle", "0.1"),
         "--noise-angle, --seed"),
        ("sweep", ("--gamma", "0.6"), ("--gamma", "0.2", "--out", "{tmp}/y.csv"), "--gamma, --out"),
        # typed at their default value, abbreviated or as --flag=value
        ("landscape", ("--gamma", "0.3", "--steps", "3", "--table", "4,0,6,2"),
         ("--table", "3,0,5,1", "--steps", "41"), "--steps, --table"),
        ("sweep", ("--gamma", "0.6"), ("--seed", "0"), "--seed"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), ("--ste", "41"), "--steps"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), ("--format=csv",), "--format"),
    ])
    def test_replay_refuses_other_flags(self, tmp_path, capsys, command, make, extra, named):
        out = str(tmp_path / "r.csv")
        assert run_cli(command, *make, "--out", out) == 0
        before = read(out)
        capsys.readouterr()
        assert run_cli(command, "--replay", out, *(a.format(tmp=tmp_path) for a in extra)) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: --replay uses the file's embedded config and takes no "
                                f"other flag, got {named}\n")
        assert captured.out == ""
        assert read(out) == before
        assert os.listdir(tmp_path) == ["r.csv"]

    @pytest.mark.parametrize("flag", ["--rep", "--replay="])
    def test_replay_accepts_its_own_abbreviation(self, tmp_path, flag):
        out = str(tmp_path / "l.csv")
        assert run_cli("landscape", "--gamma", "0.3", "--steps", "3", "--out", out) == 0
        argv = ["landscape", flag + out] if flag.endswith("=") else ["landscape", flag, out]
        assert run_cli(*argv) == 0

    def test_empty_replay_path_is_not_ignored(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("landscape", "--preset", "fig3", "--steps", "3", "--replay", "") == 1
        assert "takes no other flag, got --preset, --steps" in capsys.readouterr().err
        assert run_cli("landscape", "--replay=") == 2
        assert os.listdir(tmp_path) == []

    def test_replay_wrong_kind(self, tmp_path):
        out = str(tmp_path / "l.csv")
        assert run_cli("landscape", "--gamma", "0.3", "--steps", "3", "--out", out) == 0
        assert run_cli("sweep", "--replay", out) == 1

    @pytest.mark.parametrize(
        "command,args,key",
        [
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "steps"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "format"),
            ("sweep", ("--gamma", "0.6", "--seed", "5"), "seed"),
            ("sweep", ("--gamma", "0.6", "--seed", "5"), "format"),
        ],
    )
    def test_replay_names_missing_metadata_key(self, tmp_path, capsys, command, args, key):
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        del meta[key]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        assert f"error: file {out}: embedded metadata lacks key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,args,key,value",
        [
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "steps", "3"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "table", "3,0,5,1"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", [0.5]),
        ],
    )
    def test_replay_names_wrong_typed_metadata(self, tmp_path, capsys, command, args, key, value):
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        meta[key] = value
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        err = capsys.readouterr().err
        assert f"error: file {out}: embedded metadata has a value of the wrong type" in err

    @pytest.mark.parametrize("seed", [-1, 2.5, "7", True])
    def test_replay_checks_the_seed_like_the_seed_flag(self, tmp_path, capsys, seed):
        out = str(tmp_path / "s.csv")
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "2", "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        meta["seed"] = seed
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli("sweep", "--replay", out) == 1
        err = capsys.readouterr().err
        assert f"error: file {out}: embedded metadata key 'seed' must be a non-negative integer" in err

    @pytest.mark.parametrize("table", [[3.0, 0.0, 5.0], [], [3.0, False, 5.0, 1.0],
                                       [3.0, 0.0, 5.0, True]])
    @pytest.mark.parametrize("command,args", [
        ("landscape", ("--gamma", "0.3", "--steps", "3")),
        ("sweep", ("--gamma", "0.6", "--seed", "2")),
    ])
    def test_replay_refuses_a_table_that_is_not_four_numbers(self, tmp_path, capsys, command,
                                                             args, table):
        # the builders would fill missing entries from the default table, and
        # PayoffTable would take False as 0
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        meta["table"] = table
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: file {out}: embedded metadata key 'table' "
                                "must hold four numbers\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command,args,key,value,shown", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", "0.3", "'0.3'"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", True, "True"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", ["0.6"], "'0.6'"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", [True], "True"),
    ])
    def test_replay_refuses_a_gamma_that_is_not_a_number(self, tmp_path, capsys, command, args,
                                                         key, value, shown):
        # the config regenerates the same bytes, so only the gamma check refuses it
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        meta[key] = value
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: file {out}: entanglement parameter must be a number, "
                                f"got {shown}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command,args,key,value", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", HUGE),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", [HUGE]),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "table", [3, 0, HUGE, 1]),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "noise_readout", HUGE),
    ], ids=["gamma", "gammas", "table", "noise_readout"])
    def test_replay_names_the_file_for_an_integer_too_large_for_a_float(
            self, tmp_path, capsys, command, args, key, value):
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        meta[key] = value
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta, sort_keys=True, separators=(",", ":"))
                     + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: file {out}: int too large to convert to float\n"
        assert captured.out == ""

    def test_replay_names_the_file_for_a_builder_error(self, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        assert run_cli("sweep", "--gamma", "0.6", "--seed", "2", "--out", out) == 0
        text = read(out).replace('"noise_readout":0.03', '"noise_readout":-1', 1)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()
        assert run_cli("sweep", "--replay", out) == 1
        assert capsys.readouterr().err == (f"error: file {out}: noise_sigma must be finite and "
                                           "non-negative, got -1.0\n")

    @pytest.mark.parametrize("old, new, message", [
        ('"command":"landscape"', '"command":"sweep"',
         "embedded metadata key 'command' is 'sweep', not 'landscape'"),
        ('"preset":"fig3"', '"preset":"fig9"',
         "unknown preset 'fig9', expected one of fig2, fig3, fig4"),
        ('"preset":"fig3"', '"preset":"fig2"',
         "preset 'fig2' is gamma {fig2!r}, not the embedded gamma {fig3!r}"),
    ])
    def test_replay_refuses_metadata_no_command_writes(self, tmp_path, capsys, old, new, message):
        out = str(tmp_path / "l.csv")
        assert run_cli("landscape", "--preset", "fig3", "--steps", "3", "--out", out) == 0
        text = read(out)
        assert old in text
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new, 1))
        capsys.readouterr()
        assert run_cli("landscape", "--replay", out) == 1
        midpoints = {name: _preset_gamma(name, DEFAULT_TABLE) for name in ("fig2", "fig3")}
        assert capsys.readouterr().err == f"error: file {out}: {message.format(**midpoints)}\n"

    @pytest.mark.parametrize("command,args,fmt,extra", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "csv", {"zzz": [1, 2]}),
        ("landscape", ("--preset", "fig2", "--steps", "2"), "json", {"regime": "classical"}),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "csv", {"aaa": 1, "zzz": None}),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "json", {"steps": 3}),
    ])
    def test_replay_refuses_keys_no_command_writes(self, tmp_path, capsys, command, args, fmt,
                                                   extra):
        # the builders copy the config into the output, so the edited file
        # regenerates byte for byte and only the key check refuses it
        out = str(tmp_path / f"d.{fmt}")
        assert run_cli(command, *args, "--format", fmt, "--out", out) == 0
        if fmt == "csv":
            meta_line, rest = read(out).split("\n", 1)
            meta = json.loads(meta_line[len("# meta: "):]) | extra
            text = "# meta: " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n" + rest
        else:
            payload = json.loads(read(out))
            payload["metadata"] |= extra
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: file {out}: embedded metadata has keys no {command!r} "
                                f"command writes: {', '.join(sorted(extra))}\n")
        assert captured.out == ""


class TestNmrCommand:
    def test_writes_report_and_pulse_listing(self, tmp_path):
        out = str(tmp_path / "run.json")
        assert run_cli("nmr", "--gamma", str(math.pi / 2), "--out", out) == 0
        report = json.loads(read(out))
        assert report["payoff_a"] == pytest.approx(3.0, abs=1e-9)
        assert report["duration_s"] < 0.300
        assert report["warnings"] == []
        pulses = read(out + ".pulses.txt")
        assert "PULSE both 90deg x" in pulses
        assert "DELAY" in pulses

    def test_zero_gamma_payoffs(self, tmp_path):
        out = str(tmp_path / "run.json")
        assert run_cli("nmr", "--gamma", "0", "--out", out) == 0
        report = json.loads(read(out))
        assert report["payoff_a"] == pytest.approx(1.0, abs=1e-9)
        assert report["payoff_b"] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_gamma_names_the_bound(self, tmp_path, capsys):
        assert run_cli("nmr", "--gamma", "2.0", "--out", str(tmp_path / "x.json")) == 1
        assert "[0, pi/2]" in capsys.readouterr().err

    def test_report_compiles_each_sequence_once(self, tmp_path):
        # the listing and the duration read one compiled run; run_experiment
        # still compiles its own entangler and disentangler
        recorder = _load_tracer().Recorder()
        with recorder.installed():
            assert run_cli("nmr", "--gamma", "0.6", "--out", str(tmp_path / "n.json")) == 0
        compiles = [s for s in recorder.spans if s.name == "nmr.compile"]
        assert len(compiles) == 5
        assert sum(s.parent is not None and s.parent.name == "nmr.run_experiment"
                   for s in compiles) == 2

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = str(tmp_path / "nope" / "run.json")
        assert run_cli("nmr", "--gamma", "0.5", "--out", missing_dir) == 2


class TestBadNoiseAndSeed:
    @pytest.mark.parametrize("command", ["sweep", "tomo"])
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_readout_noise_is_input_error(self, tmp_path, capsys, command, sigma):
        out = str(tmp_path / "x.json")
        assert run_cli(command, "--gamma", "0.6", "--noise-readout", sigma, "--out", out) == 1
        assert "noise_sigma must be finite and non-negative" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["sweep", "nmr", "tomo"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, command):
        out = str(tmp_path / "x.json")
        assert run_cli(command, "--gamma", "0.6", "--seed", "-1", "--out", out) == 1
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTomoCommand:
    def test_round_trip_report(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert run_cli("tomo", "--gamma", str(math.pi / 2), "--out", out) == 0
        report = json.loads(read(out))
        assert report["payoff_a"] == pytest.approx(3.0, abs=1e-6)
        assert not report["projected"]
        records = read(out + ".records.txt")
        assert "none-none pop_cc" in records

    def test_noisy_run_is_seed_stable(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ("tomo", "--gamma", "0.6", "--noise-readout", "0.03",
                "--noise-angle", "0.05", "--seed", "9")
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert json.loads(read(a))["payoff_a"] == json.loads(read(b))["payoff_a"]


class TestParsing:
    def test_unknown_command_is_input_error(self):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_value(self, tmp_path):
        assert run_cli("equilibria", "--gamma", "abc", "--out", str(tmp_path / "x.csv")) == 1

    def test_bad_table_shape(self):
        assert run_cli("thresholds", "--table", "1,2,3") == 1

    def test_bad_table_is_checked_before_replay(self, tmp_path, capsys):
        out = str(tmp_path / "l.csv")
        assert run_cli("landscape", "--gamma", "0.3", "--steps", "3", "--out", out) == 0
        capsys.readouterr()
        assert run_cli("landscape", "--replay", out, "--table", "3,0,5,x") == 1
        assert capsys.readouterr().err.startswith("error: --table expects")

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["equilibria", "--gamma", "0.6"])
        assert _parse_table(args.table) == DEFAULT_TABLE
        assert _parse_grid(args.grid) == DEFAULT_GRID
        assert args.tol == DEFAULT_TOL
        for command in ("landscape", "sweep", "thresholds", "nmr --gamma 0", "tomo --gamma 0"):
            args = parser.parse_args(command.split())
            assert _parse_table(args.table) == DEFAULT_TABLE

    def test_main_builds_no_parser_per_call(self, monkeypatch, capsys):
        def fail():
            raise AssertionError("main must reuse the parser built at import")

        monkeypatch.setattr(cli, "build_parser", fail)
        assert run_cli("thresholds") == 0
        assert "gamma_th1" in capsys.readouterr().out

    def test_columns_without_rows(self):
        assert _columns(("a", "b"), []) == {"a": [], "b": []}
        assert _columns(("a", "b"), [(1, 2), (3, 4)]) == {"a": [1, 3], "b": [2, 4]}

    def test_bad_grid_shape(self, tmp_path):
        assert run_cli("equilibria", "--gamma", "0.3", "--grid", "61",
                       "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("args, expected", [
        (("thresholds", "--table", "3,0,5,x"),
         "--table expects four numbers: reward,sucker,temptation,punishment, got '3,0,5,x'"),
        (("thresholds", "--table", "1,2,3"), "--table expects four numbers"),
        (("equilibria", "--gamma", "0.3", "--grid", "ax3"),
         "--grid expects THETAxPHI, e.g. 61x31, got 'ax3'"),
        (("equilibria", "--gamma", "0.3", "--grid", "61x31x2"), "--grid expects THETAxPHI"),
    ])
    def test_unparsable_flag_names_the_flag(self, tmp_path, capsys, args, expected):
        assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}")
        assert not (tmp_path / "x.csv").exists()


def test_console_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qdilemma", "thresholds"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "gamma_th1" in proc.stdout
