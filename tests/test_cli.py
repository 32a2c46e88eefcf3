import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from qdilemma import __version__, cli
from qdilemma.cli import (
    _columns,
    _parse_grid,
    _parse_table,
    _preset_gamma,
    build_parser,
    main,
)
from qdilemma.datasets import read_metadata, render
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

DATA = pathlib.Path(__file__).parent / "data"
GOLDENS = [("landscape", "landscape_fig3_11.csv"), ("landscape", "landscape_fig3_11.json"),
           ("sweep", "sweep_seed7.csv"), ("sweep", "sweep_seed7.json")]


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

    @pytest.mark.parametrize("fmt, damage", [
        ("json", lambda data: data.replace(b"\n", b"\r\n")),
        ("csv", lambda data: data.split(b"\n", 1)[1]),  # the "# meta:" line removed
        # metadata that is not a JSON object
        ("csv", lambda data: b"# meta: 5\n" + data.split(b"\n", 1)[1]),
        ("csv", lambda data: b"# meta: [1]\n" + data.split(b"\n", 1)[1]),
        ("json", lambda data: (json.dumps({**json.loads(data), "metadata": [1]}, sort_keys=True,
                                          indent=2) + "\n").encode()),
    ], ids=["json-crlf", "csv-without-meta", "csv-number", "csv-list", "json-list"])
    def test_replay_names_a_file_without_metadata(self, tmp_path, capsys, fmt, damage):
        out = tmp_path / f"l.{fmt}"
        assert run_cli("landscape", "--gamma", "0.3", "--steps", "3", "--format", fmt,
                       "--out", str(out)) == 0
        out.write_bytes(damage(out.read_bytes()))
        capsys.readouterr()
        assert run_cli("landscape", "--replay", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: file {out}: no embedded metadata found in dataset file\n")

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
        "command,args,key,default",
        [
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "steps", "41"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "format", "'csv'"),
            ("sweep", ("--gamma", "0.6", "--seed", "5"), "seed", "0"),
            ("sweep", ("--gamma", "0.6", "--seed", "5"), "format", "'csv'"),
        ],
    )
    def test_replay_names_missing_metadata_key(self, tmp_path, capsys, command, args, key,
                                               default):
        out = str(tmp_path / "d.csv")
        assert run_cli(command, *args, "--out", out) == 0
        meta_line, rest = read(out).split("\n", 1)
        meta = json.loads(meta_line[len("# meta: "):])
        del meta[key]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("# meta: " + json.dumps(meta) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(command, "--replay", out) == 1
        assert (f"error: file {out}: key '{key}' is missing, but {command} writes {default}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command,args,key,value,message",
        [
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "steps", "3",
             "key 'steps' is '3', but landscape writes 3"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "table", "3,0,5,1",
             "key 'table' is '3,0,5,1', but landscape writes [3.0, 0.0, 5.0, 1.0]"),
            ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", [0.5],
             "key 'gamma' is [0.5], but landscape writes 0.5"),
        ],
    )
    def test_replay_names_wrong_typed_metadata(self, tmp_path, capsys, command, args, key, value,
                                               message):
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
        assert f"error: file {out}: {message}" in err

    @pytest.mark.parametrize("seed, message", [
        (-1, "argument --seed: must be a non-negative integer"),
        (2.5, "argument --seed: must be a non-negative integer"),
        ("7", "key 'seed' is '7', but sweep writes 7"),
        (True, "argument --seed: must be a non-negative integer"),
    ], ids=["-1", "2.5", "7", "True"])
    def test_replay_checks_the_seed_like_the_seed_flag(self, tmp_path, capsys, seed, message):
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
        assert f"error: file {out}: {message}" in err

    @pytest.mark.parametrize("table, shown", [
        ([3.0, 0.0, 5.0], "'3.0,0.0,5.0'"), ([], "''"),
        ([3.0, False, 5.0, 1.0], "'3.0,False,5.0,1.0'"),
        ([3.0, 0.0, 5.0, True], "'3.0,0.0,5.0,True'"),
    ], ids=["three", "empty", "false", "true"])
    @pytest.mark.parametrize("command,args", [
        ("landscape", ("--gamma", "0.3", "--steps", "3")),
        ("sweep", ("--gamma", "0.6", "--seed", "2")),
    ])
    def test_replay_refuses_a_table_that_is_not_four_numbers(self, tmp_path, capsys, command,
                                                             args, table, shown):
        # PayoffTable would fill missing entries from the default table and
        # take False as 0; the --table flag takes neither
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
        assert captured.err == (f"error: file {out}: --table expects four numbers: "
                                f"reward,sucker,temptation,punishment, got {shown}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command,args,key,value,message", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", "0.3",
         "key 'gamma' is '0.3', but landscape writes 0.3"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", True,
         "argument --gamma: invalid float value: 'True'"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", ["0.6"],
         "key 'gammas' is ['0.6'], but sweep writes [0.6]"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", [True],
         "argument --gamma: invalid float value: 'True'"),
    ])
    def test_replay_refuses_a_gamma_that_is_not_a_number(self, tmp_path, capsys, command, args,
                                                         key, value, message):
        # the config regenerates the same bytes, so only the config comparison refuses it
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
        assert captured.err == f"error: file {out}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command,args,key,value,message", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "gamma", HUGE,
         "entanglement parameter must lie in [0, pi/2], got inf"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "gammas", [HUGE],
         "entanglement parameter must lie in [0, pi/2], got inf"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "table", [3, 0, HUGE, 1],
         "payoff table entry temptation must be finite, got inf"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "noise_readout", HUGE,
         "noise_sigma must be finite and non-negative, got inf"),
    ], ids=["gamma", "gammas", "table", "noise_readout"])
    def test_replay_names_the_file_for_an_integer_too_large_for_a_float(
            self, tmp_path, capsys, command, args, key, value, message):
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
        assert captured.err == f"error: file {out}: {message}\n"
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
         "key 'command' is 'sweep', but landscape writes 'landscape'"),
        ('"preset":"fig3"', '"preset":"fig9"',
         "argument --preset: invalid choice: 'fig9' (choose from 'fig2', 'fig3', 'fig4')"),
        ('"preset":"fig3"', '"preset":"fig2"',
         "key 'gamma' is {fig3!r}, but landscape writes {fig2!r}"),
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

    @pytest.mark.parametrize("command,args,fmt,extra,message", [
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "csv", {"zzz": [1, 2]},
         "unrecognized arguments: --zzz=1,2"),
        ("landscape", ("--preset", "fig2", "--steps", "2"), "json", {"regime": "classical"},
         "unrecognized arguments: --regime=classical"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "csv", {"aaa": 1, "zzz": None},
         "unrecognized arguments: --aaa=1 --zzz=None"),
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "json", {"steps": 3},
         "unrecognized arguments: --steps=3"),
        # a key that is also a flag parses, and the config comparison refuses it
        ("sweep", ("--gamma", "0.6", "--seed", "2"), "json", {"out": "y.csv"},
         "key 'out' is 'y.csv', but sweep writes no such key"),
        ("landscape", ("--gamma", "0.3", "--steps", "3"), "csv", {"replay": "l.csv"},
         "key 'replay' is 'l.csv', but landscape writes no such key"),
    ])
    def test_replay_refuses_keys_no_command_writes(self, tmp_path, capsys, command, args, fmt,
                                                   extra, message):
        # the builders copy the config into the output, so the edited file
        # regenerates byte for byte and only the rebuilt command line refuses it
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
        assert captured.err == f"error: file {out}: {message}\n"
        assert captured.out == ""


    @pytest.mark.parametrize("old, new, message", [
        ('"noise_angle":0.0', '"noise_angle":false',
         "argument --noise-angle: invalid float value: 'False'"),
        ('"noise_readout":0.0', '"noise_readout":false',
         "argument --noise-readout: invalid float value: 'False'"),
        ('"version":"%s"' % __version__, '"version":"9.9"',
         "key 'version' is '9.9', but sweep writes %r" % __version__),
    ], ids=["noise_angle", "noise_readout", "version"])
    def test_replay_refuses_what_no_command_writes_even_at_the_same_bytes(
            self, tmp_path, capsys, old, new, message):
        # without noise, false draws as 0.0 does, and each edit regenerates the
        # edited bytes; the embedded command line is what refuses it
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--gamma", "0.6", "--noise-angle", "0", "--noise-readout", "0",
                       "--out", str(out)) == 0
        text = read(out)
        assert old in text
        out.write_text(text.replace(old, new, 1), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("sweep", "--replay", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: file {out}: {message}\n"  # one line, no usage
        assert captured.out == ""


def rebuilt_metadata(command, meta):
    """The metadata written by the command line rebuilt from meta, as JSON text."""
    args = cli._parse(cli._replay_argv(command, meta))
    ds = args.dataset(args)
    return json.dumps({"kind": ds.kind, **ds.metadata}, sort_keys=True)


def assert_metadata_round_trips(argv):
    """The file argv writes embeds a command line that writes its metadata again."""
    args = cli._parse(argv)
    meta = read_metadata(render(args.dataset(args), args.format))
    assert rebuilt_metadata(args.command, meta) == json.dumps(meta, sort_keys=True)


class TestReplayArgv:
    def test_one_flag_per_key_with_its_value_after_an_equals_sign(self):
        meta = read_metadata(read(DATA / "landscape_fig3_11.csv"))
        assert cli._replay_argv("landscape", meta) == [
            "landscape", "--format=csv", "--preset=fig3", "--steps=11",
            "--table=3.0,0.0,5.0,1.0"]
        meta = {"kind": "sweep_comparison", "command": "sweep", "version": __version__,
                "gammas": [0.1 + 0.2, 0.0], "seed": 3, "table": [-1.0, -2.5, 1.0, -1.5]}
        assert cli._replay_argv("sweep", meta) == [
            "sweep", "--gamma=0.30000000000000004", "--gamma=0.0", "--seed=3",
            "--table=-1.0,-2.5,1.0,-1.5"]

    @pytest.mark.parametrize("command,name", GOLDENS)
    def test_goldens(self, command, name):
        meta = read_metadata(read(DATA / name))
        assert rebuilt_metadata(command, meta) == json.dumps(meta, sort_keys=True)

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["sweep", "--format", "json"],
        *(["landscape", "--preset", p, "--steps", "3"] for p in ("fig2", "fig3", "fig4")),
        ["landscape", "--preset", "fig3", "--table", "4,0,6,2", "--format", "json"],
    ], ids=lambda argv: " ".join(argv))
    def test_default_sweeps_and_presets(self, argv):
        assert_metadata_round_trips(argv)


try:
    from hypothesis import assume, example, given, settings, strategies as st
except ImportError:  # a dev dependency; the cases above run without it
    given = None

if given is not None:
    @st.composite
    def dilemma_tables(draw):
        """(r, s, t, p) with t > r > p > s and p - s <= t - r: a table with two thresholds."""
        s, p, r, t = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4,
                                          unique=True)))
        assume(p - s <= t - r)
        return r, s, t, p

    def _flags(name, values):
        return [f"--{name}={v!r}" for v in values]

    GAMMA = st.floats(0.0, math.pi / 2)
    ROUND_TRIP = settings(derandomize=True, deadline=None, database=None, max_examples=60)

    @ROUND_TRIP
    @given(st.lists(GAMMA, min_size=1, max_size=3), dilemma_tables(), st.floats(0.0, 0.2),
           st.floats(0.0, 0.2), st.integers(0, 2**64), st.sampled_from(["csv", "json"]))
    @example([0.1 + 0.2], (3.0, 0.0, 5.0, 1.0), 0.1 + 0.2 - 0.25, 1 / 3 / 10, 0, "csv")
    def test_a_drawn_sweep_rebuilds_its_metadata(gammas, table, noise_angle, noise_readout,
                                                 seed, fmt):
        assert_metadata_round_trips(["sweep", *_flags("gamma", gammas),
                                     "--table=" + ",".join(map(repr, table)),
                                     *_flags("noise-angle", [noise_angle]),
                                     *_flags("noise-readout", [noise_readout]),
                                     f"--seed={seed}", f"--format={fmt}"])

    @ROUND_TRIP
    @given(st.one_of(GAMMA.map(lambda g: f"--gamma={g!r}"),
                     st.sampled_from(["--preset=fig2", "--preset=fig3", "--preset=fig4"])),
           dilemma_tables(), st.integers(2, 4), st.sampled_from(["csv", "json"]))
    def test_a_drawn_landscape_rebuilds_its_metadata(at, table, steps, fmt):
        assert_metadata_round_trips(["landscape", at, "--table=" + ",".join(map(repr, table)),
                                     f"--steps={steps}", f"--format={fmt}"])


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


class TestOutOfMemory:
    @pytest.mark.parametrize("command, args, builder", [
        ("equilibria", ("--gamma", "0.6", "--grid", "21x11"), "find_nash_grid"),
        ("landscape", ("--gamma", "0.3", "--steps", "5"), "landscape"),
    ])
    def test_memory_error_is_input_error(self, tmp_path, capsys, monkeypatch,
                                         command, args, builder):
        # stands in for a --grid or --steps too large to allocate, without allocating it
        def fail(*_):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, builder, fail)
        out = tmp_path / "x.csv"
        assert run_cli(command, *args, "--out", str(out)) == 1
        assert capsys.readouterr().err == ("error: out of memory "
                                           "(Unable to allocate 74.5 GiB for an array)\n")
        assert not out.exists()


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

    def test_a_typed_parse_error_shows_its_usage(self, capsys):
        assert run_cli("landscape", "--steps", "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qdilemma landscape [-h]")
        assert err.endswith("\nerror: argument --steps: invalid int value: 'x'\n")

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
