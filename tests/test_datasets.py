import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qdilemma import __version__
from qdilemma.cli import (
    PRESETS,
    _preset_gamma,
    build_equilibria_dataset,
    build_landscape_dataset,
    main,
)
from qdilemma.datasets import FigureDataset, format_number, read_metadata, render, to_csv, to_json
from qdilemma.game import DEFAULT_TABLE

DATA = Path(__file__).parent / "data"


def per_cell_csv_rows(ds):
    """Data rows as format_number writes them one cell at a time."""
    names = list(ds.columns)
    n_rows = len(ds.columns[names[0]])
    return [",".join(format_number(ds.columns[name][i]) for name in names) for i in range(n_rows)]


def oracle_json(ds):
    """The layout to_json reproduces: json.dumps of the whole payload."""
    payload = {
        "kind": ds.kind,
        "metadata": ds.metadata,
        "columns": {
            name: [v if isinstance(v, str) else float(v) for v in values]
            for name, values in ds.columns.items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# where '%.12g' turns from positional to exponent form, rounds up a digit, or
# is not a finite number
EDGES = [1e-4, np.nextafter(1e-4, 0.0), 0.000099999999999995, 1e12, np.nextafter(1e12, 0.0),
         999999999999.5, 999999999999.4, 12345678901.25, 12345678901.75, -1e-7, 201.0,
         math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]


class TestFormatNumber:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1, "1"),
            (1.0, "1.0"),
            (np.float64(0.1), "0.1"),
            (np.float64(2.5), "2.5"),
            (1e-20, "0.00000000000000000001"),
            (1e15, "1000000000000000.0"),
            (1234567890125.0, "1234567890120.0"),  # tie at digit 12 rounds to even
            (1234567890135.0, "1234567890140.0"),
            (1 / 3, "0.333333333333"),
            (np.int64(7), "7"),
            ("DD", "DD"),
        ],
    )
    def test_golden_strings(self, value, text):
        assert format_number(value) == text

    @pytest.mark.parametrize("value", EDGES)
    def test_edges_match_numpy(self, value):
        assert format_number(value) == numpy_positional(value)


def numpy_positional(x):
    """The CSV rendering as numpy's Dragon4 writes it."""
    return np.format_float_positional(float(x), precision=12, unique=False, fractional=False,
                                      trim="0")


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a dev dependency; the edges above run without it
    given = None

if given is not None:
    FLOATS = st.one_of(st.floats(), st.floats(-1e13, 1e13), st.floats(-1e-3, 1e-3),
                       st.integers(-2**50, 2**50).map(lambda k: k / 4))

    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(FLOATS)
    def test_format_number_matches_numpy(x):
        assert format_number(x) == numpy_positional(x)

    # columns that repeat a few values drawn from the edges, signed zeros and
    # NaNs, subnormals and any float
    SPECIAL = [0.0, -0.0, math.copysign(math.nan, -1.0), 1.0, -1.0, 2.2250738585072014e-308,
               1e15, -1e-5]

    @settings(derandomize=True, deadline=None, database=None, max_examples=1000)
    @given(st.lists(st.one_of(st.sampled_from(EDGES + SPECIAL), FLOATS), min_size=1, max_size=8)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40)))
    def test_array_columns_match_per_cell_formatting(values):
        column = np.array(values, dtype=np.float64)
        ds = FigureDataset("array", {"v": column, "w": column[::-1]}, {})
        assert to_csv(ds).splitlines()[2:] == per_cell_csv_rows(ds)
        assert to_json(ds) == oracle_json(ds)


MIXED = [0.0, -0.0, 1, 1.0, np.float64(1.0), -0.0, 0.0, 1, 2.5, True, np.int64(1), 0, -0.0]


class TestCsv:
    def test_equal_values_that_render_differently_stay_apart(self):
        ds = FigureDataset("mixed", {"a": MIXED, "b": list(reversed(MIXED))}, {"x": 1})
        rows = to_csv(ds).splitlines()[2:]
        assert rows == per_cell_csv_rows(ds)
        assert [r.split(",")[0] for r in rows[:5]] == ["0.0", "-0.0", "1", "1.0", "1.0"]

    def test_repeated_and_string_columns(self):
        ts = np.linspace(-1.0, 1.0, 7)
        ds = FigureDataset(
            "landscape",
            {"t": np.repeat(ts, 7).tolist(), "label": ["DD", "QQ"] * 24 + ["x"],
             "v": np.sin(np.arange(49.0)).tolist()},
            {},
        )
        assert to_csv(ds).splitlines()[2:] == per_cell_csv_rows(ds)

    def test_no_columns(self):
        assert to_csv(FigureDataset("empty", {}, {})) == '# meta: {"kind":"empty"}\n\n'


class TestArrayColumns:
    def test_array_and_list_columns_mix(self):
        ds = FigureDataset("mixed", {"t": np.array([0.0, -0.0, 1.0, 0.0, 1e-5, 2.5]),
                                     "label": ["DD", "QQ", "DD", "x", "y", "z"],
                                     "n": [0, 1, 2, np.int64(3), 4, 5], "m": MIXED[:6]},
                           {"seed": 7})
        rows = to_csv(ds).splitlines()[2:]
        assert rows == per_cell_csv_rows(ds)
        assert rows == ["0.0,DD,0,0.0", "-0.0,QQ,1,-0.0", "1.0,DD,2,1", "0.0,x,3,1.0",
                        "0.00001,y,4,1.0", "2.5,z,5,-0.0"]
        assert to_json(ds) == oracle_json(ds)

    @pytest.mark.parametrize("column", [
        np.arange(3), np.zeros((3, 1)), np.zeros(3, np.float32), np.zeros(3, ">f8"),
        np.array(1.0),
    ], ids=["int64", "2-D", "float32", "big-endian", "0-D"])
    def test_refuses_an_array_that_is_not_1d_float64(self, column):
        with pytest.raises(ValueError, match="column 'v' is a .* array, not 1-D float64"):
            FigureDataset("x", {"u": [1.0, 2.0, 3.0], "v": column}, {})

    @pytest.mark.parametrize("preset", PRESETS)
    def test_landscapes_render_as_their_lists(self, preset):
        for fmt in ("csv", "json"):
            config = {"command": "landscape", "version": __version__,
                      "table": list(DEFAULT_TABLE.as_tuple()), "format": fmt,
                      "gamma": _preset_gamma(preset, DEFAULT_TABLE), "steps": 201,
                      "preset": preset}
            ds = build_landscape_dataset(config)
            assert all(isinstance(v, np.ndarray) for v in ds.columns.values())
            listed = FigureDataset(ds.kind, {k: v.tolist() for k, v in ds.columns.items()},
                                   ds.metadata)
            assert render(ds, fmt) == render(listed, fmt)


class TestJson:
    @pytest.mark.parametrize(
        "columns,metadata",
        [
            ({"z": [1.5, -2.0, 7.0], "a": [0.1, 1e-20, 1e300]}, {"b": 1, "a": [1, 2]}),
            ({"label": ['say "hi"', "naïve", "∑ π", "back\\slash", "tab\there"]},
             {"note": "été"}),
            ({"a": [], "b": []}, {}),
            ({}, {"only": "metadata"}),
            ({"v": [math.nan, math.inf, -math.inf, np.float64(math.nan), 0.0]}, {}),
            ({"n": [0, 1, -3, np.int64(4), True] * 2 + [-0.0, 1.0, 2], "m": MIXED}, {}),
            ({"x": [1.0]}, {"nested": {"z": [1, {"c": None, "a": [True, 2.5]}], "a": {}},
                            "empty": [], "t": [3.0, 0.0, 5.0, 1.0]}),
        ],
    )
    def test_matches_json_dumps(self, columns, metadata):
        ds = FigureDataset("kïnd", columns, metadata)
        assert to_json(ds) == oracle_json(ds)

    def test_round_trips_through_json_loads(self):
        ds = FigureDataset("sweep", {"g": [0.0, 0.5], "label": ["DD", "QQ"]}, {"seed": 7})
        payload = json.loads(render(ds, "json"))
        assert payload == {"kind": "sweep", "metadata": {"seed": 7},
                           "columns": {"g": [0.0, 0.5], "label": ["DD", "QQ"]}}


class TestReadMetadata:
    DS = FigureDataset("sweep", {"g": [0.0, 0.5], "label": ["DD", "QQ"]},
                       {"seed": 7, "nested": {"b": [1, 2], "a": "x"}})
    META = {"kind": "sweep", "seed": 7, "nested": {"b": [1, 2], "a": "x"}}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reads_what_render_wrote(self, fmt):
        assert read_metadata(render(self.DS, fmt)) == self.META

    @pytest.mark.parametrize("layout", [
        lambda ds: "a,b\n" + to_csv(ds),
        lambda ds: json.dumps(json.loads(to_json(ds))),
        lambda ds: " " + to_json(ds),
        lambda ds: to_json(ds) + "}",
    ])
    def test_other_layouts_are_refused(self, layout):
        with pytest.raises(ValueError, match="no embedded metadata found"):
            read_metadata(layout(self.DS))

    def test_a_damaged_column_leaves_the_metadata_readable(self):
        text = to_json(self.DS).replace("0.5", "nonsense")
        with pytest.raises(ValueError):
            json.loads(text)
        assert read_metadata(text) == self.META

    def test_replay_of_a_damaged_json_column_exits_1(self, tmp_path, capsys):
        path = tmp_path / "l.json"
        assert main(["landscape", "--gamma", "0.3", "--steps", "5", "--format", "json",
                     "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        damaged = text.replace("\n      3.0,", "\n      nonsense,", 1)
        assert damaged != text
        path.write_text(damaged, encoding="utf-8")
        capsys.readouterr()
        assert main(["landscape", "--replay", str(path)]) == 1
        assert "replay mismatch" in capsys.readouterr().err


class TestGoldenFixtures:
    """Files written by an earlier version must still regenerate byte for byte."""

    @pytest.mark.parametrize(
        "command,name",
        [
            ("landscape", "landscape_fig3_11.csv"),
            ("landscape", "landscape_fig3_11.json"),
            ("sweep", "sweep_seed7.csv"),
            ("sweep", "sweep_seed7.json"),
        ],
    )
    def test_replay(self, command, name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--replay", str(DATA / name)]) == 0
        assert "regenerates byte-identically" in out.getvalue()

    @pytest.mark.parametrize(
        "args,name,companion",
        [
            (("nmr", "--gamma", "0.6", "--noise-angle", "0.05", "--seed", "3"),
             "nmr_g0.6_noise0.05_seed3.json", ".pulses.txt"),
            (("tomo", "--gamma", "0.6", "--noise-readout", "0.03", "--noise-angle", "0.05",
              "--seed", "3"), "tomo_g0.6_readout0.03_noise0.05_seed3.json", ".records.txt"),
        ],
    )
    def test_report_and_listing_regenerate(self, tmp_path, args, name, companion):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*args, "--out", str(out)]) == 0
        for suffix in ("", companion):
            assert Path(f"{out}{suffix}").read_bytes() == (DATA / f"{name}{suffix}").read_bytes()

    def test_equilibria_regenerates(self):
        text = (DATA / "equilibria_g0.6_21x11.csv").read_text(encoding="utf-8")
        meta = read_metadata(text)
        assert meta.pop("kind") == "equilibria"
        assert render(build_equilibria_dataset(meta), meta["format"]) == text

    def test_threshold_equilibria_json_regenerates(self):
        # JSON keeps every bit of the payoffs; at gamma_th2 the D/Q equilibria
        # coexist with the mutual-quantum ones
        text = (DATA / "equilibria_g0.6847192030022829_21x11.json").read_text(encoding="utf-8")
        meta = read_metadata(text)
        assert meta.pop("kind") == "equilibria"
        assert render(build_equilibria_dataset(meta), meta["format"]) == text
