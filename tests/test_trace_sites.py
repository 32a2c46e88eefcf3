"""The benchmark tracer rebinds library functions at the module globals where
their callers look them up.  These tests pin those lookup sites, so a
refactor that drops or renames one fails here rather than in a traced run."""

import importlib.util
import pathlib

import pytest

from qdilemma import cli

_TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
ROWS = [pytest.param(row, id=f"{row[1].__name__}.{row[2]}") for row in tracer.TARGETS]


@pytest.mark.parametrize("row", ROWS)
def test_each_site_binds_the_defining_function(row):
    _, module, attr, sites, _ = row
    fn = getattr(module, attr)
    assert callable(fn) and fn.__module__ == module.__name__
    for site in sites:
        assert site.__dict__.get(attr) is fn, f"{site.__name__} does not bind {attr}"


def test_installed_rebinds_every_site_and_restores_it():
    originals = {(site.__name__, attr): getattr(module, attr)
                 for _, module, attr, sites, _ in tracer.TARGETS for site in sites}
    builders = dict(cli._BUILDERS)
    defined = {getattr(module, attr) for _, module, attr, _, _ in tracer.TARGETS}
    assert set(builders.values()) <= defined

    with tracer.Recorder().installed():
        for _, module, attr, sites, _ in tracer.TARGETS:
            for site in sites:
                bound = site.__dict__[attr]
                assert bound is not originals[site.__name__, attr]
                assert bound.__wrapped__ is originals[site.__name__, attr]
        for key, fn in cli._BUILDERS.items():
            assert fn.__wrapped__ is builders[key]

    for _, module, attr, sites, _ in tracer.TARGETS:
        for site in sites:
            assert site.__dict__[attr] is originals[site.__name__, attr]
    assert cli._BUILDERS == builders
    assert all(cli._BUILDERS[k] is fn for k, fn in builders.items())


def test_hooks_read_the_run_arguments(tmp_path):
    recorder = tracer.Recorder()
    with recorder.installed():
        assert cli.main(["nmr", "--gamma", "0.6", "--noise-angle", "0.05", "--seed", "3",
                         "--out", str(tmp_path / "n.json")]) == 0
    runs = [s.data for s in recorder.spans if s.name == "nmr.run_experiment"]
    assert runs == [{"given_prims": 4, "noisy": True, "t2": False}]
    # the entangler and disentangler have three primitives, DQ has four
    assert {s.data["prims"] for s in recorder.spans if s.name == "nmr.compile"} == {3, 4}
