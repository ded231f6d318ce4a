"""Every workload the benchmark in ``perfbench/`` runs is a config the
program accepts.

A renamed or removed config key would fail every benchmark run; it fails
here first. The configs are read from the files as ``nodewatch`` reads its
own. This test only reads ``perfbench/``, and leaves none of its modules
imported.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nodewatch.cli import RunConfig
from nodewatch.synthgen import SynthConfig
from nodewatch.util import read_config, write_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("oracles", "workloads")  # in import order


def load_workloads():
    """``perfbench/workloads.py``, and the ``oracles`` module it imports;
    ``sys.modules`` is left as it was."""
    saved = {name: sys.modules.pop(name, None) for name in NAMES}
    try:
        for name in NAMES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # looked up by name: the import, and dataclasses
            spec.loader.exec_module(module)
        return module
    finally:
        for name, prior in saved.items():
            if prior is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = prior


def test_loading_leaves_sys_modules_as_it_was():
    before = {name: sys.modules.get(name) for name in NAMES}
    assert load_workloads().WORKLOADS
    assert {name: sys.modules.get(name) for name in NAMES} == before


@pytest.mark.parametrize("toy", [False, True], ids=["full", "toy"])
def test_every_workload_config_is_accepted(tmp_path, toy):
    wl = load_workloads()
    for name, workload in wl.WORKLOADS.items():
        synth, run = tmp_path / f"{name}_synth.json", tmp_path / f"{name}_run.json"
        write_json(synth, wl.synth_config(workload, 1, toy))
        write_json(run, wl.run_config(workload, 1, "data"))
        assert read_config(SynthConfig, synth).seed == 1
        assert read_config(RunConfig, run).data_dir == "data"
