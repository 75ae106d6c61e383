"""The benchmark's workloads still write the outputs committed in
`perfbench/expected.json`: call 0 of each workload at full scale and the
committed seed, through perfbench's own config, argv and checksum code."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from saflip import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["fixture-sweep", "unsat-budget", "tune-screen"])
def test_seed_7_call_writes_the_committed_outputs(workloads, workload, tmp_path, capsys):
    expected = json.loads(workloads.EXPECTED.read_text())
    assert expected["seed"] == workloads.DEFAULT_SEED
    config = workloads.write_config(workload, tmp_path, workloads.FULL)
    out = tmp_path / "out"
    argv = workloads.cli_argv(workload, config, out, expected["seed"], workloads.FULL)
    # In this process, under the session's kernel and parse cache; tune-screen
    # goes through `saflip.cli` itself, not the counting wrapper.
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert workloads.output_checksum(out) == expected["checksums"][workload]
