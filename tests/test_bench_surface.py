"""The package surface that perfbench/ reads, exercised the way it reads it.

perfbench/ imports the package under test and calls parts of it directly
(checks.recheck_calibration calls evaluate_targets positionally, the
checks read ScenarioConfig attributes).  Each workload runs here once, in
process, on its seed-0 config, and the benchmark's own artifact checks
must report no problem.  perfbench/ is only imported, never changed.
"""

import sys
from pathlib import Path

import pytest

from sma_bimorph.calibration import apply_parameters
from sma_bimorph.cli import run_scenario
from sma_bimorph.config import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_the_benchmark_checks(tmp_path, name):
    workload = WORKLOADS[name]
    cfg = parse_config(config_text(name, 0))
    paths = []
    for command in workload.commands:
        paths += run_scenario(cfg, command, tmp_path, 1)
    problems, failed_cells, report = checks.check_first_repeat(name, cfg, paths)
    assert problems == [] and failed_cells == 0
    if name == "calibrate":
        assert checks.recheck_calibration(cfg, report) == []
        # the fitted config holds the reported parameters, bit for bit
        fitted = parse_config(paths[1].read_text(encoding="utf-8"))
        assert (fitted.props, fitted.env, fitted.geom) == apply_parameters(
            report["parameters"], cfg.props, cfg.env, cfg.geom)
