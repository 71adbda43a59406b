"""Tests of the benchmark itself: workload generator, span arithmetic, names.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from sma_bimorph import calibration, config  # noqa: E402
from workloads import SEEDED_CONSTANTS, WORKLOADS, config_text, seeded_constants  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEEDS = (0, 1, 2, 7, 123, 2**31 - 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_gives_identical_yaml(workload, seed):
    assert config_text(workload, seed).encode() == config_text(workload, seed).encode()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_differ(workload):
    assert len({config_text(workload, seed) for seed in SEEDS}) == len(SEEDS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_every_seed_parses(workload, seed):
    cfg = config.parse_config(config_text(workload, seed))
    assert cfg.warnings == ()
    assert 290.15 <= cfg.env.t_amb <= 296.15
    for name, value in (("h", cfg.props.h), ("k_beam", cfg.geom.k_beam),
                        ("g_tip", cfg.geom.g_tip)):
        lo, hi = calibration.DEFAULT_BOUNDS[name]
        assert lo <= value <= hi


def test_seed_zero_is_the_default_physics():
    defaults = config.parse_config("")
    for workload in WORKLOADS:
        cfg = config.parse_config(config_text(workload, 0))
        assert (cfg.props, cfg.env, cfg.geom, cfg.pwm) == (
            defaults.props, defaults.env, defaults.geom, defaults.pwm)


def test_seeded_ranges_match_calibration_bounds():
    names = {"convection_w_m2_k": "h", "beam_stiffness_nm_rad": "k_beam",
             "tip_gain_m_rad": "g_tip"}
    for _, key, _, bounds in SEEDED_CONSTANTS:
        if key in names:
            assert bounds == calibration.DEFAULT_BOUNDS[names[key]]
    assert seeded_constants(0)["environment"]["ambient_k"] == 293.15


def _span(sid, parent, cpu, thread=1, name="x"):
    return tracing.Span(id=sid, name=name, parent=parent, thread=thread, run=1,
                        start=0.0, end=cpu, cpu_s=cpu)


def test_self_time_subtracts_children_on_the_same_thread():
    spans = [_span(1, None, 10.0), _span(2, 1, 3.0), _span(3, 1, 4.0),
             _span(4, 2, 1.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    assert sum(selfs.values()) == 10.0


def test_self_time_keeps_other_threads_children():
    # pool cells run on worker threads; their CPU was never the parent's
    spans = [_span(1, None, 0.5), _span(2, 1, 3.0, thread=2), _span(3, 1, 3.0, thread=3)]
    assert tracing.self_times(spans) == {1: 0.5, 2: 3.0, 3: 3.0}


def test_wrappers_nest_rebind_and_restore():
    from sma_bimorph import cli, mechanics, metrology
    original = mechanics.run_mode_trace
    tracer = tracing.Tracer()
    tracer.begin_run()
    with tracing.installed(tracer):
        assert cli.run_mode_trace is metrology.run_mode_trace is mechanics.run_mode_trace
        assert mechanics.run_mode_trace is not original
        cfg = config.parse_config("drive:\n  duration_s: 2.0\n")
        mechanics.run_mode_trace(cfg.pwm, cfg.circuit, cfg.props, cfg.env, cfg.geom, 2.0)
    assert mechanics.run_mode_trace is original and calibration.run_mode_trace is original
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["mechanics.run_mode_trace"]
    assert root.parent is None
    for child in ("drive.make_pwm_pair", "mechanics.relaxed_actuator",
                  "mechanics.simulate_drive"):
        assert by_name[child].parent == root.id
    assert by_name["mechanics.simulate_drive"].attrs["samples"] == 4000
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mechanics.traces"] == 1 and metrics["drive.samples"] == 4000


def test_worker_thread_spans_hang_under_the_home_span():
    tracer = tracing.Tracer()
    tracer.begin_run()
    outer = tracer.wrap("outer", lambda fn: fn())
    inner = tracer.wrap("inner", lambda: None)

    def in_thread():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    outer(in_thread)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].thread != by_name["outer"].thread


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert per_layer == [k for k in run.PER_LAYER if k not in run.PRINTED_ONLY]
    assert all(run.PER_LAYER[m["name"]] == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    empty = tracing.layer_metrics([])
    probes = {"sma.wire_ns_per_sample", "mechanics.eq_iters_per_solve",
              "mechanics.eq_us_per_solve", "calibration.anchor_err_pct",
              "trace.wall_s", "trace.overhead_s"}
    assert set(empty) | probes == set(run.PER_LAYER)
