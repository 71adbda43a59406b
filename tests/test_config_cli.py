import math
import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sma_bimorph import (ActuatorGeometry, AmadoResult, CalibrationProblem, CircuitParams,
                         Environment, PwmConfig, SweepTable, SwimmerParams, WireProperties, cli,
                         parse_config)
from sma_bimorph.cli import run_scenario
from sma_bimorph.config import _KEYS
from sma_bimorph.csvio import write_csv
from sma_bimorph.errors import ConfigError, ParameterError

# a child interpreter imports the package from where this one found it
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))


def bimorph(*args):
    """Run the CLI in a new interpreter, capturing its output as text."""
    return subprocess.run([sys.executable, "-m", "sma_bimorph.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


class TestParseConfig:
    def test_empty_config_gives_protocol_defaults(self):
        cfg = parse_config("")
        assert cfg.pwm.sample_rate == 2000.0
        assert cfg.pwm.frequency == 1.0 and cfg.pwm.duty_cycle == 0.10
        assert cfg.circuit.i_on == 0.250 and cfg.circuit.r_a == 4.45
        assert cfg.duration == 30.0
        assert cfg.run_length == 30.0 and cfg.steady_window == 15.0
        assert cfg.sweep_frequencies == (1.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.sweep_duty_cycles == tuple(d / 100 for d in range(1, 11))
        assert cfg.props.a_f == 363.15
        assert cfg.props.diameter == pytest.approx(38.1e-6)
        assert cfg.swimmer.body_length == pytest.approx(34e-3)
        assert cfg.warnings == ()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="powertrain"):
            parse_config("powertrain:\n  x: 1\n")

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="drive.frequency_hzz"):
            parse_config("drive:\n  frequency_hzz: 2\n")

    def test_single_character_typo_fails(self):
        with pytest.raises(ConfigError, match="geometry.lenght_m"):
            parse_config("geometry:\n  lenght_m: 0.014\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="drive.frequency_hz"):
            parse_config("drive:\n  frequency_hz: fast\n")

    def test_invariant_violation_carries_section(self):
        with pytest.raises(ConfigError, match="sma"):
            parse_config("sma:\n  m_s_k: 400.0\n")

    def test_overcurrent_rejected(self):
        with pytest.raises(ConfigError, match="drive"):
            parse_config("drive:\n  i_on_a: 0.3\n")

    def test_high_duty_dry_air_warns_about_stuck_state(self):
        cfg = parse_config("drive:\n  duty_cycle_pct: 11\n")
        assert len(cfg.warnings) == 1
        assert "stuck" in cfg.warnings[0]
        # over water (higher convection) the same duty is not flagged
        cfg = parse_config("drive:\n  duty_cycle_pct: 11\n"
                           "environment:\n  convection_multiplier: 1.5\n")
        assert cfg.warnings == ()

    def test_not_yaml_rejected(self):
        # an integer over 4300 digits makes the YAML loader raise ValueError
        for text in ("drive: [unclosed\n", "drive:\n  duration_s: 1" + "0" * 5000 + "\n"):
            with pytest.raises(ConfigError, match="not valid YAML"):
                parse_config(text)

    def test_non_finite_numbers_name_their_key(self):
        # NaN passes every `value <= 0` field check; .inf overflowed int(), and
        # an integer beyond float range overflowed float()
        probes = [(f"{section}.{key}",
                   f"{section}:\n  {key}: {f'[{value}]' if tag == 'number_list' else value}\n")
                  for section, keys in _KEYS.items()
                  for key, (tag, *_) in keys.items()
                  if tag in ("number", "integer", "number_list")
                  for value in (".nan", ".inf", "-.inf", "1" + "0" * 400)]
        assert len(probes) == 244
        missed = []
        for path, text in probes:
            try:
                parse_config(text)
                missed.append(f"{text!r} accepted")
            except ConfigError as exc:
                if path not in str(exc):
                    missed.append(f"{text!r}: {exc}")
        assert missed == []

    def test_calibration_section_round_trip(self):
        cfg = parse_config(
            "calibration:\n"
            "  free_parameters: [g_tip]\n"
            "  targets: [[1.0, 10.0, 7.08]]\n"
            "  budget: 25\n"
            "  bounds:\n"
            "    g_tip: [0.01, 0.03]\n")
        assert cfg.calibration.free == ("g_tip",)
        assert cfg.calibration.targets == ((1.0, 0.10, 7.08),)
        assert cfg.calibration.bound("g_tip") == (0.01, 0.03)


SMALL_SWEEP = ("metrology:\n"
               "  frequencies_hz: [1, 5]\n"
               "  duty_cycles_pct: [5, 10]\n"
               "  run_s: 6\n"
               "  steady_window_s: 3\n")


class TestRunScenario:
    def test_power_artifact_reproduces_published_numbers(self, tmp_path):
        cfg = parse_config("")
        paths = run_scenario(cfg, "power", out_dir=tmp_path)
        data = np.genfromtxt(paths[0], delimiter=",", names=True)
        assert data["p_a_w"].max() == pytest.approx(0.278125, abs=1e-12)
        assert data["p_a_w"].mean() == pytest.approx(0.055625, rel=1e-9)
        assert data["v_t_v"].max() == pytest.approx(1.1125, abs=1e-12)

    def test_sweep_zero_duty_grid(self, tmp_path):
        cfg = parse_config("metrology:\n  frequencies_hz: [1, 5]\n"
                           "  duty_cycles_pct: [0]\n  run_s: 6\n  steady_window_s: 3\n")
        paths = run_scenario(cfg, "sweep", out_dir=tmp_path)
        data = np.genfromtxt(paths[0], delimiter=",", names=True)
        assert (data["amado_mm"] == 0.0).all()

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = parse_config("drive:\n  duration_s: 4\n")
        first = run_scenario(cfg, "simulate", out_dir=tmp_path / "a")[0].read_bytes()
        second = run_scenario(cfg, "simulate", out_dir=tmp_path / "b")[0].read_bytes()
        assert first == second

    def test_sweep_threads_do_not_change_bytes(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        one = run_scenario(cfg, "sweep", out_dir=tmp_path / "t1", threads=1)[0].read_bytes()
        four = run_scenario(cfg, "sweep", out_dir=tmp_path / "t4", threads=4)[0].read_bytes()
        assert one == four

    def test_sweep_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the sweep started a thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = parse_config(SMALL_SWEEP)
        path = run_scenario(cfg, "sweep", out_dir=tmp_path, threads=4)[0]
        assert len(path.read_text().splitlines()) == 5

    def test_sweep_csv_header_contract(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        path = run_scenario(cfg, "sweep", out_dir=tmp_path)[0]
        first_line = path.read_text().splitlines()[0]
        assert first_line == "f_hz,dc_pct,amado_mm,amado_std_mm,amado_norm"

    def test_trace_csv_header_contract(self, tmp_path):
        cfg = parse_config("drive:\n  duration_s: 4\n")
        path = run_scenario(cfg, "simulate", out_dir=tmp_path)[0]
        assert path.read_text().splitlines()[0] == "t_s,delta_mm,delta_filt_mm"

    @pytest.mark.parametrize("command", ["simulate", "power", "swim"])
    def test_every_csv_field_is_the_repr_of_the_computed_value(self, tmp_path, monkeypatch,
                                                               command):
        # record the columns each command hands the writer, then read every
        # field back: a drift in the formatter shows without golden digests
        handed = {}

        def recording(path, schema, columns):
            handed[Path(path).name] = (schema, [np.array(c, dtype=np.float64) for c in columns])
            return write_csv(path, schema, columns)

        monkeypatch.setattr(cli, "write_csv", recording)
        cfg = parse_config("drive:\n  duration_s: 2\n"
                           "metrology:\n  run_s: 4\n  steady_window_s: 3\n")
        paths = run_scenario(cfg, command, out_dir=tmp_path)
        assert sorted(p.name for p in paths) == sorted(handed)
        for path in paths:
            schema, columns = handed[path.name]
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == schema.header
            assert len(lines) - 1 == len(columns[0]) > 0
            for n, line in enumerate(lines[1:]):
                assert line.split(",") == [repr(float(c[n])) for c in columns], (path.name, n)

    def test_unknown_command_rejected(self, tmp_path):
        cfg = parse_config("")
        with pytest.raises(ConfigError):
            run_scenario(cfg, "render", out_dir=tmp_path)


class TestCliProcess:
    def test_power_command_exit_zero(self, tmp_path):
        result = bimorph("power", "--out", str(tmp_path))
        assert result.returncode == 0
        assert "wrote" in result.stdout
        assert (tmp_path / "default_power.csv").exists()

    def test_bad_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("drive:\n  frequency_hzz: 2\n")
        result = bimorph("power", "--config", str(bad), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "frequency_hzz" in result.stderr

    def test_missing_config_file_exit_two(self, tmp_path):
        result = bimorph("power", "--config", str(tmp_path / "nope.yaml"))
        assert result.returncode == 2

    def test_calibration_window_longer_than_run_exit_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("calibration:\n  run_s: 4\n  steady_window_s: 5\n")
        result = bimorph("calibrate", "--config", str(bad), "--out", str(tmp_path))
        assert result.returncode == 2
        assert "calibration" in result.stderr

    @pytest.mark.parametrize("command, text, key", [
        ("sweep", "metrology:\n  run_s: 0\n  steady_window_s: 0\n", "metrology.run_s"),
        ("sweep", "metrology:\n  run_s: 1\n  steady_window_s: 0\n"
                  "  frequencies_hz: [5]\n  duty_cycles_pct: [10]\n",
         "metrology.steady_window_s"),
        ("calibrate", "calibration:\n  run_s: 0\n  steady_window_s: 0\n",
         "calibration.run_s: run_length"),
        ("calibrate", "calibration:\n  run_s: 4\n  steady_window_s: 0\n  budget: 1\n",
         "calibration.steady_window_s: steady_window"),
    ], ids=["metrology-run", "metrology-window", "calibration-run", "calibration-window"])
    def test_non_positive_run_length_exit_two(self, tmp_path, command, text, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        result = bimorph(command, "--config", str(bad), "--out", str(tmp_path))
        assert result.returncode == 2
        assert key in result.stderr

    @pytest.mark.parametrize("text, message", [
        ("calibration:\n  run_s: 0\n", "calibration.run_s: run_length must be > 0 s"),
        ("sma:\n  diameter_m: 0\n", "sma.diameter_m: diameter must be > 0"),
        ("drive:\n  sample_rate_hz: 5\n",
         "drive.sample_rate_hz: sample_rate must be >= 10x frequency = 10.0 Hz, got 5.0"),
        ("geometry:\n  wire_angle_deg: 90\n", "geometry.wire_angle_deg: alpha must be"),
        ("metrology:\n  fir_order: 3\n", "metrology.fir_order: order must be"),
        ("metrology:\n  fir_cutoff_hz: 1000\n", "metrology.fir_cutoff_hz: cutoff must be"),
        ("drive:\n  sample_rate_hz: 500\n  duration_s: 2\n",
         "drive.sample_rate_hz: must be >= 1000 Hz"),
        ("drive:\n  sample_rate_hz: 150\n", "drive.sample_rate_hz: must be >= 1000 Hz"),
        ("swimmer:\n  drive_frequency_hz: -1\n",
         "swimmer.drive_frequency_hz: swim_drive_frequency must be > 0"),
        ("swimmer:\n  scan_frequencies_hz: [1, -2]\n",
         "swimmer.scan_frequencies_hz: swim_scan_frequencies must be all >= 0"),
        ("calibration:\n  targets: [[0, 10, 7.08]]\n", "calibration.targets: targets must be"),
        ("metrology:\n  frequencies_hz: [-1, 5]\n",
         "metrology.frequencies_hz: sweep_frequencies must be all > 0"),
        ("metrology:\n  duty_cycles_pct: [150]\n",
         "metrology.duty_cycles_pct: sweep_duty_cycles must be all in [0, 1]"),
        ("metrology:\n  frequencies_hz: [5]\n  duty_cycles_pct: [0, 100]\n",
         "metrology: cell (f=5 Hz, DC=100%) cannot be measured: duty_cycle 1.0 overlaps"),
        ("metrology:\n  frequencies_hz: [5]\n  steady_window_s: 0.5\n",
         "metrology: cell (f=5 Hz, DC=1%) cannot be measured: steady window holds 2 whole"),
        ("calibration:\n  run_s: 2\n  steady_window_s: 1\n",
         "calibration.targets: cell (f=1 Hz, DC=10%) cannot be measured: steady window "
         "holds 1 whole"),
        ("drive:\n  duty_cycle_pct: 60\n", "drive.duty_cycle_pct: duty_cycle 0.6 overlaps"),
        ("swimmer:\n  drive_frequency_hz: 0.1\n",
         "swimmer: cell (f=0.1 Hz, DC=12%) cannot be measured: steady window holds 1 whole"),
        ("drive:\n  on_height_v: 15.0\n", "drive.on_height_v: unknown key"),
        ("geometry:\n  mass_kg: 1.0e-5\n", "geometry.mass_kg: unknown key"),
        ("geometry:\n  volume_m3: 4.8e-9\n", "geometry.volume_m3: unknown key"),
        ("metrology:\n  frequencies_hz: [5, 5.0]\n  duty_cycles_pct: [10]\n",
         "metrology.frequencies_hz: entries must be distinct"),
        ("metrology:\n  duty_cycles_pct: [10, 5, 10.0]\n",
         "metrology.duty_cycles_pct: entries must be distinct"),
        ("swimmer:\n  scan_frequencies_hz: [2, 1, 2.0]\n",
         "swimmer.scan_frequencies_hz: entries must be distinct"),
        ("drive:\n  duration_s: .inf\n", "drive.duration_s: expected a number, got inf"),
        ("metrology:\n  fir_order: 8000\n  run_s: 4\n  steady_window_s: 3\n"
         "  frequencies_hz: [5]\n  duty_cycles_pct: [10]\n",
         "metrology.fir_order: order must be < 7999"),
        ("drive:\n  duration_s: 2\nmetrology:\n  fir_order: 4000\n",
         "metrology.fir_order: order must be < 3999"),
        ("drive:\n  duration_s: 1\n",
         "drive.duration_s: duration must be >= two periods of 1.0 Hz = 2.0 s, got 1.0"),
        ("drive:\n  duration_s: 2.5\n",
         "drive.duration_s: trace spans 2.500000 periods; an integer number is required"),
    ], ids=["calibration-run", "sma-diameter", "drive-rate", "geometry-angle", "fir-order",
            "fir-cutoff-nyquist", "drive-rate-500", "drive-rate-150", "swim-drive-frequency",
            "swim-scan-negative", "calibration-target-zero-frequency", "sweep-frequency-negative",
            "sweep-duty-cycle-above-100", "sweep-cell-overlap", "sweep-cell-short-window",
            "calibration-cell-one-period", "drive-overlap", "swim-cell-one-period",
            "drive-on-height", "geometry-mass", "geometry-volume", "sweep-frequency-duplicate",
            "sweep-duty-cycle-duplicate", "swim-scan-duplicate", "drive-duration-inf",
            "fir-kernel-longer-than-cell", "fir-kernel-longer-than-simulate",
            "drive-duration-one-period", "power-fractional-periods"])
    def test_field_check_names_the_key_written(self, tmp_path, text, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        result = bimorph("power", "--config", str(bad), "--out", str(tmp_path))
        assert result.returncode == 2
        assert message in result.stderr

    def test_threads_flag_is_gone(self):
        result = bimorph("sweep", "--help")
        assert result.returncode == 0
        assert "--threads" not in result.stdout

    def test_warning_emitted_on_stderr(self, tmp_path):
        risky = tmp_path / "risky.yaml"
        risky.write_text("drive:\n  duty_cycle_pct: 11\n  duration_s: 2\n")
        result = bimorph("power", "--config", str(risky), "--out", str(tmp_path))
        assert result.returncode == 0
        assert "stuck" in result.stderr


class TestRemainingCommands:
    def test_swim_artifacts(self, tmp_path):
        cfg = parse_config("metrology:\n  run_s: 8\n  steady_window_s: 4\n"
                           "swimmer:\n  scan_frequencies_hz: [3, 4]\n")
        paths = run_scenario(cfg, "swim", out_dir=tmp_path)
        trajectory = np.genfromtxt(paths[0], delimiter=",", names=True)
        scan = np.genfromtxt(paths[1], delimiter=",", names=True)
        assert paths[0].name.endswith("_trajectory.csv")
        assert trajectory["x_mm"][-1] > 0.0           # swims forward
        assert abs(trajectory["psi_deg"][-1]) < 5.0   # essentially straight
        assert scan["v_mm_s"][1] > scan["v_mm_s"][0]  # faster at 4 Hz than 3 Hz

    def test_calibrate_report(self, tmp_path):
        cfg = parse_config("calibration:\n  free_parameters: [g_tip]\n"
                           "  targets: [[1.0, 10.0, 7.08]]\n  budget: 25\n"
                           "  run_s: 6\n  steady_window_s: 3\n")
        path = run_scenario(cfg, "calibrate", out_dir=tmp_path)[0]
        text = path.read_text()
        assert "fitted parameters:" in text and "g_tip" in text
        assert "residual" in text


class TestConfigReach:
    """Every drive.* and metrology.fir_* key reaches every command."""

    ONE_CELL = ("metrology:\n  frequencies_hz: [1]\n  duty_cycles_pct: [10]\n"
                "  run_s: 4\n  steady_window_s: 3\n")
    SHORT_FIT = ("calibration:\n  free_parameters: [g_tip]\n  budget: 3\n"
                 "  run_s: 4\n  steady_window_s: 3\n")

    def _artifact(self, text, command, out_dir):
        return run_scenario(parse_config(text), command, out_dir=out_dir)[0].read_bytes()

    def test_sweep_sees_phase_shift(self, tmp_path):
        shifted = self._artifact(self.ONE_CELL + "drive:\n  phase_shift: 0.3\n",
                                 "sweep", tmp_path / "a")
        default = self._artifact(self.ONE_CELL + "drive:\n  phase_shift: 0.5\n",
                                 "sweep", tmp_path / "b")
        assert shifted != default

    @pytest.mark.parametrize("override", ["drive:\n  sample_rate_hz: 4000\n",
                                          "metrology:\n  fir_cutoff_hz: 50\n"],
                             ids=["sample_rate", "fir_cutoff"])
    def test_calibrate_sees_protocol_keys(self, tmp_path, override):
        default = self._artifact(self.SHORT_FIT, "calibrate", tmp_path / "a")
        changed = self._artifact(self.SHORT_FIT + override, "calibrate", tmp_path / "b")
        assert changed != default


def test_shipped_example_config_matches_defaults():
    # the annotated example spells out every default explicitly
    text = (Path(__file__).parent.parent / "configs" / "characterization.yaml").read_text()
    explicit = parse_config(text)
    defaults = parse_config("")
    assert explicit.pwm == defaults.pwm
    assert explicit.circuit == defaults.circuit
    assert explicit.props == defaults.props
    assert explicit.env == defaults.env
    assert explicit.geom == defaults.geom
    assert explicit.swimmer == defaults.swimmer
    assert explicit.calibration == defaults.calibration
    assert explicit.scenario == "characterization"


def test_sweep_columns_place_failed_cells_as_nan_rows():
    rows = tuple(AmadoResult(frequency=f, duty_cycle=dc, mado=np.array([a]), amado=a,
                             std=0.0, normalized=1.0)
                 for f, dc, a in ((1.0, 0.05, 4.0), (5.0, 0.05, 1.0)))
    table = SweepTable(rows=rows, av_max={1.0: 4.0, 5.0: 1.0},
                       errors={(1.0, 0.1): "NumericError: boom"})
    columns = cli.sweep_columns(table)
    assert all(c.dtype == np.float64 and c.ndim == 1 for c in columns)
    f, dc, amado, std, normalized = columns
    np.testing.assert_array_equal(f, [1.0, 1.0, 5.0])
    np.testing.assert_array_equal(dc, [5.0, 10.0, 5.0])
    np.testing.assert_array_equal(amado, [4.0, np.nan, 1.0])
    np.testing.assert_array_equal(std, [0.0, np.nan, 0.0])
    np.testing.assert_array_equal(normalized, [1.0, np.nan, 1.0])



# every float field of the parameter dataclasses, and each end of a calibration bound
NAN_FIELDS = [pytest.param(cls, f.name, {f.name: math.nan}, id=f"{cls.__name__}.{f.name}")
              for cls in (PwmConfig, CircuitParams, WireProperties, Environment,
                          ActuatorGeometry, SwimmerParams)
              for f in fields(cls) if isinstance(f.default, float)]
NAN_FIELDS += [pytest.param(CalibrationProblem, "bounds", {"bounds": {"h": pair}},
                            id=f"CalibrationProblem.bounds-{end}")
               for end, pair in (("lo", (math.nan, 170.0)), ("hi", (140.0, math.nan)))]


@pytest.mark.parametrize("cls, name, kwargs", NAN_FIELDS)
def test_nan_field_raises_naming_the_field(cls, name, kwargs):
    # the API path: no config file sits between the caller and the dataclass
    assert len(NAN_FIELDS) == 49
    with pytest.raises(ParameterError) as info:
        cls(**kwargs)
    assert info.value.field == name
