"""The characterization chain: `bimorph calibrate` writes the input config at
the fit (`<scenario>_fitted.yaml`), and `bimorph sweep --config` on it
measures the grid there.  The sha256 of the default and the fitted grid CSVs
are the `sweeps` section of tests/digests.json, which tests/test_digests.py
computes."""

import copy
from dataclasses import replace

from sma_bimorph import calibrate, cli, parse_config, run_sweep
from sma_bimorph.config import _KEYS, fitted_config_text, free_parameter_keys
from sma_bimorph.csvio import SWEEP_SCHEMA, write_csv
from test_digests import default_sweep_sha256, pinned, sweep_sha256

# calibration.FREE_PARAMETERS name -> the (section, key) that sets it
FREE_KEYS = {
    "h": ("sma", "convection_w_m2_k"),
    "convection_multiplier": ("environment", "convection_multiplier"),
    "k_beam": ("geometry", "beam_stiffness_nm_rad"),
    "g_tip": ("geometry", "tip_gain_m_rad"),
    "c_a": ("sma", "stress_coeff_a_pa_k"),
    "c_m": ("sma", "stress_coeff_m_pa_k"),
    "eps_l": ("sma", "max_recoverable_strain"),
    "pre_strain": ("sma", "pre_strain"),
}

# 4 s cells; non-default keys in several sections, one of them (tip gain) a
# free parameter that the fit overwrites and one (pre-strain) a parameter
# that is not free here
ROUND_TRIP = """\
drive: {i_on_a: 0.24}
environment: {ambient_k: 294.0}
geometry: {tip_gain_m_rad: 0.02, moment_arm_m: 1.7e-3}
sma: {pre_strain: 5.0e-4}
metrology: {run_s: 4, steady_window_s: 3, frequencies_hz: [1, 5], duty_cycles_pct: [5, 10]}
swimmer: {thrust_coeff: 1.5e-8}
calibration: {free_parameters: [g_tip, h, convection_multiplier], budget: 4,
              targets: [[1, 10, 7.0], [5, 10, 1.0]], run_s: 4, steady_window_s: 3}
run: {scenario: roundtrip}
"""


def test_default_sweep_keeps_its_bytes(tmp_path):
    # the default 50-cell grid of 30 s cells at the nominal constants
    assert default_sweep_sha256(tmp_path) == pinned("sweeps")["default"]


def test_fitted_sweep_keeps_its_bytes(tmp_path, calibrated_sweep):
    # the default grid at the anchor fit: what `bimorph sweep --config
    # default_fitted.yaml` writes (see test_default_fit_round_trips)
    assert sweep_sha256(calibrated_sweep, tmp_path) == pinned("sweeps")["fitted"]


def test_each_free_parameter_is_set_by_one_key_in_its_unit():
    assert free_parameter_keys() == FREE_KEYS
    entries = [entry[1:3] for keys in _KEYS.values() for entry in keys.values()]
    for name, (section, key) in FREE_KEYS.items():
        _, owner, field_name, convert = _KEYS[section][key]
        assert convert is None and entries.count((owner, field_name)) == 1, name


def test_default_fit_round_trips(tmp_path, calibrated):
    assert cli.main(["calibrate", "--out", str(tmp_path)]) == 0
    fitted = parse_config((tmp_path / "default_fitted.yaml").read_text(encoding="utf-8"))
    fit = calibrated.result
    assert (fitted.props, fitted.env, fitted.geom) == (fit.props, fit.env, fit.geom)


def test_calibrate_then_sweep_measures_the_fit(tmp_path):
    config = tmp_path / "roundtrip.yaml"
    config.write_text(ROUND_TRIP, encoding="utf-8")
    assert cli.main(["calibrate", "--config", str(config), "--out", str(tmp_path)]) == 0
    fitted_path = tmp_path / "roundtrip_fitted.yaml"
    assert cli.main(["sweep", "--config", str(fitted_path), "--out", str(tmp_path)]) == 0

    cfg = parse_config(ROUND_TRIP)
    result = calibrate(cfg.calibration, cfg.circuit, cfg.props, cfg.env, cfg.geom,
                       pwm=cfg.pwm, fir=cfg.fir)
    assert result.parameters["h"] != cfg.props.h   # the search moved a parameter
    fitted = parse_config(fitted_path.read_text(encoding="utf-8"))
    assert fitted == replace(cfg, props=result.props, env=result.env, geom=result.geom)
    before = copy.deepcopy(cfg.mapping)
    assert fitted_config_text(cfg, result.parameters) == fitted_path.read_text(encoding="utf-8")
    assert cfg.mapping == before   # the input mapping is left as parsed
    free = {FREE_KEYS[name] for name in cfg.calibration.free}
    for section, keys in cfg.mapping.items():
        for key, value in keys.items():
            if (section, key) not in free:
                assert fitted.mapping[section][key] == value, f"{section}.{key}"

    table = run_sweep(cfg.sweep_frequencies, cfg.sweep_duty_cycles, cfg.circuit,
                      result.props, result.env, result.geom, protocol=cfg.protocol)
    expected = write_csv(tmp_path / "expected.csv", SWEEP_SCHEMA, cli.sweep_columns(table))
    assert (tmp_path / "roundtrip_sweep.csv").read_bytes() == expected.read_bytes()
