from dataclasses import replace

import pytest

from sma_bimorph import (CalibrationProblem, apply_parameters, calibrate)
from sma_bimorph import calibration
from sma_bimorph.calibration import DEFAULT_BOUNDS, evaluate_targets
from sma_bimorph.errors import ParameterError
from test_digests import FREE_SET_PROBLEM, pinned

# (t_amb K, h W/m^2/K, k_beam N*m/rad, g_tip m/rad) that perfbench's workload
# generator draws for its seeds 1 and 2
SEEDED_CONSTANTS = (
    (290.9561854646744, 165.42301210811698, 0.01081887309488307, 0.013611518566267277),
    (295.8862056313355, 168.43482461178047, 0.007282756838634044, 0.009867183893496275),
)


class TestProblemValidation:
    def test_empty_free_set_rejected(self):
        with pytest.raises(ParameterError):
            CalibrationProblem(free=(), targets=((1.0, 0.10, 7.08),))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            CalibrationProblem(free=("flux",), targets=((1.0, 0.10, 7.08),))

    def test_bad_target_rejected(self):
        with pytest.raises(ParameterError):
            CalibrationProblem(free=("g_tip",), targets=((1.0, 0.10, -3.0),))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ParameterError):
            CalibrationProblem(free=("g_tip",), targets=((1.0, 0.10, 7.0),),
                               bounds={"g_tip": (2.0, 1.0)})


class TestCalibrate:
    def test_round_trip_identifiability(self, circuit, props, env, geom):
        # targets generated by the model itself at a known tip gain; the fit
        # must recover it from a perturbed start
        true_gain = 0.021
        _, _, true_geom = apply_parameters({"g_tip": true_gain}, props, env, geom)
        target_amado = evaluate_targets([(1.0, 0.10, 1.0)], circuit, props, env,
                                        true_geom, 8.0, 4.0)[0]
        problem = CalibrationProblem(free=("g_tip",),
                                     targets=((1.0, 0.10, target_amado),),
                                     budget=120, run_length=8.0, steady_window=4.0)
        result = calibrate(problem, circuit, props, env, geom)   # starts at 0.017
        assert result.loss < 1e-6
        assert result.parameters["g_tip"] == pytest.approx(true_gain, rel=0.01)
        assert result.converged

    def test_single_anchor_fit_reaches_target(self, circuit, props, env, geom):
        problem = CalibrationProblem(free=("g_tip",), targets=((1.0, 0.10, 7.08),),
                                     budget=80, run_length=8.0, steady_window=4.0)
        result = calibrate(problem, circuit, props, env, geom)
        fitted = evaluate_targets(problem.targets, circuit, result.props, result.env,
                                  result.geom, 8.0, 4.0)[0]
        assert abs(fitted - 7.08) / 7.08 < 0.05

    def test_budget_exhaustion_flagged(self, circuit, props, env, geom):
        # 20 mm is out of reach inside the g_tip bounds, so h is still searched
        problem = CalibrationProblem(free=("g_tip", "h"), targets=((1.0, 0.10, 20.0),),
                                     budget=4, run_length=8.0, steady_window=4.0)
        result = calibrate(problem, circuit, props, env, geom)
        assert not result.converged
        assert result.evaluations <= 4

    def test_deterministic(self, circuit, props, env, geom):
        problem = CalibrationProblem(free=("g_tip",), targets=((1.0, 0.10, 7.08),),
                                     budget=30, run_length=6.0, steady_window=3.0)
        a = calibrate(problem, circuit, props, env, geom)
        b = calibrate(problem, circuit, props, env, geom)
        assert a.parameters == b.parameters
        assert a.loss == b.loss and a.evaluations == b.evaluations


class TestProfiledTipGain:
    @pytest.mark.parametrize("constants", [None, *SEEDED_CONSTANTS],
                             ids=["nominal", "seed1", "seed2"])
    def test_anchor_fit_takes_one_evaluation(self, circuit, props, env, geom, constants):
        if constants:
            t_amb, h, k_beam, g_tip = constants
            props, env = replace(props, h=h), replace(env, t_amb=t_amb)
            geom = replace(geom, k_beam=k_beam, g_tip=g_tip)
        problem = CalibrationProblem(run_length=4.0, steady_window=3.0)
        result = calibrate(problem, circuit, props, env, geom)
        assert result.evaluations == 1 and result.converged
        assert result.parameters["h"] == props.h
        assert result.parameters["k_beam"] == geom.k_beam
        fitted = evaluate_targets(problem.targets, circuit, result.props, result.env,
                                  result.geom, 4.0, 3.0)[0]
        assert abs((fitted - 7.08) / 7.08 - result.residuals[0]) < 1e-12

    def test_unreachable_target_clamps_gain(self, circuit, props, env, geom):
        problem = CalibrationProblem(free=("g_tip", "h"), targets=((1.0, 0.10, 20.0),),
                                     budget=4, run_length=8.0, steady_window=4.0)
        result = calibrate(problem, circuit, props, env, geom)
        assert result.parameters["g_tip"] == DEFAULT_BOUNDS["g_tip"][1]
        # the loss that the search over both names reached in 4 evaluations
        # before g_tip was profiled out in closed form: a bound the profiled
        # search must keep, not today's value
        assert result.loss <= 0.2050685000934254

    def test_free_set_without_gain_is_searched_as_before(self, circuit, props, env, geom):
        result = calibrate(FREE_SET_PROBLEM, circuit, props, env, geom)
        pin = pinned("calibration")["free-set-without-gain"]
        assert result.evaluations == pin["evaluations"]
        assert result.converged == pin["converged"]
        assert result.loss == pin["loss"]
        assert result.parameters == pin["parameters"]

    def test_zero_amado_keeps_gain(self, circuit, props, env, geom):
        problem = CalibrationProblem(free=("g_tip",), targets=((1.0, 0.01, 1.0),),
                                     budget=10, run_length=4.0, steady_window=3.0)
        result = calibrate(problem, circuit, props, env, geom)
        assert result.parameters["g_tip"] == geom.g_tip
        assert result.residuals == (-1.0,)

    @pytest.mark.parametrize("free", [("g_tip",), ("g_tip", "h"), ("h",)])
    def test_evaluations_count_every_model_run(self, monkeypatch, circuit, props, env,
                                               geom, free):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate_targets(*args, **kwargs)

        monkeypatch.setattr(calibration, "evaluate_targets", counting)
        problem = CalibrationProblem(free=free, targets=((1.0, 0.10, 20.0),), budget=3,
                                     run_length=4.0, steady_window=3.0)
        result = calibrate(problem, circuit, props, env, geom)
        assert result.evaluations == len(calls) >= 1


class TestParameterRegistry:
    def test_every_free_parameter_maps_to_its_field(self, props, env, geom):
        from sma_bimorph.calibration import FREE_PARAMETERS
        probes = {"h": 160.0, "convection_multiplier": 1.4, "k_beam": 9e-3,
                  "g_tip": 0.02, "c_a": 8e6, "c_m": 9e6, "eps_l": 0.05,
                  "pre_strain": 1e-3}
        assert set(probes) == set(FREE_PARAMETERS)
        new_props, new_env, new_geom = apply_parameters(probes, props, env, geom)
        assert new_props.h == 160.0
        assert new_env.convection_multiplier == 1.4
        assert new_geom.k_beam == 9e-3
        assert new_geom.g_tip == 0.02
        assert new_props.c_a == 8e6
        assert new_props.c_m == 9e6
        assert new_props.eps_l == 0.05
        assert new_props.pre_strain == 1e-3
        # originals untouched (value semantics)
        assert props.h != 160.0 and geom.g_tip != 0.02

    def test_applied_parameters_still_validate(self, props, env, geom):
        with pytest.raises(ParameterError):
            apply_parameters({"eps_l": 0.5}, props, env, geom)
