"""Seeded workload generator: a workload name and a seed become YAML text.

The program under test only ever sees the generated text.  Seed 0 keeps
every physical constant at the default of configs/characterization.yaml;
any other seed draws the ambient temperature and the calibratable
constants h, k_beam and g_tip from inside calibration.DEFAULT_BOUNDS.
The length keys (run length, steady window, calibration budget) are fixed
per workload, so every seed asks for the same amount of work.
"""

import random
from dataclasses import dataclass

# (section, key, default, seeded range); the ranges for h, k_beam and g_tip
# equal calibration.DEFAULT_BOUNDS, restated so the generator needs no import
# of the package under test
SEEDED_CONSTANTS = (
    ("environment", "ambient_k", 293.15, (290.15, 296.15)),
    ("sma", "convection_w_m2_k", 150.0, (140.0, 170.0)),
    ("geometry", "beam_stiffness_nm_rad", 8e-3, (7e-3, 1.2e-2)),
    ("geometry", "tip_gain_m_rad", 17e-3, (8e-3, 30e-3)),
)

# short runs that still hold three whole 1 Hz periods in the steady window
_SHORT_RUN = {"run_s": 4.0, "steady_window_s": 3.0}


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple   # CLI commands run in order on one parsed config
    length: dict      # section -> key -> value, the keys that size the work


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "sweep": Workload(
        name="sweep",
        commands=("sweep",),
        length={"metrology": _SHORT_RUN}),
    "calibrate": Workload(
        name="calibrate",
        commands=("calibrate",),
        # every seed exhausts a 50-evaluation budget (full fits take 60 to 118
        # evaluations at this run length), so the work per run is seed-independent
        length={"calibration": dict(_SHORT_RUN, budget=50)}),
    "artifacts": Workload(
        name="artifacts",
        commands=("power", "simulate", "swim"),
        length={}),
}


def seeded_constants(seed: int) -> dict:
    """section -> key -> value for the seeded physical constants."""
    rng = random.Random(seed)
    values = {}
    for section, key, default, (lo, hi) in SEEDED_CONSTANTS:
        value = default if seed == 0 else rng.uniform(lo, hi)
        values.setdefault(section, {})[key] = value
    return values


def config_text(workload: str, seed: int) -> str:
    """YAML scenario text for one workload and seed; byte-stable per seed."""
    spec = WORKLOADS[workload]
    sections = seeded_constants(seed)
    for section, keys in spec.length.items():
        sections.setdefault(section, {}).update(keys)
    sections.setdefault("run", {})["scenario"] = f"bench_{workload}"

    lines = [f"# perfbench workload {workload}, seed {seed}"]
    for section in sorted(sections):
        lines.append(f"{section}:")
        for key in sorted(sections[section]):
            lines.append(f"  {key}: {_yaml_scalar(sections[section][key])}")
    return "\n".join(lines) + "\n"


def _yaml_scalar(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans are not used in generated configs")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr is the shortest round-trip form; YAML needs a '.' or exponent
        # sign written the way PyYAML's float resolver accepts
        text = repr(value)
        if "e" in text and "." not in text.split("e")[0]:
            mantissa, exponent = text.split("e")
            text = f"{mantissa}.0e{exponent}"
        return text
    return str(value)
