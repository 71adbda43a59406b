"""sma-bimorph benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The seed becomes the workload's YAML
text (perfbench/workloads.py); a worker process then repeats the workload
through the public run_scenario(parse_config(text), command, out_dir,
threads) for --seconds and checks every artifact (perfbench/checks.py).
With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (perfbench/tracing.py).  Lines
before it print every metric with its unit, the run manifest and the
artifact digests.  Outputs go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config_text  # noqa: E402

SETUP_PROBES = 11
RUN_TIMEOUT_S = 170.0     # every run ends within 180 s

# name -> unit; the end-to-end set is printed with --trace 0, the per-layer
# set with --trace 1, each in this order
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_samples_per_s": "1/s", "peak_rss_mb": "MB",
}
INFO = {"failed_frac": "1", "anchor_err_pct": "%"}
PER_LAYER = {
    "drive.calls": "count", "drive.samples": "count", "drive.busy_s": "s",
    "sma.wire_ns_per_sample": "ns",
    "mechanics.traces": "count", "mechanics.trace_samples": "count",
    "mechanics.trace_busy_s": "s", "mechanics.trace_ns_per_sample": "ns",
    "mechanics.relaxed_busy_s": "s", "mechanics.eq_iters_per_solve": "count",
    "mechanics.eq_us_per_solve": "us",
    "metrology.fir_designs": "count", "metrology.fir_busy_s": "s",
    "metrology.filter_calls": "count", "metrology.filter_busy_s": "s",
    "metrology.amado_busy_s": "s", "metrology.cells": "count",
    "metrology.cells_failed": "count", "metrology.pool_efficiency": "1",
    "calibration.evaluations": "count", "calibration.eval_busy_s": "s",
    "calibration.s_per_eval": "s", "calibration.final_loss": "1",
    "calibration.anchor_err_pct": "%",
    "swimmer.steps": "count", "swimmer.busy_s": "s", "swimmer.us_per_step": "us",
    "csvio.files": "count", "csvio.rows": "count", "csvio.bytes": "B",
    "csvio.busy_s": "s",
    "config.parse_busy_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
# Times of layers that some workloads never call: they read exactly 0 there
# on every run, so they are printed but left out of the JSON line.
PRINTED_ONLY = ("calibration.eval_busy_s", "calibration.s_per_eval", "swimmer.busy_s",
                "swimmer.us_per_step", "csvio.busy_s")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def manifest(workload: str, text: str) -> dict:
    """Machine and program facts, read from a child so nothing is imported here."""
    code = ("import json, sys, numpy, sma_bimorph, sma_bimorph._accel as a; "
            "print(json.dumps({'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, 'package': sma_bimorph.__version__, "
            "'have_numba': a.HAVE_NUMBA}))")
    facts = json.loads(_child(["-c", code]).stdout)
    facts.update(nproc=nproc(), machine=platform.machine(), workload=workload,
                 config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest())
    return facts


def _child(args, timeout=60.0):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=True)


def setup_times(config_path: Path):
    """Seconds from spawning an interpreter to the end of parse_config."""
    times, failures = [], 0
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        try:
            done = float(_child([str(HERE / "worker.py"), "setup", str(config_path)]).stdout)
        except (subprocess.CalledProcessError, ValueError) as exc:
            print(f"setup probe failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        times.append(done - start)
    return times, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "sma_bimorph" / "__init__.py").is_file():
        print(f"no sma_bimorph sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    text = config_text(args.workload, args.seed)
    config_path = out / "config.yaml"
    config_path.write_text(text, encoding="utf-8")
    facts = manifest(args.workload, text)
    threads = facts["nproc"] if args.workload == "sweep" else 1

    attempted = failed = 0
    setups = []
    if not args.trace:
        setups, setup_failures = setup_times(config_path)
        attempted += SETUP_PROBES
        failed += setup_failures

    result_path = out / "result.json"
    result_path.unlink(missing_ok=True)
    budget = RUN_TIMEOUT_S - (time.monotonic() - began)
    try:
        worker = _child([str(HERE / "worker.py"), "run", args.workload, str(config_path),
                         str(out), repr(args.seconds), str(threads), str(args.trace),
                         str(result_path)], timeout=budget)
    except subprocess.CalledProcessError as exc:
        print(f"workload process exited with {exc.returncode}:\n{exc.stderr}",
              file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"workload process exceeded {budget:.0f} s", file=sys.stderr)
        return 1
    if worker.stderr:
        print(worker.stderr, file=sys.stderr, end="")
    summary = json.loads(result_path.read_text(encoding="utf-8"))
    attempted += summary["attempted"]
    failed += summary["failed"]
    if not summary["walls"] or not (setups or args.trace) or (
            args.trace and "per_layer" not in summary):
        print("no successful repeat to measure", file=sys.stderr)
        return 1

    wall = statistics.median(summary["walls"])
    values = {
        "wall_s": wall,
        "sim_samples_per_s": summary["samples_per_repeat"] / wall,
        "peak_rss_mb": summary["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }
    if setups:
        values["setup_s"] = statistics.median(setups)
    if "anchor_err_pct" in summary:
        values["anchor_err_pct"] = summary["anchor_err_pct"]
    if args.trace:
        values.update(summary["per_layer"])
        values["calibration.anchor_err_pct"] = summary.get("anchor_err_pct", 0.0)

    print(f"manifest {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} threads {threads} "
          f"repeats {len(summary['walls'])} untraced, {len(summary['traced_walls'])} traced")
    for name, digest in sorted(summary["digests"].items()):
        print(f"artifact {name} sha256 {digest}")
    for problem in summary["problems"]:
        print(f"check failed: {problem}")
    units = dict(END_TO_END, **INFO, **(PER_LAYER if args.trace else {}))
    for name, unit in units.items():
        if name in values:
            print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    if args.trace:
        print(f"  probe replay max |dtheta|         {summary['probe_replay_max_dtheta_rad']:.3g} rad")

    reported = ({k: u for k, u in PER_LAYER.items() if k not in PRINTED_ONLY}
                if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
