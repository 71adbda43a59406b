"""One workload process: config text in, artifacts on disk, timings out.

    python3 perfbench/worker.py setup CONFIG
        import the package, parse CONFIG and print time.monotonic() at the
        end, so the caller can time interpreter start, import and parse.
    python3 perfbench/worker.py run WORKLOAD CONFIG OUT_DIR SECONDS THREADS TRACE RESULT
        repeat the workload through run_scenario(parse_config(text), ...)
        until SECONDS have passed, check every repeat's artifacts and write
        a JSON summary to RESULT.  With TRACE = 1 the repeats alternate
        between untraced and traced, and the layer probes run at the end.

The package is imported from the src directory next to perfbench.
"""

import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

MIN_REPEATS = 3           # per kind (untraced, traced)
PROBE_RUN_S = 4.0         # length of the recorded trace the probes replay


def setup(config_path):
    from sma_bimorph import config
    config.parse_config(Path(config_path).read_text(encoding="utf-8"))
    print(repr(time.monotonic()))


def run_once(workload, text, out_dir, threads):
    """One timed repeat; returns (wall seconds, written paths)."""
    from sma_bimorph import cli, config
    start = time.perf_counter()
    cfg = config.parse_config(text)
    paths = []
    for command in workload.commands:
        paths += cli.run_scenario(cfg, command, out_dir, threads)
    return time.perf_counter() - start, paths


def simulated_samples(workload, cfg, report):
    """Coupled-model samples one repeat steps, from the config and report."""
    per_run = lambda seconds: int(round(seconds * cfg.pwm.sample_rate))
    if workload.name == "sweep":
        cells = len(cfg.sweep_frequencies) * len(cfg.sweep_duty_cycles)
        return cells * per_run(cfg.run_length)
    if workload.name == "calibrate":
        problem = cfg.calibration
        return report["evaluations"] * len(problem.targets) * per_run(problem.run_length)
    return per_run(cfg.duration) + per_run(cfg.run_length)   # simulate + swim


def operations(workload, cfg):
    """Operations one repeat attempts: sweep cells, fits or commands."""
    if workload.name == "sweep":
        return len(cfg.sweep_frequencies) * len(cfg.sweep_duty_cycles)
    return len(workload.commands)


def probe_layers(cfg):
    """Replay one recorded trace through simulate_wire and solve_equilibrium."""
    from sma_bimorph import drive, mechanics, sma
    fs = cfg.pwm.sample_rate
    currents = drive.make_pwm_pair(cfg.pwm, cfg.circuit, PROBE_RUN_S)
    recorded = mechanics.run_mode_trace(cfg.pwm, cfg.circuit, cfg.props, cfg.env,
                                        cfg.geom, PROBE_RUN_S)
    n = recorded.delta.size

    wire = []
    for _ in range(5):
        start = time.perf_counter()
        sma.simulate_wire(currents.i_t, recorded.sigma_top, cfg.props, cfg.env, 1.0 / fs)
        wire.append(time.perf_counter() - start)

    # sample k holds the xi pair the equilibrium of step k - 1 was solved for
    pairs = [(sma.WireState(temperature=recorded.temp_top[k], xi=recorded.xi_top[k]),
              sma.WireState(temperature=recorded.temp_bottom[k], xi=recorded.xi_bottom[k]))
             for k in range(1, n)]
    solve = []
    for _ in range(3):
        start = time.perf_counter()
        results = [mechanics.solve_equilibrium(top, bottom, cfg.geom, cfg.props)
                   for top, bottom in pairs]
        solve.append(time.perf_counter() - start)
    replay_error = max(abs(r.theta - recorded.theta[k])
                       for k, r in enumerate(results, start=1))
    return {
        "sma.wire_ns_per_sample": statistics.median(wire) / n * 1e9,
        "mechanics.eq_iters_per_solve": statistics.fmean(r.iterations for r in results),
        "mechanics.eq_us_per_solve": statistics.median(solve) / len(pairs) * 1e6,
    }, replay_error


def run(workload_name, config_path, out_dir, seconds, threads, trace, result_path):
    import checks
    import tracing
    from sma_bimorph import config
    from sma_bimorph.errors import SimulationError
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    text = Path(config_path).read_text(encoding="utf-8")
    cfg = config.parse_config(text)
    ops = operations(workload, cfg)
    out = Path(out_dir)
    tracer = tracing.Tracer()
    summary = {"walls": [], "traced_walls": [], "layers": [], "attempted": 0,
               "failed": 0, "problems": [], "digests": {}}

    def fail(count, message):
        summary["failed"] += count
        summary["problems"].append(message)

    # Each repeat writes into a new directory.  Rewriting an existing file on
    # ext4 truncates it, and the kernel then flushes the new data to disk
    # before close returns: about 0.37 s per 5 MB on the 2-core machine, and
    # as noisy as the disk.  The benchmark times the program, not that flush.
    repeats = out / "repeats"
    shutil.rmtree(repeats, ignore_errors=True)
    reference = None
    report = None
    failed_cells = 0
    start = time.perf_counter()
    for k in itertools.count():
        traced = trace and len(summary["walls"]) > len(summary["traced_walls"])
        summary["attempted"] += ops
        target = repeats / str(k)
        try:
            if traced:
                run_id = tracer.begin_run()
                with tracing.installed(tracer):
                    wall, paths = run_once(workload, text, target, threads)
                summary["layers"].append(tracing.layer_metrics(
                    [s for s in tracer.spans if s.run == run_id]))
                summary["traced_walls"].append(wall)
            else:
                wall, paths = run_once(workload, text, target, threads)
                summary["walls"].append(wall)
        except SimulationError as exc:   # the CLI exits 2 or 3 on these
            fail(ops, f"{type(exc).__name__}: {exc}")
        else:
            digests = checks.digests(paths)
            if reference is None:
                reference = summary["digests"] = digests
                problems, failed_cells, report = checks.check_first_repeat(
                    workload.name, cfg, paths)
                if problems:
                    fail(ops, "; ".join(problems))
                elif failed_cells:
                    fail(failed_cells, f"{failed_cells} sweep cells failed")
            elif digests != reference:
                fail(ops, "artifact bytes differ from the run's first repeat")
            elif failed_cells:
                summary["failed"] += failed_cells
        shutil.rmtree(repeats / str(k - 1), ignore_errors=True)
        done = len(summary["walls"]) >= MIN_REPEATS and (
            not trace or len(summary["traced_walls"]) >= MIN_REPEATS)
        if done and time.perf_counter() - start >= seconds:
            break
        if summary["failed"] == summary["attempted"] and summary["attempted"] >= 2 * ops:
            break   # nothing works; stop early and report it
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if reference is not None:
        summary["samples_per_repeat"] = simulated_samples(workload, cfg, report)
        if workload.name == "sweep":
            summary["attempted"] += 1
            try:
                _, paths = run_once(workload, text, out / "threads1", 1)
            except SimulationError as exc:
                fail(1, f"threads = 1 sweep: {type(exc).__name__}: {exc}")
            else:
                if checks.digests(paths) != reference:
                    fail(1, "sweep bytes differ between threads = 1 and threads = "
                            f"{threads}")
        if report is not None:
            summary["attempted"] += 1
            problems = checks.recheck_calibration(cfg, report)
            if problems:
                fail(1, "; ".join(problems))
            summary["anchor_err_pct"] = max(map(abs, report["residuals"]), default=0.0) * 100.0

    if trace and summary["layers"]:
        layers = {key: statistics.median(run[key] for run in summary["layers"])
                  for key in summary["layers"][0]}
        probes, replay_error = probe_layers(cfg)
        layers.update(probes)
        layers["trace.wall_s"] = statistics.median(summary["traced_walls"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
            summary["walls"])
        summary["per_layer"] = layers
        summary["probe_replay_max_dtheta_rad"] = replay_error
        summary["attempted"] += 1
        if layers["mechanics.trace_samples"] != summary.get("samples_per_repeat"):
            fail(1, f"traced samples {layers['mechanics.trace_samples']} differ from "
                    f"the configured {summary.get('samples_per_repeat')}")
        tracer.write_jsonl(out / "spans.jsonl")
    del summary["layers"]
    Path(result_path).write_text(json.dumps(summary, indent=1), encoding="utf-8")


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup(argv[1])
    elif argv[:1] == ["run"] and len(argv) == 8:
        _, workload, config_path, out_dir, seconds, threads, trace, result = argv
        run(workload, config_path, out_dir, float(seconds), int(threads),
            trace == "1", result)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
