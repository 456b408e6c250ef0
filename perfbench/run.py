"""cechlift benchmark.

    python3 perfbench/run.py --workload {batch,ladder,cli} --seed N --seconds S --trace {0,1}

Runs one workload from the root of a source checkout, against the library
in ./src.  Every recorded outcome is checked against references that do
not use cechlift.linalg.

With --trace 0, interpreter start plus imports is timed in fresh child
interpreters and set-up is done several times, and the medians are
reported.  The timed phase then runs whole passes over the workload's
fixed instance set until S seconds have passed and at least 100 latency
samples exist, and the last line of output carries the end-to-end metrics
of BENCHMARK.json.
With --trace 1 the workload is instead set up with every layer traced and
runs passes that alternate between traced and untraced for S seconds, and
the line carries the per-layer metrics.  The full trace (every span and
every aggregate) is written to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_SAMPLES = 100
PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="cechlift benchmark")
    p.add_argument("--workload", required=True, choices=("batch", "ladder", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="instance-set size factor; below 1, ladder keeps only its sd1 rungs (for tests)")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports what this
    benchmark imports: the interpreter-start part of set-up."""
    import workloads

    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    return statistics.median(workloads.probe(["-c", code], dict(os.environ), ROOT, PROBES))


def import_library():
    """Put ./src first on the path and make sure that is the cechlift imported."""
    if not (SRC / "cechlift" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'cechlift'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cechlift

    if Path(cechlift.__file__).resolve().parent != (SRC / "cechlift").resolve():
        raise SystemExit(f"error: imported cechlift from {cechlift.__file__}, not from {SRC}")


def timed_phase(wl, seconds):
    """Whole passes until `seconds` have passed and enough samples exist.

    Each pass follows the workload's cold pass, if it has one, so cold and
    warm samples are spread alike over the phase; cold passes are kept out
    of the pass times.
    """
    wl.reset_samples()
    passes = []
    t0 = time.perf_counter()
    while True:
        wl.cold_pass()
        p0 = time.perf_counter()
        wl.run_pass()
        passes.append(time.perf_counter() - p0)
        if time.perf_counter() - t0 >= seconds and len(wl.latencies) >= MIN_SAMPLES:
            break
    return passes


def make_workload(name, seed, scale, workdir):
    import workloads

    if name == "batch":
        return workloads.Batch(seed, scale)
    if name == "ladder":
        return workloads.Ladder(seed, scale)
    return workloads.Cli(seed, ROOT, workdir, scale)


def end_to_end(wl, passes):
    lat = wl.latencies
    if wl.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss = (rss_kb / 1024.0, "MB")
    if wl.name == "ladder":
        # A pass takes most of a run, so a run repeats an instance a few times
        # at most: pass times, every sample and the cold samples' medians.
        n_timed = len(lat) + sum(len(v) for v in wl.cold.values())
        return {
            "wall_s": (statistics.median(passes), "s"),
            "instances_per_s": (n_timed / sum(passes), "1/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
            "cold_verdict_s": (sum(statistics.median(v) for v in wl.cold.values()), "s"),
            "peak_rss_mb": rss,
        }
    # batch and cli: each instance's best time in the run (see Workload.best).
    # A pass is the sum of its instances' best times.  The cli has fewer
    # commands than a p90 needs samples, so its percentiles are over every call.
    best = list(wl.best["warm"].values())
    if wl.name == "batch":
        lat = best
    return {
        "wall_s": (sum(best), "s"),
        "instances_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "cold_verdict_s": (sum(wl.best["cold"].values()), "s"),
        "peak_rss_mb": rss,
    }


def cli_layer(wl, workdir, seed, scale):
    """The CLI's wait split into interpreter start, import, the report's
    own elapsed time, and the rest.

    Measured on every workload, because every per-layer metric must be
    reported by every traced run and a zero would read as a saving; on
    batch and ladder it is one pass of the cli workload's commands."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp = statistics.median(workloads.probe(["-c", "pass"], env, workdir, PROBES))
    imported = statistics.median(workloads.probe(["-c", "import cechlift.cli"], env, workdir, PROBES))
    cli = wl
    if wl.name != "cli":
        cli = workloads.Cli(seed, ROOT, workdir, scale)
        cli.setup()
        subprocess_pass(cli)
    latency = statistics.median(dt for _, dt, _ in cli.calls)
    elapsed = statistics.median(el for _, _, el in cli.calls)
    return {
        "cli.interpreter_s": interp,
        "cli.import_s": imported - interp,
        "cli.latency_s": latency,
        "cli.report_elapsed_s": elapsed,
        "cli.other_s": latency - imported - elapsed,
        "cli.elapsed_share": statistics.median(el / dt for _, dt, el in cli.calls),
    }


def subprocess_pass(cli):
    """One pass of CLI calls after one that compiles and caches bytecode."""
    cli.run_command(0, cli.commands[0])
    cli.reset_samples()
    cli.run_pass()


def traced_run(wl, args, workdir):
    """Set up and run the workload with every layer traced.

    Traced passes alternate with untraced ones, so the tracing overhead is
    taken from neighbouring passes that see the same machine state.  On
    the CLI a pass is an in-process replay of its commands.
    """
    import inputs
    import tracing
    import workloads

    tracer = tracing.Tracer()
    callers = (workloads, inputs)
    run = wl.replay_in_process if wl.name == "cli" else wl.run_pass

    def traced(fn):
        tracer.install(callers)
        wl.tracer = tracer
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            tracer.uninstall()
            wl.tracer = None
        return time.perf_counter() - t0

    if wl.name == "cli":
        wl.setup()
        subprocess_pass(wl)
        traced_total = 0.0
    else:
        traced_total = traced(wl.setup)
    ratios = []
    t0 = time.perf_counter()
    while not ratios or time.perf_counter() - t0 < args.seconds:
        # traced first, so the traced set-up is followed by a traced pass
        dt = traced(run)
        p0 = time.perf_counter()
        run()
        ratios.append(dt / (time.perf_counter() - p0))
        traced_total += dt
    # Top self-time entries, per CLI call for the CLI (whose in-process
    # replay stands for one child's work) and per run otherwise.
    per = len(ratios) * len(wl.commands) if wl.name == "cli" else 1
    metrics = tracer.metrics()
    metrics.update(cli_layer(wl, workdir, args.seed, args.scale))
    top = [(name, s / per) for name, s in tracer.top_self(20)]
    if wl.name == "cli":
        top += [(n, metrics[n]) for n in ("cli.interpreter_s", "cli.import_s", "cli.other_s")]
    top.sort(key=lambda r: -r[1])
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics["trace.unattributed_s"] = traced_total - tracer.top_level_s
    metrics["trace.spans"] = len(tracer.span_ids)
    return tracer, metrics, top


def main(argv=None):
    args = parse_args(argv)
    import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads  # noqa: F401  (imports the library's modules)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = make_workload(args.workload, args.seed, args.scale, workdir)
        if args.trace:
            tracer, layer, top = traced_run(wl, args, workdir)
        else:
            reps = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                reps.append(time.perf_counter() - t0)
            if wl.name == "cli":
                wl.run_command(0, wl.commands[0])  # first call compiles and caches bytecode
            passes = timed_phase(wl, args.seconds)
            e2e = end_to_end(wl, passes)
            # The import probes run last: on cli, peak_rss_mb is the largest
            # child so far, and must not count them.
            e2e["setup_s"] = (import_seconds() + statistics.median(reps), "s")

        wrong, bad_lifts, notes = wl.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = wl.failed + bad_lifts
    attempted = wl.attempted
    print(f"workload {wl.name} seed {args.seed}: {wl.attempted} instances, "
          f"wrong_verdicts {wrong}, failed_frac {failed / max(attempted, 1):.4g}")
    for line in notes + wl.errors:
        print(f"  {line}")
    if args.trace:
        print("top self time" + (" per call:" if wl.name == "cli" else ":"))
        for name, s in top[:8]:
            print(f"  {name:40s} {s:10.4f} s")
        print(f"  trace.overhead_frac {layer['trace.overhead_frac']:.4f}")
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json.gz"
        tracer.dump(path, {"workload": wl.name, "seed": args.seed, "metrics": layer, "top_self": top})
        print(f"trace written to {path}")
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        missing = [n for n in names if n not in layer]
        if missing:
            raise SystemExit(f"error: the trace has no {', '.join(missing)}")
        metrics = {n: {"value": layer[n], "unit": units[n]} for n in names}
    else:
        print(f"  {len(passes)} passes, {len(wl.latencies)} latency samples")
        for name, (value, unit) in e2e.items():
            print(f"  {name:20s} {value:.6g} {unit}")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
