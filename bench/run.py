#!/usr/bin/env python3
"""Run one benchmark workload against the bkw sources beside this directory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``record``, holds the run's environment, per-pass timings and every
campaign ``SUMMARY``.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones from the traced run.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from spans import Tracer, layer_totals_by_root

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("membership_sweep", "classical_sweep", "topology_laws", "single_model")
SETUP_SAMPLES = 20
# Timed stretches are divided by the time of a fixed calibration run next
# to them, and reported in seconds at the speed where it takes CAL_REF_S.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.1
CAL_ARRAY = numpy.arange(1 << 12, dtype=numpy.uint64)
SETUP_PROBE = ("import time; t = time.perf_counter(); import bkw; "
               "print(time.perf_counter() - t); print(bkw.__file__)")

SWEEP_LAYERS = tuple(f"harness.run_campaign.{t}" for t in (
    "theorem22", "theorem23", "validity_lists", "lemma1", "theorem12",
    "adjunction", "boundary_law", "lawvere_scan")) + ("topology.enumerate_topologies",)
QUERY_LAYERS = (
    "formula.parse", "formula.to_text", "hyperset.nwf_extension", "kripke.extension",
    "paratopo.evaluate", "hyperset.canonicalize", "modelio.load_model",
    "modelio.dump_model", "kripke.find_holes", "hyperset.nwf_find_holes",
    "harness.verify_fixtures", "cli.main")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer, unit in [(l, "s") for l in SWEEP_LAYERS] + [(l, "us") for l in QUERY_LAYERS]:
        spec += [(f"{layer}_{unit}", unit, "lower"), (f"{layer}.self_{unit}", unit, "lower"),
                 (f"{layer}.calls", "count", "higher"), (f"{layer}.failed", "count", "lower")]
    return spec + [("query_p50_us", "us", "lower"), ("query_p99_us", "us", "lower"),
                   ("bench.pass.self_s", "s", "lower"), ("trace_overhead_s", "s", "lower"),
                   ("failed_ratio", "ratio", "lower")]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def calibration() -> float:
    """Seconds for fixed work that runs no bkw code.

    It mixes what bkw's engines do: integer arithmetic, frozenset and dict
    work, and whole-array numpy passes.
    """
    start = time.perf_counter()
    total, counts = 0, {}
    for i in range(2500):
        key = frozenset((i % 13, i % 7, i % 5))
        counts[key] = counts.get(key, 0) + len(key | {i % 3})
        for j in range(8):
            total += (i * j) % 7
    lanes = CAL_ARRAY
    for _ in range(64):
        lanes = (lanes ^ (lanes >> numpy.uint64(3))) & numpy.uint64(0xFFFF)
    return time.perf_counter() - start


def setup_sample() -> tuple[float, float]:
    """Seconds for ``import bkw`` in a fresh interpreter, raw and calibrated."""
    before = calibration()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, where = out.stdout.splitlines()
    if Path(where).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"fresh interpreter imported bkw from {where}")
    seconds = float(seconds)
    return seconds, seconds * CAL_REF_S / ((before + calibration()) / 2)


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_pass(calls, tracer: Tracer | None = None, root_name: str = "bench.pass") -> dict:
    """Make the calls one at a time; spans are recorded only when traced.

    ``calibration()`` runs before the first call, after every stretch of
    calls that has taken ``CAL_EVERY_S``, and after the last.  Each
    stretch is divided by the mean of the calibrations on either side of
    it; ``norm`` is the sum, in seconds at the reference speed.  ``wall`` and ``cpu`` leave the calibrations out; when traced,
    each calibration inside the pass gets a ``bench.calibration`` span.
    """
    cal = calibration()
    norm = paused = cpu_paused = 0.0
    start = stretch_start = time.perf_counter()
    cpu_start = time.process_time()
    root = tracer.begin(root_name, start) if tracer else None
    outcomes, latencies, span_ids = [], [], []
    previous = None
    for i, call in enumerate(calls):
        args = (previous,) if call.chain else call.args
        t0 = time.perf_counter()
        if tracer:
            span_ids.append(tracer.begin(call.layer, t0))
        try:
            previous, error = call.fn(*args), None
        except Exception as exc:  # a raising call is a counted failure, not a crash
            previous, error = None, exc
        t1 = time.perf_counter()
        if tracer:
            tracer.end(span_ids[-1], t1, failed=error is not None)
        latencies.append(t1 - t0)
        outcomes.append((previous, error))
        if t1 - stretch_start >= CAL_EVERY_S or i == len(calls) - 1:
            cpu_before = time.process_time()
            after = calibration()
            norm += (t1 - stretch_start) * CAL_REF_S / ((cal + after) / 2)
            cal = after
            stretch_start = time.perf_counter()
            paused += stretch_start - t1
            if tracer:
                tracer.end(tracer.begin("bench.calibration", t1), stretch_start)
            cpu_paused += time.process_time() - cpu_before
    end = time.perf_counter()
    if tracer:
        tracer.end(root, end)
    return {"wall": end - start - paused, "norm": norm,
            "cpu": time.process_time() - cpu_start - cpu_paused,
            "outcomes": outcomes, "latencies": latencies, "span_ids": span_ids}


def check_pass(calls, result: dict, tracer: Tracer | None, failures: list[str]) -> int:
    """Compare every result with its reference; returns the number that failed."""
    failed = 0
    for i, (call, (out, error)) in enumerate(zip(calls, result["outcomes"])):
        if error is not None:
            problem = f"{call.layer} raised {error!r}"
        else:
            try:
                problem = call.check(out)
            except Exception as exc:  # a result the check cannot read is wrong
                problem = f"{call.layer}: checking the result raised {exc!r}"
        if problem:
            failed += 1
            if len(failures) < 10:
                failures.append(problem)
            if tracer:
                tracer.fail(result["span_ids"][i])
    return failed


def measure(workload, seed: int, seconds: float, trace: bool, setup_samples: int = 0) -> dict:
    """Rounds of timed passes for at most ``seconds``, and at least one round.

    Each round builds one pass of calls from the seed.  The untraced run
    makes one pass per round.  Between rounds it times fresh
    imports of bkw, ``setup_samples`` in all, spread evenly over the
    ``seconds`` so that they meet the same host speeds as the passes.  The
    traced run makes an untraced and a traced pass over the same calls
    each round, alternating which goes first, then the workload's probe
    calls.  A new round starts only if one more round as long as the last
    still ends within ``seconds``.
    """
    tracer = Tracer() if trace else None
    run = {"walls": [], "norms": [], "cpus": [], "latencies": [], "traced_walls": [],
           "traced_norms": [], "setup_samples": [], "setup_norms": [], "attempted": 0,
           "failed": 0, "failures": [], "rounds": 0, "calls_per_pass": 0}
    if setup_samples:
        setup_sample()  # warms the file cache; not counted
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        calls = workload.calls(seed, run["rounds"])
        run["calls_per_pass"] = len(calls)
        order = [False, True] if trace else [False]
        if run["rounds"] % 2:
            order.reverse()
        for traced in order:
            gc.collect()  # the last round's inputs and results are not the program's garbage
            result = run_pass(calls, tracer if traced else None)
            run["attempted"] += len(calls)
            run["failed"] += check_pass(calls, result, tracer if traced else None,
                                        run["failures"])
            if traced:
                run["traced_walls"].append(result["wall"])
                run["traced_norms"].append(result["norm"])
            else:
                run["walls"].append(result["wall"])
                run["norms"].append(result["norm"])
                run["cpus"].append(result["cpu"])
                run["latencies"].append(result["latencies"])
        if trace and workload.probe:
            gc.collect()
            result = run_pass(workload.probe, tracer, "bench.probe")
            run["attempted"] += len(workload.probe)
            run["failed"] += check_pass(workload.probe, result, tracer, run["failures"])
        run["rounds"] += 1
        now = time.perf_counter()
        last = (now - start) + (now - round_start) > seconds
        due = setup_samples if last else math.ceil(setup_samples * (now - start) / seconds)
        while len(run["setup_samples"]) < due:
            raw, norm = setup_sample()
            run["setup_samples"].append(raw)
            run["setup_norms"].append(norm)
        if last:
            break
    run["spans"] = tracer.spans if tracer else []
    return run


def end_to_end_metrics(run: dict) -> dict:
    """Median calibrated set-up and pass times, and the peak RSS."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"setup_s": statistics.median(run["setup_norms"]),
              "wall_s": statistics.median(run["norms"]),
              "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(run: dict) -> dict:
    """Per-layer figures of the fastest traced round; counts are per round.

    ``_s`` figures are busy seconds per pass, ``_us`` figures busy
    microseconds per call.  The latency percentiles are those of the
    fastest untraced pass.
    """
    by_root = layer_totals_by_root(run["spans"])
    rounds = run["rounds"]
    values = {}
    for layer in SWEEP_LAYERS + QUERY_LAYERS:
        seen = [totals[layer] for totals in by_root if layer in totals]
        unit = "s" if layer in SWEEP_LAYERS else "us"
        per = (lambda t: 1.0) if unit == "s" else (lambda t: 1e6 / t["calls"])
        values[f"{layer}_{unit}"] = min((t["busy_s"] * per(t) for t in seen), default=0.0)
        values[f"{layer}.self_{unit}"] = min((t["self_s"] * per(t) for t in seen), default=0.0)
        values[f"{layer}.calls"] = sum(t["calls"] for t in seen) / rounds
        values[f"{layer}.failed"] = sum(t["failed"] for t in seen) / rounds
    fastest = run["latencies"][run["walls"].index(min(run["walls"]))]
    values["query_p50_us"] = percentile(fastest, 0.50) * 1e6
    values["query_p99_us"] = percentile(fastest, 0.99) * 1e6
    values["bench.pass.self_s"] = min(t["bench.pass"]["self_s"]
                                      for t in by_root if "bench.pass" in t)
    values["trace_overhead_s"] = (statistics.median(run["traced_norms"])
                                  - statistics.median(run["norms"]))
    values["failed_ratio"] = run["failed"] / run["attempted"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def result_line(run: dict, metrics: dict) -> str:
    return json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (SRC / "bkw" / "__init__.py").is_file():
        print(f"error: no bkw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bkw
    if Path(bkw.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported bkw from {bkw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with scratch_dir() as workdir:
        workload = workloads.make(args.workload, workdir)
        load_before = os.getloadavg()
        run = measure(workload, args.seed, args.seconds, bool(args.trace),
                      0 if args.trace else SETUP_SAMPLES)
        load_after = os.getloadavg()
    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "rounds": run["rounds"], "calls_per_pass": run["calls_per_pass"],
        "pass_wall_s": run["walls"], "pass_calibrated_s": run["norms"],
        "pass_cpu_s": run["cpus"],
        "traced_pass_wall_s": run["traced_walls"], "traced_pass_calibrated_s": run["traced_norms"],
        "setup_samples_s": run["setup_samples"],
        "failures": run["failures"], **workload.record(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(result_line(run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
