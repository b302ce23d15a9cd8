#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, in about ten seconds.

    python3 bench/selftest.py

It runs theorem22 at 2 nodes, adjunction at 3 points and about 100
single-model queries through the same code as ``run.py`` and checks that:

- every metric named in BENCHMARK.json is printed, with its unit;
- the traced spans nest, no span's children cover more than the span
  (no negative self time), each traced pass has one span per call made
  and, less its calibrations, lasts as long as its measured wall time,
  and the per-layer call counts equal the calls made;
- a corrupted reference ``SUMMARY`` drives ``failed_ratio`` above 0.

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections import Counter

import run
import spans

sys.path.insert(0, str(run.SRC))

from bkw import harness  # noqa: E402

import workloads  # noqa: E402

TINY_CAMPAIGNS = (harness.Campaign("theorem22", 2), harness.Campaign("adjunction", 3))


def tiny_sweep(reference: dict) -> workloads.Sweep:
    return workloads.Sweep(TINY_CAMPAIGNS, reference, workloads.topology_probe(3))


def tiny_stream(workdir) -> workloads.SingleModel:
    text = (workloads.REFERENCE / "fixtures.txt").read_text(encoding="utf-8")
    return workloads.SingleModel(workdir, text, {kind: 8 for kind in workloads.SingleModel.MIX})


def printed_metrics(workload, trace: bool) -> tuple[dict, dict]:
    result = run.measure(workload, seed=7, seconds=0, trace=trace, setup_samples=0 if trace else 1)
    metrics = run.per_layer_metrics(result) if trace else run.end_to_end_metrics(result)
    return json.loads(run.result_line(result, metrics)), result


def span_problems(workload, result: dict, metrics: dict) -> list[str]:
    """Spans that stick out of their parent or overlap a sibling, passes
    whose spans do not match the calls made, and per-layer call counts
    that differ from the calls made."""
    spans_ = result["spans"]
    problems = spans.nesting_problems(spans_)
    problems += [f"span {i} ({s[0]}): children cover more than the span"
                 for i, (s, own) in enumerate(zip(spans_, spans.self_times(spans_))) if own < 0]
    calls = workload.calls(7, 0)
    made = Counter(call.layer for call in calls) + Counter(c.layer for c in workload.probe)
    children = Counter(s[1] for s in spans_ if s[1] is not None and s[0] != "bench.calibration")
    paused = Counter()
    for s in spans_:
        if s[0] == "bench.calibration":
            paused[s[1]] += s[3] - s[2]
    roots = [i for i, s in enumerate(spans_) if s[1] is None]
    for k, i in enumerate(r for r in roots if spans_[r][0] == "bench.pass"):
        if children[i] != len(calls):
            problems.append(f"traced pass {k} has {children[i]} spans for {len(calls)} calls")
        if abs((spans_[i][3] - spans_[i][2]) - paused[i] - result["traced_walls"][k]) > 1e-9:
            problems.append(f"traced pass {k} span, less its calibrations, differs from "
                            "its measured wall time")
    for layer, count in made.items():
        unit = "s" if layer in run.SWEEP_LAYERS else "us"
        if metrics[f"{layer}.calls"]["value"] != count:
            problems.append(f"{layer}: {metrics[f'{layer}.calls']['value']} calls per round "
                            f"traced, {count} made")
        if metrics[f"{layer}.self_{unit}"]["value"] < 0:
            problems.append(f"{layer}: negative self time")
    return problems


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    failures = []

    def check(ok: bool, message: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {message}")
        if not ok:
            failures.append(message)

    with run.scratch_dir() as workdir:
        for name, make in (("tiny sweep", lambda: tiny_sweep(workloads.load_summaries())),
                           ("tiny stream", lambda: tiny_stream(workdir))):
            for trace in (0, 1):
                workload = make()
                printed, result = printed_metrics(workload, bool(trace))
                units = {k: v["unit"] for k, v in printed["metrics"].items()}
                finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                             for v in printed["metrics"].values())
                check(units == expected[trace] and finite,
                      f"{name}, trace {trace}: all {len(expected[trace])} declared metrics "
                      "printed with their units")
                check(printed["correct"] and printed["failed"] == 0 and printed["attempted"] > 0,
                      f"{name}, trace {trace}: {printed['attempted']} calls agree with "
                      f"their references {result['failures'][:1]}")
                if trace:
                    problems = span_problems(workload, result, printed["metrics"])
                    check(not problems, f"{name}: {len(result['spans'])} spans nest, match "
                          f"the calls made and have no negative self time {problems[:2]}")

    corrupted = copy.deepcopy(workloads.load_summaries())
    corrupted[workloads.campaign_key(TINY_CAMPAIGNS[0])]["models"] += 1
    printed, _ = printed_metrics(tiny_sweep(corrupted), True)
    metrics = printed["metrics"]
    check(metrics["failed_ratio"]["value"] > 0 and not printed["correct"]
          and metrics["harness.run_campaign.theorem22.failed"]["value"] > 0,
          f"a corrupted reference SUMMARY gives failed_ratio "
          f"{metrics['failed_ratio']['value']:.3f}")

    print(f"selftest: {'all checks pass' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
