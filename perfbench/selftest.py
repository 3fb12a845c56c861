"""Fast self-test of the benchmark harness at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload twice under one seed and once under a second seed, with
tracing on, and checks the result schema, the exact counts, that the output
digests repeat and that no operation failed. It never checks a time.
Exits 0 when every check passes.
"""

import json
import sys

import run

TINY_POINTS = 1000


def tiny(name: str, seed: int):
    import workloads

    if name == "agg-kitti":
        return workloads.AggKitti(seed, frames=18, points=TINY_POINTS)
    return workloads.CliDisk(seed, run.WORK / "selftest", frames=26, points=TINY_POINTS,
                             camera=(32, 24), digest_frames=2)


def bench_once(name: str, seed: int) -> dict:
    workload = tiny(name, seed)
    try:
        return run.run(workload, seed, seconds=0.0, trace=1)
    finally:
        workload.close()


def structural_counts(name: str, counts: dict, frames: int) -> list[str]:
    """Counts that follow from the scene shape alone, whatever the seed."""
    import workloads

    expected = {}
    if name == "agg-kitti":
        expected = {
            "direct.points": frames * (workloads.WINDOW + 1) * TINY_POINTS,
            "stepped.points": frames * (workloads.WINDOW // 2 + 1) * TINY_POINTS,
        }
    return [
        f"{key}: {counts.get(key)} != {value}"
        for key, value in expected.items() if counts.get(key) != value
    ]


def schema_problems(record: dict, declared: dict) -> list[str]:
    problems = []
    for trace in (0, 1):
        line = run.final_line(record, trace)
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"final line keys {sorted(line)}")
        section = "per_layer" if trace else "end_to_end"
        for entry in declared[section]:
            metric = line["metrics"].get(entry["name"])
            if metric is None or metric["unit"] != entry["unit"]:
                problems.append(f"trace {trace}: metric {entry['name']} missing or mis-unit")
            elif not isinstance(metric["value"], (int, float)):
                problems.append(f"trace {trace}: metric {entry['name']} is not a number")
        if len(line["metrics"]) != len(declared[section]):
            problems.append(f"trace {trace}: {len(line['metrics'])} metrics reported")
    for key in ("environment", "samples", "exact", "frame_ms_tail", "frame_ms", "failed_frac"):
        if key not in record:
            problems.append(f"record lacks {key}")
    return problems


def declared_metrics_problems(declared: dict) -> list[str]:
    import spans

    problems = []
    e2e = {e["name"]: (e["unit"], e["better"]) for e in declared["end_to_end"]}
    layers = {e["name"]: (e["unit"], e["better"]) for e in declared["per_layer"]}
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layers != spans.LAYER_METRICS:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    if [w["name"] for w in declared["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in layers:
        if name.split(".")[0] not in spans.LAYER_EFFECTS:
            problems.append(f"{name}: no predicted effect recorded for its layer")
    return problems


def main() -> int:
    run.use_checkout_sources()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = declared_metrics_problems(declared)
    for name in run.WORKLOADS:
        first, again, held_out = bench_once(name, 3), bench_once(name, 3), bench_once(name, 11)
        for label, record in (("seed 3", first), ("seed 3 again", again), ("seed 11", held_out)):
            where = f"{name} {label}"
            problems += [f"{where}: {p}" for p in schema_problems(record, declared)]
            if record["failed"] or record["failed_frac"] != 0 or not record["correct"]:
                problems.append(f"{where}: failures {record['failures']}")
            exact = record["exact"]
            problems += [
                f"{where}: {p}"
                for p in structural_counts(name, exact["counts"] or {}, len(exact["frames"]))
            ]
        if first["exact"] != again["exact"]:
            problems.append(f"{name}: digests or counts differ between identical runs")
        if first["exact"]["digest"] == held_out["exact"]["digest"]:
            problems.append(f"{name}: the held-out seed produced identical outputs")
        print(f"{name}: digest {(first['exact']['digest'] or '')[:16]} counts {first['exact']['counts']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
