"""Outside-in benchmark of lidarseq: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload agg-kitti --seed 0 --seconds 40 --trace 0

The run builds the workload's inputs from the seed at least five times and
for at least two seconds (timed: ``setup_s``), runs one untimed frame
under a memory probe (``peak_mem_mb``), then sweeps reference frames in a
closed loop with one client for ``--seconds`` of frame time, and at least
once over the digest frames (``frames_per_s``, ``frame_ms_p50``). After
every frame, outside the timed region, the outputs are checked: the first
output for each reference frame against invariants (and digested), later
ones against its exact counts.
``--trace 1`` adds a separate traced pass over the digest frames and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
sample counts, exact counts, output digests) is printed on the line before
it and written under ``perfbench/_results/``.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Pinned before numpy loads; CLI children inherit the same environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "_results"
WORK = HERE / "_work"
WORKLOADS = ("agg-kitti", "cli-disk")
# Set-up repeats until both are reached; setup_s is the median.
SETUP_MIN_COUNT = 5
SETUP_MIN_SECONDS = 2.0
RUN_DEADLINE_S = 150.0
MAX_FAILURE_MESSAGES = 20

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "frame_ms_p50": ("ms", "lower"),
    "peak_mem_mb": ("MB", "lower"),
    "ok_frac": ("share", "higher"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_sources() -> None:
    """Import lidarseq from this checkout's src/, and make children do so."""
    if not (SRC / "lidarseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no lidarseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    import lidarseq

    if Path(lidarseq.__file__).resolve().parent != (SRC / "lidarseq").resolve():
        raise SystemExit(f"error: lidarseq was imported from {lidarseq.__file__}, not {SRC}")


class Ledger:
    """Operations attempted and failed, plus per-frame digests and counts."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[int, dict[str, str]] = {}
        self.counts: dict[int, dict[str, int]] = {}

    def fail(self, t: int, problems: list[str]) -> None:
        self.failed += 1
        room = MAX_FAILURE_MESSAGES - len(self.messages)
        self.messages += [f"t={t}: {p}" for p in problems[:max(room, 0)]]

    def raised(self, t: int, exc: Exception) -> None:
        self.attempted += 1
        self.fail(t, [f"{type(exc).__name__}: {exc}"])

    def verify(self, t: int, outputs) -> None:
        """Full invariant checks and digests on the first output for ``t``;
        every later output for ``t`` must repeat its exact counts."""
        self.attempted += 1
        try:
            if t in self.counts:
                problems = [] if self.workload.counts(outputs) == self.counts[t] else [
                    "exact counts differ from the checked output for the same frame"
                ]
            else:
                problems = self.workload.check(t, outputs)
                if not problems:
                    self.digests[t] = checks.digest_arrays(self.workload.arrays(outputs))
                    self.counts[t] = self.workload.counts(outputs)
        except Exception as exc:  # a check that cannot run fails the operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(t, problems)

    def summary(self, ts: list[int]) -> dict:
        """Exact counts summed over, and digests chained across, ``ts``."""
        if not all(t in self.digests for t in ts):
            return {"counts": None, "digests": None, "digest": None}
        counts: dict[str, int] = {}
        for t in ts:
            for key, value in self.counts[t].items():
                counts[key] = counts.get(key, 0) + value
        names = sorted(self.digests[ts[0]])
        per_array = {n: checks.combine(self.digests[t][n] for t in ts) for n in names}
        return {
            "counts": counts,
            "digests": per_array,
            "digest": checks.combine(per_array[n] for n in names),
        }


def timed_sweep(workload, ledger: Ledger, seconds: float, deadline: float) -> list[float]:
    """Closed loop, one client: frame t+1 starts when frame t is done.

    Runs for ``seconds`` of frame time, and at least once over the first
    ``digest_frames`` reference frames, so every run digests the same frames.
    """
    times: list[float] = []
    block = workload.digest_frames
    i = 0
    while (i < block or sum(times) < seconds) and time.monotonic() < deadline:
        t = workload.ts[i % len(workload.ts)]
        i += 1
        start = time.perf_counter()
        try:
            outputs = workload.run_frame(t)
        except Exception as exc:  # a failed frame is counted, the sweep goes on
            ledger.raised(t, exc)
            if not times and i >= block:
                break  # a whole block failed; more of it measures nothing
            continue
        times.append(time.perf_counter() - start)
        ledger.verify(t, outputs)
        del outputs
    return times


def traced_pass(workload, ledger: Ledger, deadline: float):
    """One traced set-up and the digest frames, each under a root span."""
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    frame_times = []
    try:
        workload.prepare()
        with tracer.span("setup"):
            workload.setup(tracer)
        for t in workload.ts[: workload.digest_frames]:
            if time.monotonic() >= deadline:
                break
            try:
                with tracer.span("frame") as frame:
                    outputs = workload.run_frame(t, tracer)
            except Exception as exc:  # counted like an untraced failure
                ledger.raised(t, exc)
                continue
            frame_times.append(frame["end"] - frame["start"])
            ledger.verify(t, outputs)
            del outputs
    finally:
        restore()
    return tracer, frame_times


def tail_note(n: int) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    q = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if q > 50:
        return {"percentile": q, "samples": n}
    return {
        "percentile": None,
        "samples": n,
        "note": f"{n} frames: no percentile above the median has ten samples beyond it",
    }


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "storage": workload.storage(),
        "seed": seed,
        "loop": "closed, one client",
    }


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_times = []
    while len(setup_times) < SETUP_MIN_COUNT or sum(setup_times) < SETUP_MIN_SECONDS:
        workload.prepare()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    ledger = Ledger(workload)
    first = workload.ts[0]
    peak = None
    try:
        outputs, peak = workload.peak_frame(first)
    except Exception as exc:  # counted; the timed sweep still runs
        ledger.raised(first, exc)
    else:
        ledger.verify(first, outputs)
        del outputs

    times = timed_sweep(workload, ledger, seconds, deadline)
    digest_ts = workload.ts[: workload.digest_frames]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(workload, seed),
        "metrics": {},
        "samples": {},
    }
    measured = bool(times) and peak is not None
    if measured:
        fps = len(times) / sum(times)
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "frames_per_s": fps,
            "frame_ms_p50": 1e3 * statistics.median(times),
            "peak_mem_mb": peak / 1e6,
        }
        record["samples"] = {
            "setup_s": len(setup_times),
            "frames_per_s": len(times),
            "frame_ms_p50": len(times),
            "peak_mem_mb": 1,
        }
        record["frame_ms_tail"] = tail_note(len(times))
        record["frame_ms"] = [1e3 * x for x in times]

    if measured and trace:
        tracer, traced = traced_pass(workload, ledger, deadline)
        spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.jsonl"
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        overhead = fps / (len(traced) / sum(traced)) - 1.0 if traced else 0.0
        record["per_layer"] = spans.layer_metrics(
            tracer.spans, max(len(traced), 1), 1, getattr(workload, "cli_walls", {}), overhead
        )
        record["traced_frames"] = len(traced)
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted = max(ledger.attempted, 1)
    record["metrics"]["ok_frac"] = (ledger.attempted - ledger.failed) / attempted
    record["samples"]["ok_frac"] = ledger.attempted
    record["failed_frac"] = ledger.failed / attempted
    record["exact"] = dict(ledger.summary(digest_ts), frames=digest_ts)
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["failures"] = ledger.messages
    record["correct"] = measured and ledger.failed == 0 and record["exact"]["digest"] is not None
    return record


def final_line(record: dict, trace: int) -> dict:
    if trace:
        table, values = spans.LAYER_METRICS, record.get("per_layer", {})
    else:
        table, values = END_TO_END, record.get("metrics", {})
    return {
        "correct": bool(record["correct"]) and all(name in values for name in table),
        "attempted": max(int(record["attempted"]), 1),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in table.items() if name in values
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, WORK / args.workload)
    try:
        record = run(workload, args.seed, args.seconds, args.trace)
    finally:
        workload.close()
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(final_line(record, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
