#!/usr/bin/env python3
"""Schema check for the timeline-observability artifacts.

Given a bench --json report produced with --trace-out and
--stats-interval, validates every per-point artifact the report names:

  * the Chrome trace-event JSON: Perfetto-loadable shape
    (displayTimeUnit, traceEvents with ph/pid/tid/ts, metadata track
    names) and a drop ledger whose written-event count is exactly
    emitted - dropped; and a point whose snapshot counts context
    switches (sim.context_switches > 0) must show them on the 'sched'
    track unless its ring dropped events;
  * the interval JSONL: epochs numbered from 1, per-epoch refs summing
    to refs_total, monotone simulated time; and for every stat name
    shared with the report's final snapshot, either the epoch deltas
    sum to the final value (counters) or the last epoch's absolute
    value equals it (formulas) — the acceptance invariant for
    --stats-interval.

Usage: check_obs_outputs.py <bench-report.json>
Exits nonzero on the first malformed artifact.
"""

import json
import math
import sys

TRACK_NAMES = {"l2", "tlb", "pager", "dram", "sched"}
EVENT_NAMES = {
    "l2_miss", "page_fault", "tlb_fill", "tlb_flush",
    "context_switch", "dram_tx", "process_switch",
}

failures = 0


def fail(msg):
    global failures
    failures += 1
    print(f"check_obs_outputs: FAIL: {msg}", file=sys.stderr)


def check_trace(path, final_stats):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("displayTimeUnit") != "ns":
        fail(f"{path}: displayTimeUnit is not 'ns'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
        return
    tracks = set()
    written = 0
    sched_events = 0
    last_ts = -math.inf
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                tracks.add(ev["args"]["name"])
            continue
        written += 1
        if ev.get("cat") == "sched":
            sched_events += 1
        if ph not in ("X", "i"):
            fail(f"{path}: unexpected phase {ph!r}")
        if ev.get("name") not in EVENT_NAMES:
            fail(f"{path}: unknown event name {ev.get('name')!r}")
        for key in ("pid", "tid", "ts"):
            if key not in ev:
                fail(f"{path}: event missing '{key}'")
        if ph == "X" and "dur" not in ev:
            fail(f"{path}: complete event missing 'dur'")
        # Events are written in simulated-time order, so time is
        # monotone within one trace file (multicore runs included).
        if ev.get("ts", 0) < last_ts:
            fail(f"{path}: timestamps go backwards at ts={ev['ts']}")
        last_ts = ev.get("ts", 0)
    if not tracks <= TRACK_NAMES:
        fail(f"{path}: unknown tracks {sorted(tracks - TRACK_NAMES)}")
    other = doc.get("otherData", {})
    emitted, dropped = other.get("emitted"), other.get("dropped")
    if not isinstance(emitted, int) or not isinstance(dropped, int):
        fail(f"{path}: otherData.emitted/dropped missing")
    elif written != emitted - dropped:
        fail(f"{path}: {written} events written but ledger says "
             f"{emitted} emitted - {dropped} dropped")
    switches = (final_stats or {}).get("sim.context_switches", 0)
    if switches > 0 and dropped == 0 and sched_events == 0:
        fail(f"{path}: the run took {switches} context switches but "
             f"its trace has no 'sched'-track events")


def check_intervals(path, final_stats):
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines:
        fail(f"{path}: no epochs")
        return
    refs_sum = 0
    last_ns = -math.inf
    sums = {}
    for i, line in enumerate(lines):
        if line.get("epoch") != i + 1:
            fail(f"{path}: epoch {line.get('epoch')} at line {i + 1}")
        refs_sum += line.get("refs", 0)
        if line.get("refs_total") != refs_sum:
            fail(f"{path}: refs_total {line.get('refs_total')} != "
                 f"cumulative refs {refs_sum} at epoch {i + 1}")
        if line.get("sim_ns", 0) < last_ns:
            fail(f"{path}: sim_ns goes backwards at epoch {i + 1}")
        last_ns = line.get("sim_ns", 0)
        stats = line.get("stats")
        if not isinstance(stats, dict) or not stats:
            fail(f"{path}: epoch {i + 1} has no stats object")
            continue
        for name, value in stats.items():
            if isinstance(value, (int, float)):
                sums[name] = sums.get(name, 0) + value
    if final_stats is None:
        return
    final_line = lines[-1].get("stats", {})
    for name, final in final_stats.items():
        if not isinstance(final, (int, float)):
            continue  # histograms are objects; checked structurally
        if name not in sums:
            continue  # post-hoc sim.* entries never appear in epochs
        # Counters: deltas sum to the final absolute value.
        # Formulas: absolute each epoch, so the LAST epoch matches.
        if sums[name] != final and final_line.get(name) != final:
            fail(f"{path}: '{name}' sums to {sums[name]} and ends at "
                 f"{final_line.get(name)}, but the final snapshot "
                 f"says {final}")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        report = json.load(fh)
    results = report.get("results", [])
    traces = intervals = 0
    for result in results:
        if "trace_file" in result:
            check_trace(result["trace_file"], result.get("stats"))
            traces += 1
        if "interval_file" in result:
            check_intervals(result["interval_file"],
                            result.get("stats"))
            intervals += 1
    if not traces and not intervals:
        fail("report names no trace or interval files — was the bench "
             "run with --trace-out / --stats-interval?")
    phases = report.get("phases")
    if not isinstance(phases, dict) or "simulate" not in phases:
        fail("report has no host-phase rollup")
    if failures:
        return 1
    print(f"check_obs_outputs: ok ({traces} traces, "
          f"{intervals} interval series, "
          f"{len(results)} results)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
