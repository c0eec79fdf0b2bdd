"""Trace smoke test: a quickstart-sized flow under ``repro trace``.

Exercises the observability layer end to end (the CI ``make trace-smoke``
target):

1. run a tiny flow through the real CLI wrapped in ``repro trace``,
   exporting a Chrome ``trace_event`` file;
2. assert the file parses as the Chrome trace format (the document
   Perfetto / chrome://tracing loads);
3. assert the trace nests spans from at least three layers — the API
   root span, engine batch spans, per-chunk evaluation spans
   and physical-pipeline stage spans — and that every parent id resolves
   inside the file;
4. assert timestamps are sane (non-negative durations, start <= end).

Exit code 0 means a ``repro trace``-wrapped campaign produces a trace a
human can actually open.  See ``docs/observability.md``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "flow_trace.json"
        exit_code = main([
            "trace", "--trace-out", str(trace_path), "--",
            "flow", "--array-size", "256", "--population", "16",
            "--generations", "4", "--seed", "1", "--max-layouts", "1",
            "--workers", "2", "--out", str(Path(tmp) / "out"),
        ])
        if exit_code != 0:
            print(f"FAIL: traced flow exited with {exit_code}")
            return 1
        if not trace_path.exists():
            print("FAIL: trace file was not written")
            return 1

        document = json.loads(trace_path.read_text())
        events = document.get("traceEvents")
        if not isinstance(events, list) or not events:
            print("FAIL: no traceEvents in the exported document")
            return 1
        if document.get("displayTimeUnit") != "ms":
            print("FAIL: displayTimeUnit missing (not a Chrome trace)")
            return 1

        names = {event["name"] for event in events}
        span_ids = {event["args"]["span_id"] for event in events}
        required_layers = {
            "api layer": any(name.startswith("api.") for name in names),
            "engine batch": "engine.evaluate_specs" in names,
            "chunk evaluation": "engine.chunk" in names,
            "physical pipeline": any(
                name.startswith("physical.") for name in names
            ),
        }
        missing = [layer for layer, seen in required_layers.items() if not seen]
        if missing:
            print(f"FAIL: trace is missing layers {missing}; got {sorted(names)}")
            return 1

        for event in events:
            parent = event["args"]["parent_id"]
            if parent is not None and parent not in span_ids:
                print(f"FAIL: dangling parent id {parent!r} on {event['name']}")
                return 1
            if event["ts"] < 0 or event["dur"] < 0:
                print(f"FAIL: negative timestamp on {event['name']}")
                return 1

        roots = sum(
            1 for event in events if event["args"]["parent_id"] is None
        )
        print(
            f"OK: {len(events)} spans across {len(names)} names, "
            f"{roots} roots, all parents resolve "
            f"(layers: api + engine batch + chunk + physical stages)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
