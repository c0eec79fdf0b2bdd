#!/usr/bin/env python3
"""API smoke test: every request kind, built from JSON, through one Session.

The CI ``make api-smoke`` target runs this script under
``python -W error::DeprecationWarning``, which asserts two things at once:

1. each request type deserializes from a plain JSON document
   (``request_from_dict``), executes on a tiny design space through
   :class:`repro.api.Session`, and returns a healthy, JSON-serializable
   :class:`repro.api.ApiResult`;
2. the session layer never touches the deprecated pre-API front doors —
   any stray ``DeprecationWarning`` fails the run.

Exit code 0 means the whole typed API surface is alive.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.api import Session, SessionConfig, request_from_dict

#: One JSON document per request kind, all sized for a seconds-long run.
REQUEST_DOCUMENTS = [
    {"kind": "estimate", "height": 128, "width": 8, "local_array_size": 4,
     "adc_bits": 3, "adc_sweep": True},
    {"kind": "explore", "array_size": 1024, "population": 16,
     "generations": 4, "seed": 3, "min_snr_db": 5.0},
    {"kind": "explore", "array_size": 256, "method": "exhaustive"},
    {"kind": "explore", "array_size": 256, "method": "sensitivity",
     "sensitivity_parameters": ["k1"], "relative_change": 0.2},
    {"kind": "campaign", "name": "api-smoke", "array_size": 1024,
     "population": 16, "generations": 3, "seed": 5},
    {"kind": "campaign", "name": "api-smoke-interrupted", "array_size": 1024,
     "population": 16, "generations": 3, "seed": 5, "stop_after": 1},
    {"kind": "query", "what": "designs", "rank_by": "tops_per_watt",
     "limit": 3},
    {"kind": "query", "what": "campaigns"},
    {"kind": "flow", "array_size": 256, "population": 16, "generations": 3,
     "seed": 1, "max_layouts": 1, "generate_layouts": False},
    {"kind": "layout", "height": 16, "width": 4, "local_array_size": 4,
     "adc_bits": 2, "route_columns": False, "spice": True, "lef": True},
    {"kind": "validate-snr", "adc_bits": [3], "height": 64,
     "local_array_size": 4, "trials": 100},
    {"kind": "library", "report": False},
]

#: Statuses the smoke accepts per kind (interrupted campaigns are healthy).
ACCEPTED_STATUSES = {"campaign": {"ok", "interrupted"}}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="easyacim-api-smoke-") as tmp:
        config_document = json.loads(json.dumps({
            "store": str(Path(tmp) / "store.sqlite"),
        }))
        with Session.from_config(config_document) as session:
            for document in REQUEST_DOCUMENTS:
                if document["kind"] == "layout":
                    document = {**document,
                                "output_dir": str(Path(tmp) / "layout")}
                # The wire round-trip is part of the contract under test.
                wire = json.loads(json.dumps(document))
                request = request_from_dict(wire)
                assert request.to_dict() == request_from_dict(
                    request.to_dict()).to_dict(), f"round-trip drift: {wire}"
                result = session.submit(request)
                accepted = ACCEPTED_STATUSES.get(document["kind"], {"ok"})
                if result.status not in accepted:
                    print(f"FAIL: {document} -> status {result.status!r}")
                    return 1
                # The envelope must survive JSON serialization whole.
                rebuilt = json.loads(result.to_json())
                assert rebuilt["kind"] == request.kind
                print(f"{request.kind:<12} status={result.status:<11} "
                      f"evaluations={result.engine_stats.get('evaluations', 0):<5} "
                      f"cache_hits={result.engine_stats.get('cache_hits', 0)}")
    print("\napi smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
