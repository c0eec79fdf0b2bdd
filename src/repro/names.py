"""Names several layers agree on, in a leaf module that imports nothing.

The request layer validates against these before any work starts, so it
reads them here rather than from the layers that own the work: checking a
``LibraryRequest`` stage or a ``QueryRequest`` ranking metric must not
import the physical pipeline or the SQLite store.  Those layers re-export
the same objects (``repro.physical.artifacts.PIPELINE_STAGES``,
``repro.store.result_store.RANK_METRICS``).
"""

from typing import Dict

#: Stage names of the physical pipeline, in execution order.
PIPELINE_STAGES = ("netlist", "placement", "routing", "layout", "export")

#: ``query(rank_by=...)`` metrics and whether larger values rank first.
RANK_METRICS: Dict[str, bool] = {
    "snr_db": True,
    "snr_total_db": True,
    "tops": True,
    "macs_per_second": True,
    "tops_per_watt": True,
    "energy_per_mac": False,
    "area_f2_per_bit": False,
    "total_area_um2": False,
}
