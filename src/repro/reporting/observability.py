"""Report tables for metrics snapshots and per-campaign run metrics.

Row builders for the ``repro metrics`` subcommand and the campaign-trend
columns of ``campaign list``.  Metric snapshots come from
:meth:`repro.obs.MetricsRegistry.snapshot` (scalars for counters/gauges,
``{"count", "sum", "buckets"}`` dictionaries for histograms); run-metric
rows come from :meth:`repro.store.result_store.ResultStore.list_run_metrics`.
Each helper returns plain ``List[Dict]`` rows so they compose with
:func:`repro.flow.report.format_table` and the CSV/JSON exporters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


def metrics_table(snapshot: Dict[str, object]) -> List[Dict]:
    """One row per metric, histograms folded to count / sum / mean."""
    rows: List[Dict] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict) and "buckets" in value:
            count = value.get("count", 0)
            total = value.get("sum", 0.0)
            rows.append({
                "metric": name,
                "kind": "histogram",
                "count": count,
                "sum": round(float(total), 6),
                "mean": round(float(total) / count, 6) if count else 0.0,
            })
        else:
            rows.append({
                "metric": name,
                "kind": "scalar",
                "count": "",
                "sum": value,
                "mean": "",
            })
    return rows


def run_metrics_table(rows: Iterable[Dict]) -> List[Dict]:
    """One row per recorded campaign run (``run_metrics`` store table)."""
    table: List[Dict] = []
    for row in rows:
        metrics = row.get("metrics", {}) or {}
        physical = metrics.get("physical", {}) or {}
        rendered = {
            "campaign": row.get("campaign", ""),
            "run": row.get("run_index", 0),
            "status": metrics.get("status", ""),
            "generations": metrics.get("generations", 0),
            "runtime_s": metrics.get("runtime_seconds", 0.0),
            "gens_per_s": metrics.get("generations_per_second", 0.0),
            "evaluations": metrics.get("evaluations", 0),
            "cache_hit_rate": metrics.get("cache_hit_rate", 0.0),
            # built/reused/derived macro counts of flow runs.
            "macros": (
                "{}/{}/{}".format(
                    physical.get("macros_built", 0),
                    physical.get("macros_reused", 0),
                    physical.get("macros_derived", 0),
                )
                if physical else ""
            ),
        }
        table.append(rendered)
    return table


def campaign_trend_table(rows: Iterable[Dict]) -> List[Dict]:
    """One row per campaign aggregating its runs into a trend summary.

    Shows how throughput and cache effectiveness evolve across resumes:
    the first and latest per-run generations/sec and cache-hit rate, so
    a warm store (rising hit rate) is visible at a glance.
    """
    by_campaign: Dict[str, List[Dict]] = {}
    for row in rows:
        metrics = row.get("metrics", {}) or {}
        by_campaign.setdefault(str(row.get("campaign", "")), []).append(metrics)
    table: List[Dict] = []
    for campaign in sorted(by_campaign):
        runs = by_campaign[campaign]
        generations = sum(run.get("generations", 0) or 0 for run in runs)
        runtime = sum(run.get("runtime_seconds", 0.0) or 0.0 for run in runs)
        table.append({
            "campaign": campaign,
            "runs": len(runs),
            "generations": generations,
            "gens_per_s": round(generations / runtime, 3) if runtime > 0 else 0.0,
            "first_gps": runs[0].get("generations_per_second", 0.0),
            "last_gps": runs[-1].get("generations_per_second", 0.0),
            "first_hit_rate": runs[0].get("cache_hit_rate", 0.0),
            "last_hit_rate": runs[-1].get("cache_hit_rate", 0.0),
        })
    return table
