"""Reporting helpers: plain-text tables for solutions, frontiers and flows.

The benchmark harness and the examples print the same rows/series the
paper's tables and figures report; these helpers keep that formatting in
one place (fixed-width text tables, CSV lines) so every entry point prints
consistent, diffable output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.dse.problem import EvaluatedDesign


def format_table(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Format dictionaries as a fixed-width text table.

    Args:
        rows: records to print; all values are converted with ``str``.
        columns: column order; defaults to the keys of the first row.
    """
    if not rows:
        return "(empty table)"
    columns = list(columns) if columns else list(rows[0].keys())
    rendered = [[_format_value(row.get(column, "")) for column in columns]
                for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = " | ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(value.ljust(width) for value, width in zip(line, widths))
        for line in rendered
    ]
    return "\n".join([header, separator] + body)


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def design_table(designs: Iterable[EvaluatedDesign]) -> List[Dict]:
    """Flatten evaluated designs into report rows."""
    return [design.metrics.as_dict() for design in designs]


def pareto_summary(designs: Sequence[EvaluatedDesign]) -> Dict[str, float]:
    """Headline ranges of a Pareto set (the paper's abstract-level claims)."""
    if not designs:
        return {}
    metrics = [design.metrics for design in designs]
    return {
        "solutions": len(designs),
        "snr_db_min": min(m.snr_db for m in metrics),
        "snr_db_max": max(m.snr_db for m in metrics),
        "tops_min": min(m.tops for m in metrics),
        "tops_max": max(m.tops for m in metrics),
        "tops_per_watt_min": min(m.tops_per_watt for m in metrics),
        "tops_per_watt_max": max(m.tops_per_watt for m in metrics),
        "area_f2_per_bit_min": min(m.area_f2_per_bit for m in metrics),
        "area_f2_per_bit_max": max(m.area_f2_per_bit for m in metrics),
    }


def solution_report(design: EvaluatedDesign) -> str:
    """Multi-line report of one Pareto solution."""
    metrics = design.metrics
    spec = design.spec
    lines = [
        f"Solution {spec.describe()}",
        f"  SNR            : {metrics.snr_db:.2f} dB",
        f"  throughput     : {metrics.tops:.3f} TOPS "
        f"({metrics.macs_per_second / 1e9:.1f} GMAC/s)",
        f"  energy         : {metrics.energy_per_mac * 1e15:.2f} fJ/MAC "
        f"({metrics.tops_per_watt:.0f} TOPS/W)",
        f"  area           : {metrics.area_f2_per_bit:.0f} F^2/bit "
        f"({metrics.total_area_um2:.0f} um^2 total)",
    ]
    return "\n".join(lines)


def engine_stats_table(stats: Dict[str, float]) -> List[Dict]:
    """One report row from an evaluation-engine statistics dictionary.

    Consumes the ``engine_stats`` attached to :class:`ExplorationResult`
    and :class:`FlowResult`; column order keeps the throughput figures
    (evaluations/sec) next to the cache effectiveness (hits vs computed).
    ``worker_s`` is the model's own compute time inside ``busy_s``; the
    rest of ``busy_s`` is keying, caching and store bookkeeping.

    Timing cells are defensively clamped: a negative or non-numeric
    timing and a zero or missing ``busy_seconds`` must never divide or
    print — both render as ``0.0`` instead of raising or printing
    ``-0.00``.
    """
    if not stats:
        return []
    busy = _clamped_seconds(stats.get("busy_seconds", 0.0))
    evaluations = stats.get("evaluations", 0)
    evals_per_s = stats.get("evaluations_per_second")
    if not isinstance(evals_per_s, (int, float)) or evals_per_s < 0:
        evals_per_s = (
            round(evaluations / busy, 1)
            if busy > 0.0 and isinstance(evaluations, (int, float))
            else 0.0
        )
    row = {
        "batches": stats.get("batches", 0),
        "tasks": stats.get("tasks", 0),
        "evaluations": evaluations,
        "cache_hits": stats.get("cache_hits", 0),
        "busy_s": busy,
        "worker_s": _clamped_seconds(stats.get("worker_seconds", 0.0)),
        "evals_per_s": evals_per_s,
    }
    return [row]


def _clamped_seconds(value) -> float:
    """A timing cell as a non-negative float (bad inputs become 0.0)."""
    if not isinstance(value, (int, float)) or value < 0:
        return 0.0
    return float(value)


def csv_lines(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> List[str]:
    """Render rows as CSV lines (header first)."""
    if not rows:
        return []
    columns = list(columns) if columns else list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(column, "")) for column in columns))
    return lines
