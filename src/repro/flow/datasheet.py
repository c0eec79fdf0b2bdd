"""Datasheet generation for selected ACIM solutions.

The last artefact a macro generator owes its users is a datasheet: the
design parameters, the estimated performance corner, the physical summary
of the generated layout, the interface pins and the operating sequence.
:class:`DatasheetWriter` renders one as Markdown from the objects the flow
already produces (design spec, metrics, layout report, macro netlist), so
every distilled solution can ship with human-readable documentation.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.arch.architecture import SynthesizableACIM
from repro.arch.spec import ACIMDesignSpec
from repro.arch.timing import TimingModel, TimingParameters
from repro.model.estimator import ACIMEstimator, ACIMMetrics
from repro.netlist.circuit import Circuit, PinDirection
from repro.physical.pipeline import LayoutGenerationReport


class DatasheetWriter:
    """Renders Markdown datasheets for generated macros."""

    def __init__(
        self,
        estimator: Optional[ACIMEstimator] = None,
        timing: TimingParameters = TimingParameters(),
    ) -> None:
        self.estimator = estimator or ACIMEstimator()
        self.timing = timing

    # -- public API ------------------------------------------------------------

    def render(
        self,
        spec: ACIMDesignSpec,
        metrics: Optional[ACIMMetrics] = None,
        layout_report: Optional[LayoutGenerationReport] = None,
        netlist: Optional[Circuit] = None,
    ) -> str:
        """Render the datasheet text for one solution."""
        spec.validate()
        metrics = metrics or self.estimator.evaluate(spec)
        sections = [
            self._header(spec),
            self._parameter_section(spec),
            self._performance_section(metrics),
            self._timing_section(spec),
        ]
        if layout_report is not None:
            sections.append(self._physical_section(layout_report))
        if netlist is not None:
            sections.append(self._interface_section(netlist))
        sections.append(self._operating_sequence_section(spec))
        return "\n\n".join(sections) + "\n"

    def write(
        self,
        path: Union[str, Path],
        spec: ACIMDesignSpec,
        **kwargs,
    ) -> Path:
        """Render and write the datasheet, returning the path."""
        path = Path(path)
        path.write_text(self.render(spec, **kwargs))
        return path

    # -- sections ----------------------------------------------------------------

    @staticmethod
    def _header(spec: ACIMDesignSpec) -> str:
        name = (f"EasyACIM macro {spec.array_size // 1024}kb "
                f"H{spec.height} L{spec.local_array_size} B{spec.adc_bits}")
        return (f"# {name}\n\n"
                "Generated by the EasyACIM reproduction flow (synthesizable "
                "charge-redistribution ACIM, QR compute model, reusable SAR "
                "CDAC capacitors).")

    @staticmethod
    def _parameter_section(spec: ACIMDesignSpec) -> str:
        architecture = SynthesizableACIM(spec)
        ratios = ":".join(str(r) for r in spec.sar_group_ratios)
        lines = [
            "## Design parameters",
            "",
            "| Parameter | Value |",
            "|---|---|",
            f"| Array size | {spec.array_size} bit cells ({spec.height} x {spec.width}) |",
            f"| Array height H | {spec.height} |",
            f"| Array width W | {spec.width} |",
            f"| Local array size L | {spec.local_array_size} |",
            f"| ADC precision B_ADC | {spec.adc_bits} bit |",
            f"| Local arrays per column | {spec.local_arrays_per_column} |",
            f"| SAR group ratios | {ratios} |",
            f"| Isolated capacitors per column | "
            f"{architecture.unused_local_arrays_per_column()} |",
        ]
        return "\n".join(lines)

    @staticmethod
    def _performance_section(metrics: ACIMMetrics) -> str:
        lines = [
            "## Estimated performance (1b x 1b MAC)",
            "",
            "| Metric | Value |",
            "|---|---|",
            f"| SNR | {metrics.snr_db:.1f} dB |",
            f"| Throughput | {metrics.tops:.3f} TOPS "
            f"({metrics.macs_per_second / 1e9:.1f} GMAC/s) |",
            f"| Energy | {metrics.energy_per_mac * 1e15:.2f} fJ/MAC |",
            f"| Energy efficiency | {metrics.tops_per_watt:.0f} TOPS/W |",
            f"| Area | {metrics.area_f2_per_bit:.0f} F^2/bit "
            f"({metrics.total_area_um2:.0f} um^2) |",
        ]
        return "\n".join(lines)

    def _timing_section(self, spec: ACIMDesignSpec) -> str:
        model = TimingModel(spec, self.timing)
        lines = [
            "## Cycle timing",
            "",
            "| Phase | Duration |",
            "|---|---|",
            f"| MAC (compute) | {model.compute_time * 1e9:.2f} ns |",
            f"| Charge redistribution (setup) | {model.setup_time * 1e9:.2f} ns |",
            f"| SAR conversion ({spec.adc_bits} bits) | "
            f"{model.conversion_time * 1e9:.2f} ns |",
            f"| **Full cycle** | **{model.cycle_time * 1e9:.2f} ns** |",
            f"| MACs per cycle | {model.macs_per_cycle()} |",
        ]
        return "\n".join(lines)

    @staticmethod
    def _physical_section(report: LayoutGenerationReport) -> str:
        lines = [
            "## Physical summary (generated layout)",
            "",
            "| Item | Value |",
            "|---|---|",
            f"| Die size | {report.width_um:.1f} um x {report.height_um:.1f} um |",
            f"| Die area | {report.area_um2:.0f} um^2 |",
            f"| Normalised area | {report.area_f2_per_bit:.0f} F^2/bit |",
            f"| Routed interconnect nets | {report.routed_nets} "
            f"(failed: {report.failed_nets}) |",
            f"| Routed wirelength | {report.total_wirelength_um:.1f} um |",
        ]
        if report.gds_path:
            lines.append(f"| GDSII | `{report.gds_path}` |")
        if report.def_path:
            lines.append(f"| DEF | `{report.def_path}` |")
        return "\n".join(lines)

    @staticmethod
    def _interface_section(netlist: Circuit) -> str:
        groups = {
            PinDirection.INPUT: [],
            PinDirection.OUTPUT: [],
            PinDirection.INOUT: [],
            PinDirection.SUPPLY: [],
        }
        for pin in netlist.pins:
            groups[pin.direction].append(pin.name)
        lines = ["## Interface", "", "| Direction | Count | Pins |", "|---|---|---|"]
        labels = {
            PinDirection.INPUT: "Inputs",
            PinDirection.OUTPUT: "Outputs",
            PinDirection.INOUT: "Bidirectional",
            PinDirection.SUPPLY: "Supplies",
        }
        for direction, names in groups.items():
            if not names:
                continue
            preview = ", ".join(names[:6]) + (" ..." if len(names) > 6 else "")
            lines.append(f"| {labels[direction]} | {len(names)} | {preview} |")
        return "\n".join(lines)

    @staticmethod
    def _operating_sequence_section(spec: ACIMDesignSpec) -> str:
        lines = [
            "## Operating sequence",
            "",
            "1. **Reset** — RST high: both plates of every compute capacitor "
            "are forced to V_CM.",
            "2. **MAC** — RWL asserts the activations; each local array's "
            "shared capacitor top plate settles to VDD or VSS encoding the "
            "product of its selected weight bit and the activation.",
            "3. **Charge redistribution** — the top plates return to V_CM and "
            "the bottom plates share charge on the read bitline, producing "
            "the analog accumulation V_x.",
            "4. **Isolation** — the CMOS switch disconnects the "
            f"{spec.local_arrays_per_column - spec.capacitor_units_per_column} "
            "surplus capacitors to save conversion energy.",
            f"5. **SAR conversion** — {spec.adc_bits} comparison rounds steer "
            "the P<i>/N<i> group controls and produce the digital result.",
        ]
        return "\n".join(lines)
