"""Template-based ACIM netlist construction (paper Figure 4, middle).

The netlist stage of the physical pipeline: given a design spec and the
cell library, assemble the full macro netlist hierarchically, mirroring
the synthesizable architecture:

* a **local array** subcircuit: L 8T SRAM cells sharing one local
  computing cell,
* a **column** subcircuit: H/L local arrays, the read-bitline isolation
  switch, the dynamic comparator, the SAR controller and the output
  buffer,
* the **macro**: W identical columns plus the per-row input buffers.

The output is an ordinary :class:`repro.netlist.Circuit`, so it can be
validated, flattened, counted and exported to SPICE like any other
circuit.  :meth:`repro.physical.pipeline.PhysicalPipeline.run` with
``generate_netlist=True`` is the entry point that runs this builder.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import FlowError
from repro.arch.architecture import SynthesizableACIM
from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import CellLibrary, sar_controller_for
from repro.netlist.circuit import Circuit, Pin, PinDirection

#: Cells the builder instantiates; the builder validates their presence.
REQUIRED_CELLS: Tuple[str, ...] = (
    "sram8t", "local_compute", "comparator", "sar_dff",
    "cmos_switch", "input_buffer", "output_buffer",
)


class NetlistBuilder:
    """Builds macro netlists from the cell library for given design specs."""

    def __init__(self, library: CellLibrary) -> None:
        missing = [name for name in REQUIRED_CELLS if not library.has_cell(name)]
        if missing:
            raise FlowError(f"cell library is missing required cells: {missing}")
        self.library = library

    # -- public API -----------------------------------------------------------------

    def build(self, spec: ACIMDesignSpec) -> Circuit:
        """Build the macro netlist for ``spec``."""
        spec.validate()
        architecture = SynthesizableACIM(spec)
        local_array = self._local_array_circuit(spec)
        column = self._column_circuit(spec, local_array)
        return self._macro_circuit(spec, architecture, column)

    # -- subcircuit builders -----------------------------------------------------------

    def _local_array_circuit(self, spec: ACIMDesignSpec) -> Circuit:
        """L SRAM cells sharing one local computing cell."""
        size = spec.local_array_size
        pins = [Pin(f"RWL{i}", PinDirection.INPUT) for i in range(size)]
        pins += [Pin(f"WL{i}", PinDirection.INPUT) for i in range(size)]
        pins += [
            Pin("BL", PinDirection.INOUT),
            Pin("BLB", PinDirection.INOUT),
            Pin("RBL", PinDirection.INOUT),
            Pin("P", PinDirection.INPUT),
            Pin("N", PinDirection.INPUT),
            Pin("PB", PinDirection.INPUT),
            Pin("PCH", PinDirection.INPUT),
            Pin("RST", PinDirection.INPUT),
            Pin("VCM", PinDirection.SUPPLY),
            Pin("VDD", PinDirection.SUPPLY),
            Pin("VSS", PinDirection.SUPPLY),
        ]
        circuit = Circuit(f"local_array_L{size}", pins=pins)
        sram = self.library.netlist("sram8t")
        for row in range(size):
            circuit.add_instance(f"CELL{row}", sram, connections={
                "WL": f"WL{row}",
                "BL": "BL",
                "BLB": "BLB",
                "RWL": f"RWL{row}",
                "LBL": "LBL",
                "VDD": "VDD",
                "VSS": "VSS",
            })
        circuit.add_instance("LC", self.library.netlist("local_compute"), connections={
            "LBL": "LBL",
            "RBL": "RBL",
            "P": "P",
            "N": "N",
            "PB": "PB",
            "PCH": "PCH",
            "RST": "RST",
            "VCM": "VCM",
            "VDD": "VDD",
            "VSS": "VSS",
        })
        return circuit

    def _column_circuit(self, spec: ACIMDesignSpec, local_array: Circuit) -> Circuit:
        """One column: local arrays, isolation switch, comparator, SAR logic."""
        num_local = spec.local_arrays_per_column
        bits = spec.adc_bits
        pins = [Pin(f"RWL{row}", PinDirection.INPUT) for row in range(spec.height)]
        pins += [Pin(f"WL{row}", PinDirection.INPUT) for row in range(spec.height)]
        pins += [
            Pin("BL", PinDirection.INOUT),
            Pin("BLB", PinDirection.INOUT),
            Pin("PCH", PinDirection.INPUT),
            Pin("RST", PinDirection.INPUT),
            Pin("CLK", PinDirection.INPUT),
            Pin("DOUT", PinDirection.OUTPUT),
            Pin("VCM", PinDirection.SUPPLY),
            Pin("VDD", PinDirection.SUPPLY),
            Pin("VSS", PinDirection.SUPPLY),
        ]
        circuit = Circuit(
            f"acim_column_H{spec.height}_L{spec.local_array_size}_B{bits}", pins=pins
        )
        # Map every local array to the SAR group whose control lines drive it;
        # surplus local arrays beyond the CDAC stay on the switched segment.
        architecture = SynthesizableACIM(spec)
        column_plan = architecture.column_plan(0)
        group_of_local = {
            array.index: array.sar_group for array in column_plan.local_arrays
        }
        for local_index in range(num_local):
            base_row = local_index * spec.local_array_size
            group = group_of_local.get(local_index, -1)
            # Group 0 and 1 both have weight 1; control signals are indexed by
            # the SAR bit they implement (group i >= 1 -> bit i - 1).
            bit = max(0, group - 1) if group >= 0 else 0
            control_suffix = f"{bit}"
            connections = {
                "BL": "BL",
                "BLB": "BLB",
                "RBL": "RBL" if group >= 0 else "RBL_EXT",
                "P": f"P{control_suffix}" if group >= 1 else "VSS",
                "N": f"N{control_suffix}" if group >= 1 else "VSS",
                "PB": "SHARE_EN",
                "PCH": "PCH",
                "RST": "RST",
                "VCM": "VCM",
                "VDD": "VDD",
                "VSS": "VSS",
            }
            for offset in range(spec.local_array_size):
                connections[f"RWL{offset}"] = f"RWL{base_row + offset}"
                connections[f"WL{offset}"] = f"WL{base_row + offset}"
            circuit.add_instance(f"LA{local_index}", local_array, connections)
        # Isolation switch separating the surplus capacitance after sampling.
        circuit.add_instance("SW_ISO", self.library.netlist("cmos_switch"), connections={
            "A": "RBL",
            "B": "RBL_EXT",
            "EN": "SHARE_EN",
            "ENB": "SHARE_ENB",
            "VDD": "VDD",
            "VSS": "VSS",
        })
        circuit.add_instance("COMP", self.library.netlist("comparator"), connections={
            "INP": "RBL",
            "INN": "VCM",
            "CLK": "CLK",
            "COM": "COMP_OUT",
            "COMB": "COMP_OUTB",
            "VDD": "VDD",
            "VSS": "VSS",
        })
        sar = sar_controller_for(self.library, bits)
        sar_connections = {
            "COMP": "COMP_OUT",
            "CLK": "CLK",
            "VDD": "VDD",
            "VSS": "VSS",
        }
        for bit in range(bits):
            sar_connections[f"P{bit}"] = f"P{bit}"
            sar_connections[f"N{bit}"] = f"N{bit}"
        circuit.add_instance("SAR", sar.netlist(), sar_connections)
        circuit.add_instance("OBUF", self.library.netlist("output_buffer"), connections={
            "IN": "COMP_OUT",
            "OUT": "DOUT",
            "VDD": "VDD",
            "VSS": "VSS",
        })
        return circuit

    def _macro_circuit(
        self,
        spec: ACIMDesignSpec,
        architecture: SynthesizableACIM,
        column: Circuit,
    ) -> Circuit:
        """W identical columns plus the per-row input buffers."""
        pins = [Pin(f"XIN{row}", PinDirection.INPUT) for row in range(spec.height)]
        pins += [Pin(f"WL{row}", PinDirection.INPUT) for row in range(spec.height)]
        pins += [Pin(f"DOUT{col}", PinDirection.OUTPUT) for col in range(spec.width)]
        pins += [Pin(f"BL{col}", PinDirection.INOUT) for col in range(spec.width)]
        pins += [Pin(f"BLB{col}", PinDirection.INOUT) for col in range(spec.width)]
        pins += [
            Pin("PCH", PinDirection.INPUT),
            Pin("RST", PinDirection.INPUT),
            Pin("CLK", PinDirection.INPUT),
            Pin("VCM", PinDirection.SUPPLY),
            Pin("VDD", PinDirection.SUPPLY),
            Pin("VSS", PinDirection.SUPPLY),
        ]
        name = (
            f"easyacim_{spec.array_size}b_H{spec.height}"
            f"_L{spec.local_array_size}_B{spec.adc_bits}"
        )
        macro = Circuit(name, pins=pins)
        input_buffer = self.library.netlist("input_buffer")
        for row in range(spec.height):
            macro.add_instance(f"IBUF{row}", input_buffer, connections={
                "IN": f"XIN{row}",
                "OUT": f"RWL{row}",
                "VDD": "VDD",
                "VSS": "VSS",
            })
        # Every column binds its row lines to the same-named macro nets:
        # build that identity part of the map once and merge it into each
        # column's own map.
        row_lines = {}
        for row in range(spec.height):
            row_lines[f"RWL{row}"] = f"RWL{row}"
            row_lines[f"WL{row}"] = f"WL{row}"
        columns = []
        for col in range(spec.width):
            connections = {
                "BL": f"BL{col}",
                "BLB": f"BLB{col}",
                "PCH": "PCH",
                "RST": "RST",
                "CLK": "CLK",
                "DOUT": f"DOUT{col}",
                "VCM": "VCM",
                "VDD": "VDD",
                "VSS": "VSS",
            }
            connections.update(row_lines)
            columns.append((f"COL{col}", connections))
        macro.add_instances(column, columns)
        macro.validate()
        return macro
