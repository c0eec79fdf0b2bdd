"""Unit tests for the netlist package (devices, circuits, SPICE, traversal)."""

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.errors import NetlistError
from repro.netlist import (
    Capacitor,
    Circuit,
    DeviceType,
    Mosfet,
    MosType,
    Pin,
    PinDirection,
    Resistor,
    count_devices,
    count_leaf_instances,
    flatten,
    hierarchy_depth,
    iter_hierarchy,
    parse_spice,
    write_spice,
)
from repro.netlist.spice import format_si, parse_si
from repro.netlist.traversal import total_capacitance, total_transistor_width
from repro.physical.netlist_builder import NetlistBuilder


def _inverter() -> Circuit:
    circuit = Circuit("inv", pins=[
        Pin("IN", PinDirection.INPUT),
        Pin("OUT", PinDirection.OUTPUT),
        Pin("VDD", PinDirection.SUPPLY),
        Pin("VSS", PinDirection.SUPPLY),
    ])
    circuit.add_device(Mosfet("P1", mos_type=MosType.PMOS, width=200e-9,
                              terminals={"D": "OUT", "G": "IN", "S": "VDD", "B": "VDD"}))
    circuit.add_device(Mosfet("N1", mos_type=MosType.NMOS, width=100e-9,
                              terminals={"D": "OUT", "G": "IN", "S": "VSS", "B": "VSS"}))
    return circuit


class TestDevices:
    def test_mosfet_type(self):
        nmos = Mosfet("M1", mos_type=MosType.NMOS)
        pmos = Mosfet("M2", mos_type=MosType.PMOS)
        assert nmos.device_type is DeviceType.NMOS
        assert pmos.device_type is DeviceType.PMOS

    def test_mosfet_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Mosfet("M1", width=-1e-9)
        with pytest.raises(ValueError):
            Mosfet("M1", fingers=0)

    def test_mosfet_gate_capacitance_scales_with_width(self):
        narrow = Mosfet("M1", width=100e-9)
        wide = Mosfet("M2", width=400e-9)
        assert wide.gate_capacitance() == pytest.approx(4 * narrow.gate_capacitance())

    def test_connect_and_full_connectivity(self):
        m = Mosfet("M1")
        for terminal, net in zip(("D", "G", "S", "B"), ("a", "b", "c", "d")):
            m.connect(terminal, net)
        assert m.is_fully_connected()
        assert m.nets() == ("a", "b", "c", "d")

    def test_connect_unknown_terminal(self):
        with pytest.raises(ValueError):
            Mosfet("M1").connect("X", "net")

    def test_capacitor_and_resistor_validation(self):
        with pytest.raises(ValueError):
            Capacitor("C1", capacitance=0.0)
        with pytest.raises(ValueError):
            Resistor("R1", resistance=-5.0)

    def test_capacitor_type(self):
        assert Capacitor("C1").device_type is DeviceType.CAPACITOR


class TestCircuit:
    def test_pins_create_nets(self):
        circuit = _inverter()
        assert circuit.has_net("IN")
        assert circuit.net("VDD").is_power

    def test_duplicate_pin_rejected(self):
        circuit = Circuit("c", pins=[Pin("A")])
        with pytest.raises(NetlistError):
            circuit.add_pin(Pin("A"))

    def test_duplicate_device_rejected(self):
        circuit = _inverter()
        with pytest.raises(NetlistError):
            circuit.add_device(Mosfet("P1"))

    def test_instance_connection_checks_pins(self):
        parent = Circuit("top")
        child = _inverter()
        with pytest.raises(NetlistError):
            parent.add_instance("X1", child, connections={"NOPE": "n1"})

    def test_self_instantiation_rejected(self):
        circuit = Circuit("c")
        with pytest.raises(NetlistError):
            circuit.add_instance("X1", circuit)

    def test_net_fanout(self):
        circuit = _inverter()
        assert circuit.net_fanout("OUT") == 2
        assert circuit.net_fanout("IN") == 2

    def test_validate_catches_unconnected_instance(self):
        parent = Circuit("top", pins=[Pin("VDD", PinDirection.SUPPLY)])
        parent.add_instance("X1", _inverter(), connections={"VDD": "VDD"})
        with pytest.raises(NetlistError):
            parent.validate()

    def test_validate_passes_for_complete_circuit(self):
        circuit = _inverter()
        circuit.validate()

    def test_dangling_nets(self):
        circuit = _inverter()
        circuit.add_net("floating")
        assert "floating" in circuit.dangling_nets()
        assert "OUT" not in circuit.dangling_nets()

    def test_is_leaf(self):
        assert _inverter().is_leaf()
        parent = Circuit("top")
        parent.add_instance("X1", _inverter(), connections={
            "IN": "a", "OUT": "b", "VDD": "VDD", "VSS": "VSS"})
        assert not parent.is_leaf()


class TestBulkInstances:
    """``add_instances`` keeps every check of one-at-a-time ``add_instance``."""

    FULL = {"IN": "a", "OUT": "b", "VDD": "VDD", "VSS": "VSS"}

    def test_unknown_pin_names_instance_circuit_and_first_bad_pin(self):
        parent = Circuit("top")
        entries = [
            ("X0", dict(self.FULL)),
            ("X1", {"IN": "a", "NOPE2": "x", "NOPE1": "y"}),
        ]
        with pytest.raises(NetlistError) as info:
            parent.add_instances(_inverter(), entries)
        message = str(info.value)
        assert "'X1'" in message and "'inv'" in message
        assert "'NOPE2'" in message and "NOPE1" not in message
        # Nothing of the failed call is registered.
        assert parent.instances == []
        assert parent.nets == []

    def test_duplicate_names_rejected(self):
        parent = Circuit("top")
        child = _inverter()
        with pytest.raises(NetlistError, match="duplicate instance 'X0'"):
            parent.add_instances(child, [("X0", {}), ("X0", {})])
        assert parent.instances == []
        parent.add_instance("X0", child, dict(self.FULL))
        with pytest.raises(NetlistError, match="duplicate instance 'X0'"):
            parent.add_instances(child, [("X1", {}), ("X0", {})])
        assert [inst.name for inst in parent.instances] == ["X0"]

    def test_self_instantiation_rejected(self):
        circuit = Circuit("c")
        with pytest.raises(NetlistError, match="cannot instantiate itself"):
            circuit.add_instances(circuit, [("X1", {})])

    def test_missing_pins_fail_validate_and_are_listed(self):
        parent = Circuit("top")
        parent.add_instances(_inverter(), [
            ("X0", dict(self.FULL)),
            ("X1", {"IN": "a", "VDD": "VDD"}),
        ])
        assert parent.instance("X0").is_fully_connected()
        assert not parent.instance("X1").is_fully_connected()
        with pytest.raises(NetlistError) as info:
            parent.validate()
        assert "'X1'" in str(info.value)
        assert "['OUT', 'VSS']" in str(info.value)

    def test_each_instance_owns_its_connection_map(self):
        parent = Circuit("top")
        shared = dict(self.FULL)
        first, second = parent.add_instances(
            _inverter(), [("X0", shared), ("X1", shared)]
        )
        assert first.connections is not second.connections
        assert first.connections is not shared
        first.connect("OUT", "c")
        assert second.connections["OUT"] == "b"
        assert shared["OUT"] == "b"

    def test_nets_created_in_first_use_order(self):
        parent = Circuit("top", pins=[Pin("VDD", PinDirection.SUPPLY)])
        parent.add_instances(_inverter(), [
            ("X0", {"IN": "a", "OUT": "b", "VDD": "VDD", "VSS": "VSS"}),
            ("X1", {"IN": "b", "OUT": "c", "VDD": "VDD", "VSS": "VSS"}),
        ])
        assert [net.name for net in parent.nets] == ["VDD", "a", "b", "VSS", "c"]
        assert parent.net("VDD").is_power
        assert not parent.net("VSS").is_power

    def test_add_instance_is_a_one_entry_bulk_call(self):
        one, bulk = Circuit("top"), Circuit("top")
        child = _inverter()
        single = one.add_instance("X0", child, dict(self.FULL))
        (batched,) = bulk.add_instances(child, [("X0", dict(self.FULL))])
        assert single.connections == batched.connections
        assert [n.name for n in one.nets] == [n.name for n in bulk.nets]
        assert write_spice(one) == write_spice(bulk)

    def test_macro_columns_do_not_share_maps(self, cell_library):
        macro = NetlistBuilder(cell_library).build(
            ACIMDesignSpec(height=16, width=4, local_array_size=4, adc_bits=2)
        )
        maps = [macro.instance(f"COL{col}").connections for col in range(4)]
        assert len({id(connections) for connections in maps}) == 4
        maps[0]["RWL0"] = "changed"
        assert maps[1]["RWL0"] == "RWL0"


class TestSpiceFormatting:
    def test_format_si_femto(self):
        assert format_si(1e-15) == "1f"

    def test_format_si_nano(self):
        assert format_si(30e-9) == "30n"

    def test_parse_si_suffixes(self):
        assert parse_si("1f") == pytest.approx(1e-15)
        assert parse_si("30n") == pytest.approx(30e-9)
        assert parse_si("2.5u") == pytest.approx(2.5e-6)
        assert parse_si("1meg") == pytest.approx(1e6)

    def test_parse_si_plain_and_exponent(self):
        assert parse_si("100") == pytest.approx(100.0)
        assert parse_si("1e-9") == pytest.approx(1e-9)

    def test_parse_si_rejects_garbage(self):
        with pytest.raises(NetlistError):
            parse_si("abc")


class TestSpiceRoundtrip:
    def test_write_contains_subckt(self):
        text = write_spice(_inverter())
        assert ".SUBCKT inv IN OUT VDD VSS" in text
        assert text.strip().endswith(".END")

    def test_roundtrip_flat_circuit(self):
        text = write_spice(_inverter())
        circuits = parse_spice(text)
        assert "inv" in circuits
        rebuilt = circuits["inv"]
        assert len(rebuilt.devices) == 2
        assert {p.name for p in rebuilt.pins} == {"IN", "OUT", "VDD", "VSS"}

    def test_roundtrip_hierarchy(self):
        top = Circuit("buf", pins=[Pin("A"), Pin("Y"), Pin("VDD", PinDirection.SUPPLY),
                                   Pin("VSS", PinDirection.SUPPLY)])
        inv = _inverter()
        top.add_instance("I1", inv, {"IN": "A", "OUT": "mid", "VDD": "VDD", "VSS": "VSS"})
        top.add_instance("I2", inv, {"IN": "mid", "OUT": "Y", "VDD": "VDD", "VSS": "VSS"})
        circuits = parse_spice(write_spice(top))
        assert set(circuits) == {"buf", "inv"}
        assert len(circuits["buf"].instances) == 2
        circuits["buf"].validate()

    def test_roundtrip_preserves_device_sizes(self):
        circuits = parse_spice(write_spice(_inverter()))
        widths = sorted(d.width for d in circuits["inv"].devices)
        assert widths == pytest.approx([100e-9, 200e-9])

    def test_roundtrip_capacitor(self):
        circuit = Circuit("capcell", pins=[Pin("A"), Pin("B")])
        circuit.add_device(Capacitor("C1", capacitance=2e-15,
                                     terminals={"PLUS": "A", "MINUS": "B"}))
        rebuilt = parse_spice(write_spice(circuit))["capcell"]
        assert rebuilt.devices[0].capacitance == pytest.approx(2e-15)

    def test_parse_rejects_undefined_subcircuit_reference(self):
        text = """
.SUBCKT top A B
XU1 A B missing_cell
.ENDS top
.END
"""
        with pytest.raises(NetlistError):
            parse_spice(text)

    def test_parse_handles_continuation_lines(self):
        text = """
.SUBCKT cell A B VDD VSS
MP1 B A VDD VDD pch
+ W=200n L=30n
.ENDS cell
"""
        circuits = parse_spice(text)
        assert circuits["cell"].devices[0].width == pytest.approx(200e-9)

    def test_supply_pins_guessed_from_names(self):
        circuits = parse_spice(write_spice(_inverter()))
        assert circuits["inv"].pin("VDD").direction is PinDirection.SUPPLY


class TestTraversal:
    def _tree(self):
        top = Circuit("top", pins=[Pin("VDD", PinDirection.SUPPLY),
                                   Pin("VSS", PinDirection.SUPPLY)])
        inv = _inverter()
        mid = Circuit("mid", pins=[Pin("VDD", PinDirection.SUPPLY),
                                   Pin("VSS", PinDirection.SUPPLY)])
        for i in range(3):
            mid.add_instance(f"I{i}", inv, {"IN": f"a{i}", "OUT": f"b{i}",
                                            "VDD": "VDD", "VSS": "VSS"})
        for j in range(2):
            top.add_instance(f"M{j}", mid, {"VDD": "VDD", "VSS": "VSS"})
        return top, mid, inv

    def test_hierarchy_depth(self):
        top, _mid, inv = self._tree()
        assert hierarchy_depth(inv) == 1
        assert hierarchy_depth(top) == 3

    def test_iter_hierarchy_paths(self):
        top, _, _ = self._tree()
        paths = [path for path, _circuit in iter_hierarchy(top)]
        assert "top" in paths
        assert "top/M0/I2" in paths

    def test_count_leaf_instances(self):
        top, _, _ = self._tree()
        assert count_leaf_instances(top) == {"inv": 6}

    def test_count_devices(self):
        top, _, _ = self._tree()
        counts = count_devices(top)
        assert counts[DeviceType.NMOS] == counts[DeviceType.PMOS]

    def test_flatten_paths(self):
        top, _, _ = self._tree()
        flat = flatten(top)
        assert "M1/I0/P1" in flat
        assert len(flat) == 12

    def test_total_capacitance_and_width(self):
        circuit = Circuit("c", pins=[Pin("A"), Pin("B")])
        circuit.add_device(Capacitor("C1", capacitance=1e-15,
                                     terminals={"PLUS": "A", "MINUS": "B"}))
        circuit.add_device(Mosfet("M1", width=200e-9, fingers=2,
                                  terminals={"D": "A", "G": "B", "S": "B", "B": "B"}))
        assert total_capacitance(circuit) == pytest.approx(1e-15)
        assert total_transistor_width(circuit) == pytest.approx(400e-9)
