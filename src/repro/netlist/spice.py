"""SPICE netlist writing and a small structural SPICE parser.

The writer emits hierarchical ``.SUBCKT`` blocks for a circuit and every
circuit it references, using standard element cards (``M`` for MOSFETs,
``C`` for capacitors, ``R`` for resistors, ``X`` for subcircuit instances).
The parser reads the same dialect back into :class:`~repro.netlist.circuit.Circuit`
objects; it is a structural parser (connectivity and sizing), not a
simulator front-end, which is all the cell library and the netlist
generator need.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Pin, PinDirection
from repro.netlist.device import Capacitor, Device, Mosfet, MosType, Resistor
from repro.netlist.traversal import iter_hierarchy

_SI_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}


def format_si(value: float) -> str:
    """Format a value with a SPICE engineering suffix (1e-15 -> ``1f``)."""
    for suffix, scale in (
        ("t", 1e12), ("g", 1e9), ("meg", 1e6), ("k", 1e3), ("", 1.0),
        ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12), ("f", 1e-15),
        ("a", 1e-18),
    ):
        if value == 0.0:
            return "0"
        magnitude = abs(value) / scale
        if 1.0 <= magnitude < 1000.0:
            text = f"{value / scale:.6g}"
            return f"{text}{suffix}"
    return f"{value:.6g}"


def parse_si(token: str) -> float:
    """Parse a SPICE number with optional engineering suffix."""
    token = token.strip().lower()
    match = re.fullmatch(r"([-+]?[\d.]+(?:e[-+]?\d+)?)(meg|[tgkmunpfa])?", token)
    if not match:
        raise NetlistError(f"cannot parse SPICE number {token!r}")
    value = float(match.group(1))
    suffix = match.group(2)
    if suffix:
        value *= _SI_SUFFIXES[suffix]
    return value


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_spice(circuit: Circuit, title: Optional[str] = None) -> str:
    """Serialise ``circuit`` and its full hierarchy to SPICE text.

    Subcircuits are emitted bottom-up so every ``X`` card refers to an
    already-defined ``.SUBCKT``.

    Args:
        circuit: the top circuit.
        title: optional title line; defaults to the circuit name.
    """
    lines: List[str] = [f"* {title or circuit.name}"]
    emitted: List[str] = []
    for sub in _bottom_up(circuit):
        lines.append("")
        lines.extend(_write_subckt(sub))
        emitted.append(sub.name)
    lines.append("")
    lines.append(".END")
    return "\n".join(lines) + "\n"


def _bottom_up(circuit: Circuit) -> List[Circuit]:
    """Return the hierarchy of ``circuit`` ordered children-before-parents."""
    ordered: List[Circuit] = []
    seen: Dict[str, Circuit] = {}

    def visit(current: Circuit) -> None:
        if current.name in seen:
            if seen[current.name] is not current:
                raise NetlistError(
                    f"two different circuits share the name {current.name!r}"
                )
            return
        seen[current.name] = current
        for instance in current.instances:
            visit(instance.reference)
        ordered.append(current)

    visit(circuit)
    return ordered


def _write_subckt(circuit: Circuit) -> List[str]:
    pin_names = " ".join(pin.name for pin in circuit.pins)
    lines = [f".SUBCKT {circuit.name} {pin_names}".rstrip()]
    for device in circuit.devices:
        lines.append(_device_card(device))
    # Circuit names are unique in the hierarchy (see _bottom_up), so each
    # reference's pin order is read once per subcircuit.
    pin_orders: Dict[str, List[str]] = {}
    for instance in circuit.instances:
        reference = instance.reference
        order = pin_orders.get(reference.name)
        if order is None:
            order = pin_orders[reference.name] = [pin.name for pin in reference.pins]
        nets = " ".join(map(instance.connections.__getitem__, order))
        lines.append(f"X{instance.name} {nets} {reference.name}")
    lines.append(f".ENDS {circuit.name}")
    return lines


def _device_card(device: Device) -> str:
    nets = " ".join(device.nets())
    if isinstance(device, Mosfet):
        model = "nch" if device.mos_type is MosType.NMOS else "pch"
        return (
            f"M{device.name} {nets} {model} "
            f"W={format_si(device.width)} L={format_si(device.length)} "
            f"M={device.fingers}"
        )
    if isinstance(device, Capacitor):
        return f"C{device.name} {nets} {format_si(device.capacitance)}"
    if isinstance(device, Resistor):
        return f"R{device.name} {nets} {format_si(device.resistance)}"
    raise NetlistError(f"cannot write device of type {type(device).__name__}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_spice(text: str) -> Dict[str, Circuit]:
    """Parse SPICE text into a dictionary of circuits keyed by name.

    Supports ``.SUBCKT``/``.ENDS`` blocks containing M/C/R element cards and
    X subcircuit instances.  Continuation lines starting with ``+`` are
    joined; ``*`` comments and blank lines are ignored.
    """
    lines = _preprocess(text)
    circuits: Dict[str, Circuit] = {}
    current: Optional[Circuit] = None
    pending_instances: List[Tuple[Circuit, str, List[str], str]] = []

    for line in lines:
        upper = line.upper()
        if upper.startswith(".SUBCKT"):
            tokens = line.split()
            if len(tokens) < 2:
                raise NetlistError(f"malformed .SUBCKT line: {line!r}")
            name = tokens[1]
            if current is not None:
                raise NetlistError(f"nested .SUBCKT {name!r} is not supported")
            pins = [Pin(pin_name, _guess_direction(pin_name)) for pin_name in tokens[2:]]
            current = Circuit(name, pins)
        elif upper.startswith(".ENDS"):
            if current is None:
                raise NetlistError(".ENDS without matching .SUBCKT")
            circuits[current.name] = current
            current = None
        elif upper.startswith(".END"):
            break
        elif upper.startswith("."):
            continue  # ignore other control cards (.PARAM, .OPTION, ...)
        else:
            if current is None:
                # top-level element cards outside subcircuits are ignored
                continue
            _parse_element(line, current, pending_instances)

    if current is not None:
        raise NetlistError(f"unterminated .SUBCKT {current.name!r}")

    pin_orders: Dict[str, List[str]] = {}
    for parent, inst_name, nets, ref_name in pending_instances:
        if ref_name not in circuits:
            raise NetlistError(
                f"instance {inst_name!r} references undefined subcircuit {ref_name!r}"
            )
        reference = circuits[ref_name]
        pin_names = pin_orders.get(ref_name)
        if pin_names is None:
            pin_names = pin_orders[ref_name] = [pin.name for pin in reference.pins]
        if len(nets) != len(pin_names):
            raise NetlistError(
                f"instance {inst_name!r}: {len(nets)} nets for "
                f"{len(pin_names)} pins of {ref_name!r}"
            )
        parent.add_instance(inst_name, reference, dict(zip(pin_names, nets)))

    return circuits


def _preprocess(text: str) -> List[str]:
    """Strip comments, join continuation lines."""
    raw_lines = text.splitlines()
    joined: List[str] = []
    for raw in raw_lines:
        line = raw.split("$", 1)[0].rstrip()
        if not line or line.lstrip().startswith("*"):
            continue
        if line.startswith("+") and joined:
            joined[-1] += " " + line[1:].strip()
        else:
            joined.append(line.strip())
    return joined


def _guess_direction(pin_name: str) -> PinDirection:
    upper = pin_name.upper()
    if upper in ("VDD", "VSS", "VCM", "GND", "VDDA", "VSSA"):
        return PinDirection.SUPPLY
    return PinDirection.INOUT


def _parse_element(
    line: str,
    circuit: Circuit,
    pending_instances: List[Tuple[Circuit, str, List[str], str]],
) -> None:
    tokens = line.split()
    card = tokens[0]
    kind = card[0].upper()
    name = card[1:] or card
    if kind == "M":
        if len(tokens) < 6:
            raise NetlistError(f"malformed MOSFET card: {line!r}")
        nets = tokens[1:5]
        model = tokens[5].lower()
        params = _parse_params(tokens[6:])
        mos_type = MosType.PMOS if model.startswith("p") else MosType.NMOS
        device = Mosfet(
            name=name,
            mos_type=mos_type,
            width=params.get("w", 100e-9),
            length=params.get("l", 30e-9),
            fingers=int(params.get("m", 1)),
        )
        for terminal, net in zip(device.TERMINAL_ORDER, nets):
            device.connect(terminal, net)
        circuit.add_device(device)
    elif kind == "C":
        if len(tokens) < 4:
            raise NetlistError(f"malformed capacitor card: {line!r}")
        device = Capacitor(name=name, capacitance=parse_si(tokens[3]))
        device.connect("PLUS", tokens[1])
        device.connect("MINUS", tokens[2])
        circuit.add_device(device)
    elif kind == "R":
        if len(tokens) < 4:
            raise NetlistError(f"malformed resistor card: {line!r}")
        device = Resistor(name=name, resistance=parse_si(tokens[3]))
        device.connect("PLUS", tokens[1])
        device.connect("MINUS", tokens[2])
        circuit.add_device(device)
    elif kind == "X":
        if len(tokens) < 3:
            raise NetlistError(f"malformed instance card: {line!r}")
        nets = tokens[1:-1]
        ref_name = tokens[-1]
        pending_instances.append((circuit, name, nets, ref_name))
    else:
        raise NetlistError(f"unsupported element card {card!r}")


def _parse_params(tokens: Iterable[str]) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for token in tokens:
        if "=" not in token:
            continue
        key, value = token.split("=", 1)
        params[key.strip().lower()] = parse_si(value)
    return params
