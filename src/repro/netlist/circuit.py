"""Hierarchical circuit database: circuits, instances, nets and pins.

A :class:`Circuit` is a subcircuit definition (equivalent to a SPICE
``.SUBCKT``).  It owns primitive :class:`~repro.netlist.device.Device`
objects, child :class:`Instance` objects referring to other circuits, and
:class:`Net` objects.  Pins declare the circuit's external interface.

The template-based ACIM netlist builder
(:mod:`repro.physical.netlist_builder`) builds the full macro out of these
objects, and the hierarchical placer mirrors this hierarchy when it builds
the layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.device import Device


class PinDirection(enum.Enum):
    """Direction of a circuit pin."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    SUPPLY = "supply"


@dataclass(frozen=True)
class Pin:
    """An external pin of a circuit.

    Attributes:
        name: pin (and net) name inside the circuit.
        direction: signal direction.
    """

    name: str
    direction: PinDirection = PinDirection.INOUT

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pin name must be non-empty")


@dataclass
class Net:
    """A net within a circuit.

    Attributes:
        name: net name, unique within the circuit.
        is_power: True for supply nets (VDD/VSS/VCM), which receive
            pre-defined routing tracks in the layout flow.
        is_critical: True for nets the router must treat as critical
            (e.g. SAR control nets with pre-defined tracks, paper section 4).
    """

    name: str
    is_power: bool = False
    is_critical: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("net name must be non-empty")


@dataclass
class Instance:
    """An instantiation of a child circuit.

    Attributes:
        name: instance name unique within the parent circuit.
        reference: the instantiated :class:`Circuit`.
        connections: mapping from the child's pin names to parent net names.
    """

    name: str
    reference: "Circuit"
    connections: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("instance name must be non-empty")

    def connect(self, pin: str, net: str) -> None:
        """Bind a child pin to a parent net."""
        if not self.reference.has_pin(pin):
            raise NetlistError(
                f"instance {self.name!r}: circuit {self.reference.name!r} "
                f"has no pin {pin!r}"
            )
        self.connections[pin] = net

    def is_fully_connected(self) -> bool:
        """True when every pin of the referenced circuit is bound."""
        return self.reference._pin_names.keys() <= self.connections.keys()


class Circuit:
    """A subcircuit definition.

    Circuits are named containers of pins, nets, primitive devices and child
    instances.  They map one-to-one onto SPICE ``.SUBCKT`` blocks and onto
    hierarchy levels of the template-based placer (paper Figure 7).
    """

    def __init__(self, name: str, pins: Sequence[Pin] = ()) -> None:
        if not name:
            raise NetlistError("circuit name must be non-empty")
        self.name = name
        self._pins: List[Pin] = []
        self._pin_names: Dict[str, Pin] = {}
        self._nets: Dict[str, Net] = {}
        self._devices: Dict[str, Device] = {}
        self._instances: Dict[str, Instance] = {}
        for pin in pins:
            self.add_pin(pin)

    # -- pins ---------------------------------------------------------------

    @property
    def pins(self) -> List[Pin]:
        """External pins in declaration order."""
        return list(self._pins)

    def add_pin(self, pin: Pin) -> Net:
        """Declare an external pin; creates the matching net if needed."""
        if pin.name in self._pin_names:
            raise NetlistError(f"circuit {self.name!r}: duplicate pin {pin.name!r}")
        self._pins.append(pin)
        self._pin_names[pin.name] = pin
        is_power = pin.direction is PinDirection.SUPPLY
        if pin.name not in self._nets:
            self._nets[pin.name] = Net(pin.name, is_power=is_power)
        elif is_power:
            self._nets[pin.name].is_power = True
        return self._nets[pin.name]

    def has_pin(self, name: str) -> bool:
        """True if the circuit declares a pin named ``name``."""
        return name in self._pin_names

    def pin(self, name: str) -> Pin:
        """Return the pin called ``name``."""
        try:
            return self._pin_names[name]
        except KeyError:
            raise NetlistError(f"circuit {self.name!r} has no pin {name!r}")

    # -- nets ---------------------------------------------------------------

    @property
    def nets(self) -> List[Net]:
        """All nets in creation order."""
        return list(self._nets.values())

    def add_net(self, name: str, is_power: bool = False, is_critical: bool = False) -> Net:
        """Create (or fetch) a net by name."""
        if name in self._nets:
            net = self._nets[name]
            net.is_power = net.is_power or is_power
            net.is_critical = net.is_critical or is_critical
            return net
        net = Net(name, is_power=is_power, is_critical=is_critical)
        self._nets[name] = net
        return net

    def has_net(self, name: str) -> bool:
        """True if the circuit contains a net named ``name``."""
        return name in self._nets

    def net(self, name: str) -> Net:
        """Return the net called ``name``."""
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"circuit {self.name!r} has no net {name!r}")

    # -- devices ------------------------------------------------------------

    @property
    def devices(self) -> List[Device]:
        """Primitive devices in insertion order."""
        return list(self._devices.values())

    def add_device(self, device: Device) -> Device:
        """Add a primitive device; all of its nets are created implicitly."""
        if device.name in self._devices:
            raise NetlistError(
                f"circuit {self.name!r}: duplicate device {device.name!r}"
            )
        self._devices[device.name] = device
        for net_name in device.terminals.values():
            self.add_net(net_name)
        return device

    # -- instances ----------------------------------------------------------

    @property
    def instances(self) -> List[Instance]:
        """Child instances in insertion order."""
        return list(self._instances.values())

    def add_instance(
        self,
        name: str,
        reference: "Circuit",
        connections: Optional[Dict[str, str]] = None,
    ) -> Instance:
        """Instantiate ``reference`` as a child called ``name``.

        Args:
            name: instance name, unique within this circuit.
            reference: the child circuit definition.
            connections: optional mapping from child pin names to parent nets;
                the parent nets are created implicitly.
        """
        return self.add_instances(reference, [(name, connections or {})])[0]

    def add_instances(
        self,
        reference: "Circuit",
        entries: Iterable[Tuple[str, Dict[str, str]]],
    ) -> List[Instance]:
        """Instantiate ``reference`` once per ``(name, connections)`` entry.

        The bulk form of :meth:`add_instance` for the W identical columns of
        a macro.  The per-pin work runs in C: each map's pin set is checked
        against the reference's pins with one subset test, and parent nets
        are looked up in one pass and created in first-use order only when
        some are missing.  Every entry is checked before any is registered,
        so a bad entry leaves the circuit unchanged.  Each instance owns a
        copy of its map.

        Raises:
            NetlistError: on a duplicate or self-instantiation, or when a
                map names a pin ``reference`` does not declare (the first
                such pin in map order is reported).
        """
        if reference is self:
            raise NetlistError(f"circuit {self.name!r} cannot instantiate itself")
        pins = reference._pin_names.keys()
        instances: List[Instance] = []
        names = set()
        for name, connections in entries:
            if name in self._instances or name in names:
                raise NetlistError(
                    f"circuit {self.name!r}: duplicate instance {name!r}"
                )
            if not connections.keys() <= pins:
                bad = next(pin for pin in connections if pin not in pins)
                raise NetlistError(
                    f"instance {name!r}: circuit {reference.name!r} "
                    f"has no pin {bad!r}"
                )
            names.add(name)
            instances.append(Instance(name, reference, dict(connections)))
        nets = self._nets
        for instance in instances:
            self._instances[instance.name] = instance
            net_names = instance.connections.values()
            if not all(map(nets.__contains__, net_names)):
                for net_name in net_names:
                    if net_name not in nets:
                        nets[net_name] = Net(net_name)
        return instances

    def instance(self, name: str) -> Instance:
        """Return the child instance called ``name``."""
        try:
            return self._instances[name]
        except KeyError:
            raise NetlistError(f"circuit {self.name!r} has no instance {name!r}")

    # -- queries ------------------------------------------------------------

    def is_leaf(self) -> bool:
        """True if the circuit has no child instances."""
        return not self._instances

    def net_fanout(self, net_name: str) -> int:
        """Number of device terminals and instance pins attached to a net."""
        count = 0
        for device in self._devices.values():
            count += sum(1 for net in device.terminals.values() if net == net_name)
        for instance in self._instances.values():
            count += sum(1 for net in instance.connections.values() if net == net_name)
        return count

    def dangling_nets(self) -> List[str]:
        """Nets (other than pins) connected to at most one terminal."""
        dangling = []
        for net in self._nets.values():
            if net.name in self._pin_names:
                continue
            if self.net_fanout(net.name) <= 1:
                dangling.append(net.name)
        return dangling

    def validate(self) -> None:
        """Check that every device and instance is fully connected.

        Raises:
            NetlistError: on unconnected device terminals or instance pins.
        """
        for device in self._devices.values():
            if not device.is_fully_connected():
                raise NetlistError(
                    f"circuit {self.name!r}: device {device.name!r} has "
                    f"unconnected terminals"
                )
        for instance in self._instances.values():
            if not instance.is_fully_connected():
                missing = [
                    pin.name
                    for pin in instance.reference.pins
                    if pin.name not in instance.connections
                ]
                raise NetlistError(
                    f"circuit {self.name!r}: instance {instance.name!r} leaves "
                    f"pins {missing} unconnected"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Circuit(name={self.name!r}, pins={len(self._pins)}, "
            f"devices={len(self._devices)}, instances={len(self._instances)})"
        )
