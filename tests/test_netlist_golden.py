"""Golden contracts of the template netlist builder.

The digests pin the exact SPICE text and the circuit structure (net
creation order and flags, instance order and connection-map order) of
the macro netlists the builder produces.  They were recorded before the
builder moved to one unit of work per column template, so any change to
the emitted netlist fails here rather than passing a same-code-twice
check.
"""

import hashlib

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.netlist.spice import _bottom_up, parse_spice, write_spice
from repro.physical.netlist_builder import NetlistBuilder

#: (H, W, L, B_ADC) -> (SPICE text digest, structure digest).
GOLDEN = {
    # The four designs of the distilled perfbench flow.
    (16, 1024, 2, 3): ("3b49f3851748f600", "0797c4ae2cb25a29"),
    (32, 512, 2, 4): ("34741fe538e41e18", "3e4f749bfa2dc2dd"),
    (64, 256, 2, 4): ("93319baee1f197a7", "c43094e08b13ff57"),
    (64, 256, 2, 5): ("edffb504682fc1d8", "ba20452b2f9b9757"),
    # Surplus local arrays (H/L = 32 > 2^4): RBL_EXT and VSS controls.
    (64, 16, 2, 4): ("e992bf24960ebcf4", "ce6c5aa00efbaf63"),
    # One ADC bit.
    (4, 8, 2, 1): ("0fc07da45e2ad414", "1ac99f9269cf7de9"),
    # A paper-sized column.
    (512, 4, 4, 4): ("e435f2bc0b8451dc", "b8ca31ee2702e6b3"),
}


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _structure_digest(circuit) -> str:
    digest = hashlib.sha256()
    for sub in _bottom_up(circuit):
        digest.update(repr([
            (net.name, net.is_power, net.is_critical) for net in sub.nets
        ]).encode())
        digest.update(repr([
            (inst.name, inst.reference.name, list(inst.connections.items()))
            for inst in sub.instances
        ]).encode())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def builder(cell_library):
    return NetlistBuilder(cell_library)


@pytest.mark.parametrize("spec_tuple", sorted(GOLDEN), ids=str)
def test_macro_netlist_matches_golden(builder, spec_tuple):
    macro = builder.build(ACIMDesignSpec(*spec_tuple))
    text_digest, structure_digest = GOLDEN[spec_tuple]
    assert _text_digest(write_spice(macro)) == text_digest
    assert _structure_digest(macro) == structure_digest


def test_surplus_local_arrays_use_the_extension_segment(builder):
    macro = builder.build(ACIMDesignSpec(64, 16, 2, 4))
    column = macro.instance("COL0").reference
    surplus = [
        inst for inst in column.instances
        if inst.name.startswith("LA") and inst.connections["RBL"] == "RBL_EXT"
    ]
    assert len(surplus) == 32 - 2 ** 4
    assert all(
        inst.connections["P"] == inst.connections["N"] == "VSS"
        for inst in surplus
    )


def test_spice_round_trip_at_paper_height(builder):
    macro = builder.build(ACIMDesignSpec(512, 4, 4, 4))
    text = write_spice(macro)
    circuits = parse_spice(text)
    parsed = circuits[macro.name]
    parsed.validate()
    assert write_spice(parsed) == text
    assert len(parsed.instances) == len(macro.instances)
    column = parsed.instance("COL3")
    assert column.connections == macro.instance("COL3").connections
