"""Record-by-record GDSII writer: the oracle for the packed writer.

This is the writer :mod:`repro.layout.gdsii` used before it packed each
repeated record head once per structure: every record of every element is
encoded on its own through ``_record``.  The differential tests compare
the packed writer against it byte for byte.
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.errors import LayoutError
from repro.layout.gdsii import _ORIENTATION_TO_GDS, _TIMESTAMP, _to_real8
from repro.layout.layout import LayoutCell
from repro.technology.tech import Technology

_HEADER = 0x00
_BGNLIB = 0x01
_LIBNAME = 0x02
_UNITS = 0x03
_ENDLIB = 0x04
_BGNSTR = 0x05
_STRNAME = 0x06
_ENDSTR = 0x07
_BOUNDARY = 0x08
_SREF = 0x0A
_LAYER = 0x0D
_DATATYPE = 0x0E
_XY = 0x10
_ENDEL = 0x11
_SNAME = 0x12
_STRANS = 0x1A
_ANGLE = 0x1C

_NO_DATA = 0x00
_INT16 = 0x02
_INT32 = 0x03
_REAL8 = 0x05
_ASCII = 0x06


def _record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, record_type, data_type) + payload


def _record_int16(record_type: int, values: List[int]) -> bytes:
    return _record(record_type, _INT16, struct.pack(f">{len(values)}h", *values))


def _record_bitarray(record_type: int, value: int) -> bytes:
    return _record(record_type, 0x01, struct.pack(">H", value & 0xFFFF))


def _record_int32(record_type: int, values: List[int]) -> bytes:
    return _record(record_type, _INT32, struct.pack(f">{len(values)}i", *values))


def _record_ascii(record_type: int, text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\0"
    return _record(record_type, _ASCII, data)


def _record_real8(record_type: int, values: List[float]) -> bytes:
    return _record(record_type, _REAL8, b"".join(_to_real8(v) for v in values))


def write_structure(cell: LayoutCell, technology: Technology) -> bytes:
    """The records of one structure, each encoded on its own."""
    stream = bytearray()
    stream += _record_int16(_BGNSTR, list(_TIMESTAMP) * 2)
    stream += _record_ascii(_STRNAME, cell.name)
    for shape in cell.shapes:
        key = technology.layer_map.lookup(shape.layer)
        if key is None:
            raise LayoutError(f"layer {shape.layer!r} missing from layer map")
        gds_layer, gds_datatype = key
        rect = shape.rect
        points = [
            rect.x_lo, rect.y_lo,
            rect.x_hi, rect.y_lo,
            rect.x_hi, rect.y_hi,
            rect.x_lo, rect.y_hi,
            rect.x_lo, rect.y_lo,
        ]
        stream += _record(_BOUNDARY, _NO_DATA)
        stream += _record_int16(_LAYER, [gds_layer])
        stream += _record_int16(_DATATYPE, [gds_datatype])
        stream += _record_int32(_XY, points)
        stream += _record(_ENDEL, _NO_DATA)
    for instance in cell.instances:
        mirror, angle = _ORIENTATION_TO_GDS[instance.transform.orientation]
        stream += _record(_SREF, _NO_DATA)
        stream += _record_ascii(_SNAME, instance.cell.name)
        if mirror or angle:
            stream += _record_bitarray(_STRANS, 0x8000 if mirror else 0)
            if angle:
                stream += _record_real8(_ANGLE, [angle])
        stream += _record_int32(_XY, [instance.transform.dx, instance.transform.dy])
        stream += _record(_ENDEL, _NO_DATA)
    stream += _record(_ENDSTR, _NO_DATA)
    return bytes(stream)


def _bottom_up(cell: LayoutCell) -> List[LayoutCell]:
    ordered: List[LayoutCell] = []
    visited: Dict[str, LayoutCell] = {}

    def visit(current: LayoutCell) -> None:
        if current.name in visited:
            return
        visited[current.name] = current
        for instance in current.instances:
            visit(instance.cell)
        ordered.append(current)

    visit(cell)
    return ordered


def write_gds(
    cell: LayoutCell, technology: Technology, library_name: str = "EASYACIM"
) -> bytes:
    """The whole library stream of ``cell`` and its hierarchy."""
    stream = bytearray()
    stream += _record_int16(_HEADER, [600])
    stream += _record_int16(_BGNLIB, list(_TIMESTAMP) * 2)
    stream += _record_ascii(_LIBNAME, library_name)
    stream += _record_real8(_UNITS, [1e-3, 1e-9])
    for sub_cell in _bottom_up(cell):
        stream += write_structure(sub_cell, technology)
    stream += _record(_ENDLIB, _NO_DATA)
    return bytes(stream)
