"""Minimal GDSII stream writer and reader.

The flow's final deliverable is a layout database; GDSII is the industry
interchange format, so the reproduction emits real GDSII binary streams for
the generated ACIM macros.  Only the record subset needed for rectangle
geometry and hierarchical references is implemented:

* structures (``BGNSTR``/``STRNAME``/``ENDSTR``),
* boundaries (rectangles as 5-point polygons) with layer/datatype,
* structure references (``SREF``) with mirroring and 90-degree rotations,
* library header/units/footer.

The reader parses streams produced by :func:`write_gds` back into
:class:`~repro.layout.layout.LayoutCell` hierarchies, which gives the test
suite a round-trip invariant to verify.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import LayoutError
from repro.layout.geometry import Orientation, Point, Rect, Transform
from repro.layout.layout import LayoutCell
from repro.technology.tech import Technology

# GDSII record types used by this implementation.
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

# GDSII data types.
_NO_DATA = 0x00
_INT16 = 0x02
_INT32 = 0x03
_REAL8 = 0x05
_ASCII = 0x06

#: Default timestamp written into BGNLIB/BGNSTR records (GDSII requires one;
#: a fixed value keeps the output deterministic).
_TIMESTAMP = (2024, 6, 23, 0, 0, 0)

_ORIENTATION_TO_GDS: Dict[Orientation, Tuple[bool, float]] = {
    Orientation.R0: (False, 0.0),
    Orientation.R90: (False, 90.0),
    Orientation.R180: (False, 180.0),
    Orientation.R270: (False, 270.0),
    Orientation.MX: (True, 0.0),
    Orientation.MXR90: (True, 90.0),
    Orientation.MY: (True, 180.0),
    Orientation.MYR90: (True, 270.0),
}

_GDS_TO_ORIENTATION = {value: key for key, value in _ORIENTATION_TO_GDS.items()}


# ---------------------------------------------------------------------------
# Low-level record encoding
# ---------------------------------------------------------------------------


def _record(record_type: int, data_type: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, record_type, data_type) + payload


def _record_int16(record_type: int, values: List[int]) -> bytes:
    return _record(record_type, _INT16, struct.pack(f">{len(values)}h", *values))


def _record_bitarray(record_type: int, value: int) -> bytes:
    """Encode a 16-bit flag word (GDSII BITARRAY, used by STRANS)."""
    return _record(record_type, 0x01, struct.pack(">H", value & 0xFFFF))


def _record_ascii(record_type: int, text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\0"
    return _record(record_type, _ASCII, data)


def _to_real8(value: float) -> bytes:
    """Encode a float as GDSII 8-byte excess-64 real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 0
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 0.0625:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    return struct.pack(">B", sign | (exponent + 64)) + mantissa.to_bytes(7, "big")


def _from_real8(data: bytes) -> float:
    if len(data) != 8:
        raise LayoutError("invalid REAL8 field")
    first = data[0]
    sign = -1.0 if first & 0x80 else 1.0
    exponent = (first & 0x7F) - 64
    mantissa = int.from_bytes(data[1:], "big") / float(1 << 56)
    return sign * mantissa * (16.0 ** exponent)


def _record_real8(record_type: int, values: List[float]) -> bytes:
    return _record(record_type, _REAL8, b"".join(_to_real8(v) for v in values))


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_gds(
    cell: LayoutCell,
    path: Union[str, Path],
    technology: Technology,
    library_name: str = "EASYACIM",
) -> int:
    """Write ``cell`` and its hierarchy to a GDSII file.

    Layer names are mapped to (layer, datatype) pairs through the
    technology's layer map; shapes on unknown layers raise
    :class:`LayoutError`.

    Returns:
        The number of bytes written.
    """
    parts = [
        _record_int16(_HEADER, [600]),
        _record_int16(_BGNLIB, list(_TIMESTAMP) * 2),
        _record_ascii(_LIBNAME, library_name),
        # User unit = 1 micron expressed in database units; database unit
        # in meters.
        _record_real8(_UNITS, [1e-3, 1e-9]),
    ]
    for sub_cell in _bottom_up(cell):
        _write_structure(sub_cell, technology, parts)
    parts.append(_record(_ENDLIB, _NO_DATA))
    data = b"".join(parts)
    Path(path).write_bytes(data)
    return len(data)


def _bottom_up(cell: LayoutCell) -> List[LayoutCell]:
    ordered: List[LayoutCell] = []
    visited: Dict[str, LayoutCell] = {}

    def visit(current: LayoutCell) -> None:
        if current.name in visited:
            return
        visited[current.name] = current
        # Each distinct child once, in first-placement order.
        for child in dict.fromkeys(instance.cell for instance in current.instances):
            visit(child)
        ordered.append(current)

    visit(cell)
    return ordered


#: The records that open and close every element.
_BOUNDARY_RECORD = _record(_BOUNDARY, _NO_DATA)
_SREF_RECORD = _record(_SREF, _NO_DATA)
_ENDEL_RECORD = _record(_ENDEL, _NO_DATA)
#: The XY record of a rectangle (its five corners) and of a reference
#: (one point), each packed together with the ENDEL closing the element.
_BOX_XY_ENDEL = struct.Struct(f">HBB10i{len(_ENDEL_RECORD)}s")
_POINT_XY_ENDEL = struct.Struct(f">HBB2i{len(_ENDEL_RECORD)}s")
_BOX_XY_LENGTH = 4 + 10 * 4
_POINT_XY_LENGTH = 4 + 2 * 4


def _write_structure(
    cell: LayoutCell, technology: Technology, parts: List[bytes]
) -> None:
    """Append the records of one structure to ``parts``.

    The records an element shares with every other element on its layer
    (BOUNDARY/LAYER/DATATYPE) or of its (child, orientation)
    (SREF/SNAME/STRANS/ANGLE) are encoded once per structure; each
    element then costs one ``struct.pack`` of its coordinates.
    """
    parts.append(_record_int16(_BGNSTR, list(_TIMESTAMP) * 2))
    parts.append(_record_ascii(_STRNAME, cell.name))
    box_heads: Dict[str, bytes] = {}
    pack_box = _BOX_XY_ENDEL.pack
    for shape in cell.shapes:
        head = box_heads.get(shape.layer)
        if head is None:
            key = technology.layer_map.lookup(shape.layer)
            if key is None:
                raise LayoutError(f"layer {shape.layer!r} missing from layer map")
            gds_layer, gds_datatype = key
            head = box_heads[shape.layer] = (
                _BOUNDARY_RECORD
                + _record_int16(_LAYER, [gds_layer])
                + _record_int16(_DATATYPE, [gds_datatype])
            )
        rect = shape.rect
        x_lo, y_lo, x_hi, y_hi = rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi
        parts.append(head)
        parts.append(pack_box(
            _BOX_XY_LENGTH, _XY, _INT32,
            x_lo, y_lo, x_hi, y_lo, x_hi, y_hi, x_lo, y_hi, x_lo, y_lo,
            _ENDEL_RECORD,
        ))
    ref_heads: Dict[Tuple[str, Orientation], bytes] = {}
    pack_point = _POINT_XY_ENDEL.pack
    for instance in cell.instances:
        transform = instance.transform
        key = (instance.cell.name, transform.orientation)
        head = ref_heads.get(key)
        if head is None:
            head = ref_heads[key] = _reference_head(*key)
        parts.append(head)
        parts.append(pack_point(
            _POINT_XY_LENGTH, _XY, _INT32, transform.dx, transform.dy, _ENDEL_RECORD,
        ))
    parts.append(_record(_ENDSTR, _NO_DATA))


def _reference_head(child_name: str, orientation: Orientation) -> bytes:
    """SREF, SNAME and (when not R0) STRANS/ANGLE of one reference."""
    mirror, angle = _ORIENTATION_TO_GDS[orientation]
    head = _SREF_RECORD + _record_ascii(_SNAME, child_name)
    if mirror or angle:
        head += _record_bitarray(_STRANS, 0x8000 if mirror else 0)
        if angle:
            head += _record_real8(_ANGLE, [angle])
    return head


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def read_gds(path: Union[str, Path], technology: Technology) -> Dict[str, LayoutCell]:
    """Read a GDSII file produced by :func:`write_gds`.

    Returns a dictionary of layout cells keyed by structure name.  GDS
    layers without a name in the technology's layer map are imported with a
    synthetic ``"GDS<layer>_<datatype>"`` name so no geometry is dropped.
    """
    data = Path(path).read_bytes()
    records = list(_iter_records(data))
    cells: Dict[str, LayoutCell] = {}
    pending_refs: List[Tuple[LayoutCell, str, Transform]] = []

    index = 0
    current: Optional[LayoutCell] = None
    while index < len(records):
        record_type, payload = records[index]
        if record_type == _BGNSTR:
            name_type, name_payload = records[index + 1]
            if name_type != _STRNAME:
                raise LayoutError("BGNSTR not followed by STRNAME")
            current = LayoutCell(name_payload.rstrip(b"\0").decode("ascii"))
            cells[current.name] = current
            index += 2
            continue
        if record_type == _ENDSTR:
            current = None
        elif record_type == _BOUNDARY and current is not None:
            index = _read_boundary(records, index, current, technology)
            continue
        elif record_type == _SREF and current is not None:
            index = _read_sref(records, index, current, pending_refs)
            continue
        index += 1

    for parent, child_name, transform in pending_refs:
        if child_name not in cells:
            raise LayoutError(f"SREF to unknown structure {child_name!r}")
        instance_name = f"{child_name}_{parent.instance_count()}"
        parent.add_instance(instance_name, cells[child_name], transform)
    return cells


def _iter_records(data: bytes):
    offset = 0
    while offset + 4 <= len(data):
        length, record_type, _data_type = struct.unpack_from(">HBB", data, offset)
        if length < 4:
            break
        payload = data[offset + 4: offset + length]
        yield record_type, payload
        offset += length


def _read_boundary(records, index, cell: LayoutCell, technology: Technology) -> int:
    layer_number = 0
    datatype = 0
    points: List[int] = []
    index += 1
    while index < len(records):
        record_type, payload = records[index]
        if record_type == _LAYER:
            layer_number = struct.unpack(">h", payload[:2])[0]
        elif record_type == _DATATYPE:
            datatype = struct.unpack(">h", payload[:2])[0]
        elif record_type == _XY:
            count = len(payload) // 4
            points = list(struct.unpack(f">{count}i", payload))
        elif record_type == _ENDEL:
            index += 1
            break
        index += 1
    if points:
        xs = points[0::2]
        ys = points[1::2]
        rect = Rect(min(xs), min(ys), max(xs), max(ys))
        name = technology.layer_map.reverse_lookup(layer_number, datatype)
        cell.add_shape(name or f"GDS{layer_number}_{datatype}", rect)
    return index


def _read_sref(records, index, cell: LayoutCell, pending_refs) -> int:
    child_name = ""
    mirror = False
    angle = 0.0
    dx = dy = 0
    index += 1
    while index < len(records):
        record_type, payload = records[index]
        if record_type == _SNAME:
            child_name = payload.rstrip(b"\0").decode("ascii")
        elif record_type == _STRANS:
            mirror = bool(struct.unpack(">H", payload[:2])[0] & 0x8000)
        elif record_type == _ANGLE:
            angle = _from_real8(payload[:8])
        elif record_type == _XY:
            dx, dy = struct.unpack(">2i", payload[:8])
        elif record_type == _ENDEL:
            index += 1
            break
        index += 1
    orientation = _GDS_TO_ORIENTATION.get((mirror, angle), Orientation.R0)
    pending_refs.append((cell, child_name, Transform(dx, dy, orientation)))
    return index
