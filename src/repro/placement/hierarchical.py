"""The template-based hierarchical placer (paper section 3.3, Figure 7).

At every hierarchy level the placement *inside* a "Std" layout cell or an
already-placed subcircuit is kept untouched; only the over-cell placement
of that level's direct children is performed.  Children are placed either:

* from an explicit :class:`~repro.placement.template.PlacementTemplate`
  (columns, rows, grids — the regular structures of the ACIM macro), or
* by the annealing :class:`~repro.placement.grid_placer.GridPlacer` when no
  template applies (small irregular over-cell placements), using the nets
  and constraints supplied by the caller.

Working bottom-up through the hierarchy — leaf cells, local arrays,
columns, the full array — yields the final macro floorplan.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from dataclasses import dataclass

from repro.errors import PlacementError
from repro.layout.geometry import Point, Rect, Transform
from repro.layout.layout import LayoutCell
from repro.placement.constraints import PlacementConstraint
from repro.placement.grid_placer import GridPlacer, GridPlacerConfig, PlacementResult
from repro.placement.netmodel import (
    PlacementNet,
    PlacementObject,
    PlacementProblem,
)
from repro.placement.template import PlacementTemplate


@dataclass(frozen=True)
class MacroPlacement:
    """One solved macro to instantiate by transform.

    Attributes:
        name: instance name in the parent cell.
        macro: the solved (placed + routed) macro layout cell.
        transform: placement transform in parent coordinates.
    """

    name: str
    macro: LayoutCell
    transform: Transform


class HierarchicalPlacer:
    """Places the direct children of layout cells, level by level."""

    def __init__(self, grid_placer: Optional[GridPlacer] = None) -> None:
        self.grid_placer = grid_placer or GridPlacer(GridPlacerConfig())

    # -- template-driven placement ------------------------------------------------

    def place_with_template(
        self, cell: LayoutCell, template: PlacementTemplate
    ) -> Dict[str, Point]:
        """Place ``cell``'s children according to ``template``.

        Returns the applied instance positions.  Instances not mentioned by
        the template keep their current transforms.
        """
        sizes = self._instance_sizes(cell)
        slots = template.place(sizes)
        positions: Dict[str, Point] = {}
        for slot in slots:
            if slot.name not in sizes:
                raise PlacementError(
                    f"template slot {slot.name!r} has no matching instance in "
                    f"cell {cell.name!r}"
                )
            cell.move_instance(slot.name, Transform(slot.position.x, slot.position.y))
            positions[slot.name] = slot.position
        return positions

    # -- optimisation-driven placement ----------------------------------------------

    def place_with_optimizer(
        self,
        cell: LayoutCell,
        nets: Sequence[PlacementNet] = (),
        constraints: Sequence[PlacementConstraint] = (),
        region: Optional[Rect] = None,
        fixed_instances: Iterable[str] = (),
    ) -> PlacementResult:
        """Place ``cell``'s children with the annealing grid placer.

        Args:
            cell: the parent whose direct children are placed.
            nets: connectivity between children, expressed on child pin names.
            constraints: AMS placement constraints.
            region: placement region; defaults to the cell boundary or a
                region sized for the combined child area.
            fixed_instances: children that must keep their current position.
        """
        fixed = set(fixed_instances)
        problem = PlacementProblem(region or self._default_region(cell))
        for instance in cell.instances:
            bbox = instance.cell.boundary or instance.cell.bounding_box()
            if bbox is None:
                raise PlacementError(
                    f"instance {instance.name!r} references an empty cell"
                )
            pin_offsets = {
                pin.name: Point(
                    pin.access_point.x - bbox.x_lo, pin.access_point.y - bbox.y_lo
                )
                for pin in instance.cell.pins
            }
            is_fixed = instance.name in fixed
            position = None
            if is_fixed:
                position = Point(instance.transform.dx, instance.transform.dy)
            problem.add_object(PlacementObject(
                name=instance.name,
                width=bbox.width,
                height=bbox.height,
                pin_offsets=pin_offsets,
                fixed=is_fixed,
                position=position,
            ))
        for net in nets:
            problem.add_net(net)
        for constraint in constraints:
            problem.add_constraint(constraint)
        result = self.grid_placer.place(problem)
        for name, position in result.positions.items():
            if name in fixed:
                continue
            cell.move_instance(name, Transform(position.x, position.y))
        return result

    # -- macro-instance placement -----------------------------------------------------

    def place_macro_instances(
        self,
        cell: LayoutCell,
        placements: Sequence[MacroPlacement],
        check_overlaps: bool = True,
    ) -> Dict[str, Rect]:
        """Instantiate solved macros by transform (the reuse consumer path).

        Macros arrive placed and routed (from the
        :class:`~repro.physical.macro_library.MacroLibrary`); this method
        only *instantiates* them — no re-placement, no re-routing.  Every
        macro must be non-empty, and with ``check_overlaps`` (the
        default) any pair of placed macros whose bounding-box interiors
        intersect raises :class:`~repro.errors.PlacementError` before the
        parent cell is modified, so an illegal plan can never reach the
        router and corrupt its grid.

        Returns the placed bounding boxes by instance name.
        """
        boxes: Dict[str, Rect] = {}
        for placement in placements:
            bbox = placement.macro.boundary or placement.macro.bounding_box()
            if bbox is None:
                raise PlacementError(
                    f"macro placement {placement.name!r} references an "
                    f"empty cell {placement.macro.name!r}"
                )
            boxes[placement.name] = placement.transform.apply_rect(bbox)
        if check_overlaps:
            self.ensure_no_overlaps(boxes)
        for placement in placements:
            cell.add_instance(placement.name, placement.macro, placement.transform)
        return boxes

    def place_macro_array(
        self,
        cell: LayoutCell,
        macro: LayoutCell,
        names: Sequence[str],
        origin: Tuple[int, int],
        step: Tuple[int, int],
    ) -> Optional[Rect]:
        """Instantiate one solved macro along a regular line (R0).

        Instance ``names[i]`` is placed at ``origin + i * step``: the
        plan of :meth:`place_macro_instances` for a row or column of
        equal macros, with the same instances, guard and errors, but
        the boxes come from the macro's one box by offset arithmetic.
        Two neighbours overlap exactly when the step is shorter than the
        box along both axes; such a plan goes to
        :meth:`ensure_no_overlaps`, which names the first overlapping pair.

        Returns the union of the placed boxes (``None`` for no names).
        """
        if not names:
            return None
        bbox = macro.boundary or macro.bounding_box()
        if bbox is None:
            raise PlacementError(
                f"macro placement {names[0]!r} references an "
                f"empty cell {macro.name!r}"
            )
        (x0, y0), (step_x, step_y) = origin, step
        transforms = [
            Transform(x0 + i * step_x, y0 + i * step_y)
            for i in range(len(names))
        ]
        if (
            len(names) > 1
            and abs(step_x) < bbox.width and abs(step_y) < bbox.height
        ):
            self.ensure_no_overlaps({
                name: transform.apply_rect(bbox)
                for name, transform in zip(names, transforms)
            })
        for name, transform in zip(names, transforms):
            cell.add_instance(name, macro, transform)
        last_x, last_y = (len(names) - 1) * step_x, (len(names) - 1) * step_y
        return Rect(
            x0 + bbox.x_lo + min(0, last_x), y0 + bbox.y_lo + min(0, last_y),
            x0 + bbox.x_hi + max(0, last_x), y0 + bbox.y_hi + max(0, last_y),
        )

    @staticmethod
    def ensure_no_overlaps(boxes: Dict[str, Rect]) -> None:
        """Raise :class:`PlacementError` when any two boxes overlap.

        Shared edges are legal (abutted macros); only interior
        intersections are rejected.  The sweep over x-sorted boxes keeps
        the pair check near-linear for row/column arrangements.
        """
        ordered = sorted(boxes.items(), key=lambda item: item[1].x_lo)
        for i, (name_a, box_a) in enumerate(ordered):
            for name_b, box_b in ordered[i + 1:]:
                if box_b.x_lo >= box_a.x_hi:
                    break
                if box_a.overlaps(box_b):
                    overlap = box_a.intersection(box_b)
                    raise PlacementError(
                        f"macro instances {name_a!r} and {name_b!r} overlap "
                        f"at ({overlap.x_lo},{overlap.y_lo})-"
                        f"({overlap.x_hi},{overlap.y_hi}); "
                        "solved macros must be abutted or disjoint"
                    )

    # -- combined entry point ---------------------------------------------------------

    def place(
        self,
        cell: LayoutCell,
        template: Optional[PlacementTemplate] = None,
        nets: Sequence[PlacementNet] = (),
        constraints: Sequence[PlacementConstraint] = (),
        region: Optional[Rect] = None,
    ):
        """Template placement when a template is given, optimisation otherwise."""
        if template is not None:
            return self.place_with_template(cell, template)
        return self.place_with_optimizer(
            cell, nets=nets, constraints=constraints, region=region
        )

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _instance_sizes(cell: LayoutCell) -> Dict[str, Tuple[int, int]]:
        sizes: Dict[str, Tuple[int, int]] = {}
        for instance in cell.instances:
            bbox = instance.cell.boundary or instance.cell.bounding_box()
            if bbox is None:
                raise PlacementError(
                    f"instance {instance.name!r} references an empty cell"
                )
            sizes[instance.name] = (bbox.width, bbox.height)
        return sizes

    def _default_region(self, cell: LayoutCell) -> Rect:
        if cell.boundary is not None:
            return cell.boundary
        sizes = self._instance_sizes(cell)
        if not sizes:
            raise PlacementError(f"cell {cell.name!r} has no children to place")
        total_area = sum(w * h for w, h in sizes.values())
        max_width = max(w for w, _h in sizes.values())
        max_height = max(h for _w, h in sizes.values())
        # Square-ish region with 40% whitespace, at least one object each way.
        side = int((total_area * 1.4) ** 0.5)
        return Rect(0, 0, max(side, max_width), max(side, max_height))
