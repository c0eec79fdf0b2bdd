"""Unit tests for layout geometry (points, rects, transforms, HPWL)."""

import pytest

from repro.layout.geometry import Orientation, Point, Rect, Transform, hpwl


class TestPoint:
    def test_translation(self):
        assert Point(1, 2).translated(3, -5) == Point(4, -3)

    def test_manhattan_distance(self):
        assert Point(0, 0).manhattan_distance(Point(3, 4)) == 7

    def test_ordering(self):
        assert Point(1, 2) < Point(2, 0)

    def test_as_tuple(self):
        assert Point(7, 9).as_tuple() == (7, 9)


class TestRect:
    def test_normalises_swapped_corners(self):
        rect = Rect(10, 20, 0, 5)
        assert (rect.x_lo, rect.y_lo, rect.x_hi, rect.y_hi) == (0, 5, 10, 20)

    def test_from_size(self):
        rect = Rect.from_size(5, 5, 10, 20)
        assert rect.width == 10
        assert rect.height == 20
        assert rect.area == 200

    def test_from_size_rejects_negative(self):
        with pytest.raises(ValueError):
            Rect.from_size(0, 0, -1, 5)

    def test_from_center(self):
        rect = Rect.from_center(Point(10, 10), 4, 6)
        assert rect.center == Point(10, 10)
        assert rect.width == 4
        assert rect.height == 6

    def test_contains_point_inclusive(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains_point(Point(0, 0))
        assert rect.contains_point(Point(10, 10))
        assert not rect.contains_point(Point(11, 0))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 8, 8))
        assert not outer.contains_rect(Rect(2, 2, 12, 8))

    def test_overlap_excludes_touching(self):
        a = Rect(0, 0, 10, 10)
        assert not a.overlaps(Rect(10, 0, 20, 10))
        assert a.touches(Rect(10, 0, 20, 10))
        assert a.overlaps(Rect(9, 9, 20, 20))

    def test_intersection(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 20, 20)
        assert a.intersection(b) == Rect(5, 5, 10, 10)
        assert a.intersection(Rect(20, 20, 30, 30)) is None

    def test_spacing_to(self):
        a = Rect(0, 0, 10, 10)
        assert a.spacing_to(Rect(15, 0, 20, 10)) == 5
        assert a.spacing_to(Rect(0, 12, 10, 20)) == 2
        assert a.spacing_to(Rect(5, 5, 20, 20)) == 0
        # Diagonal spacing adds both components.
        assert a.spacing_to(Rect(13, 14, 20, 20)) == 7

    def test_union_and_bounding(self):
        a = Rect(0, 0, 5, 5)
        b = Rect(10, 10, 20, 20)
        assert a.union(b) == Rect(0, 0, 20, 20)
        assert Rect.bounding([a, b]) == Rect(0, 0, 20, 20)
        assert Rect.bounding([]) is None

    def test_expanded(self):
        assert Rect(5, 5, 10, 10).expanded(2) == Rect(3, 3, 12, 12)

    def test_degenerate(self):
        assert Rect(0, 0, 0, 10).is_degenerate()
        assert not Rect(0, 0, 1, 10).is_degenerate()


class TestTransform:
    def test_identity(self):
        assert Transform().apply_point(Point(3, 4)) == Point(3, 4)

    def test_translation(self):
        assert Transform(10, 20).apply_point(Point(3, 4)) == Point(13, 24)

    def test_r90(self):
        assert Transform(0, 0, Orientation.R90).apply_point(Point(1, 0)) == Point(0, 1)

    def test_r180(self):
        assert Transform(0, 0, Orientation.R180).apply_point(Point(2, 3)) == Point(-2, -3)

    def test_mirror_x(self):
        assert Transform(0, 0, Orientation.MX).apply_point(Point(2, 3)) == Point(2, -3)

    def test_mirror_y(self):
        assert Transform(0, 0, Orientation.MY).apply_point(Point(2, 3)) == Point(-2, 3)

    def test_rect_transform_is_normalised(self):
        rect = Rect(0, 0, 10, 5)
        rotated = Transform(0, 0, Orientation.R90).apply_rect(rect)
        assert rotated.width == 5
        assert rotated.height == 10

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_rect_transform_equals_its_transformed_corners(self, orientation):
        # R0 takes the translate-only path; every orientation must agree
        # with transforming the two corners and re-normalising.
        rects = (Rect(0, 0, 10, 5), Rect(-7, 3, 2, 3), Rect(-9, -9, -1, 40))
        for dx, dy in ((0, 0), (13, -4), (-2**31 + 100, 2**30)):
            transform = Transform(dx, dy, orientation)
            for rect in rects:
                lo = transform.apply_point(Point(rect.x_lo, rect.y_lo))
                hi = transform.apply_point(Point(rect.x_hi, rect.y_hi))
                assert transform.apply_rect(rect) == Rect(lo.x, lo.y, hi.x, hi.y)

    def test_compose_matches_sequential_application(self):
        inner = Transform(5, 7, Orientation.R90)
        outer = Transform(-3, 2, Orientation.MX)
        composed = outer.compose(inner)
        for point in (Point(0, 0), Point(3, 1), Point(-2, 8)):
            assert composed.apply_point(point) == outer.apply_point(inner.apply_point(point))

    def test_compose_all_orientation_pairs(self):
        probe = Point(3, 5)
        for o1 in Orientation:
            for o2 in Orientation:
                outer = Transform(11, -4, o1)
                inner = Transform(-6, 9, o2)
                composed = outer.compose(inner)
                assert composed.apply_point(probe) == outer.apply_point(
                    inner.apply_point(probe))

    def test_swaps_axes_flag(self):
        assert Orientation.R90.swaps_axes
        assert not Orientation.MX.swaps_axes


class TestHpwl:
    def test_two_points(self):
        assert hpwl([Point(0, 0), Point(3, 4)]) == 7

    def test_multi_point_uses_bounding_box(self):
        points = [Point(0, 0), Point(10, 0), Point(5, 20)]
        assert hpwl(points) == 30

    def test_single_point_is_zero(self):
        assert hpwl([Point(5, 5)]) == 0
        assert hpwl([]) == 0
