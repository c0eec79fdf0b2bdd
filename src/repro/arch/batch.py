"""Structure-of-arrays batches of ACIM design points.

:class:`SpecBatch` is the array-oriented representation of many
``(H, W, L, B_ADC)`` design points at once: four parallel NumPy integer
columns instead of N :class:`~repro.arch.spec.ACIMDesignSpec` objects.  It
is the currency of the vectorized evaluation core — the model kernels in
:mod:`repro.model` take a batch and return one metric *array* per axis, so
evaluating N design points costs a handful of NumPy kernel calls rather
than N Python object traversals.

The batch mirrors the scalar spec API wherever that makes sense: derived
columns (``array_size``, ``local_arrays_per_column``), the Equation-12
feasibility rules (as boolean masks), and conversions in both directions
(``from_specs`` / ``to_specs``).  Grid constructors build whole design
spaces directly as arrays — meshgrid-style cross products filtered by the
vectorized feasibility mask — which is how the exhaustive baseline and the
sensitivity analyzer enumerate their spaces without intermediate spec
lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SpecificationError
from repro.arch.spec import ACIMDesignSpec, valid_heights


def _column(values, name: str) -> np.ndarray:
    """Coerce one column to a contiguous 1-D int64 array."""
    array = np.ascontiguousarray(values, dtype=np.int64)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.ndim != 1:
        raise SpecificationError(
            f"SpecBatch column {name!r} must be one-dimensional, "
            f"got shape {array.shape}"
        )
    return array


@dataclass(frozen=True)
class SpecBatch:
    """A batch of design points as four parallel integer columns.

    Attributes:
        height: array heights H, one per design point.
        width: array widths W.
        local_array_size: local array sizes L.
        adc_bits: ADC precisions B_ADC.
    """

    height: np.ndarray
    width: np.ndarray
    local_array_size: np.ndarray
    adc_bits: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", _column(self.height, "height"))
        object.__setattr__(self, "width", _column(self.width, "width"))
        object.__setattr__(
            self, "local_array_size",
            _column(self.local_array_size, "local_array_size"),
        )
        object.__setattr__(self, "adc_bits", _column(self.adc_bits, "adc_bits"))
        n = len(self.height)
        for name in ("width", "local_array_size", "adc_bits"):
            if len(getattr(self, name)) != n:
                raise SpecificationError(
                    f"SpecBatch columns disagree on length: height has {n} "
                    f"entries, {name} has {len(getattr(self, name))}"
                )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[ACIMDesignSpec]) -> "SpecBatch":
        """Build a batch from a sequence of scalar design specs."""
        return cls(
            height=[spec.height for spec in specs],
            width=[spec.width for spec in specs],
            local_array_size=[spec.local_array_size for spec in specs],
            adc_bits=[spec.adc_bits for spec in specs],
        )

    @classmethod
    def from_spec(cls, spec: ACIMDesignSpec) -> "SpecBatch":
        """A length-1 batch holding one design point."""
        return cls.from_specs([spec])

    @classmethod
    def concat(cls, batches: Iterable["SpecBatch"]) -> "SpecBatch":
        """Concatenate several batches, preserving order."""
        batches = list(batches)
        if not batches:
            return cls(height=[], width=[], local_array_size=[], adc_bits=[])
        return cls(
            height=np.concatenate([b.height for b in batches]),
            width=np.concatenate([b.width for b in batches]),
            local_array_size=np.concatenate(
                [b.local_array_size for b in batches]
            ),
            adc_bits=np.concatenate([b.adc_bits for b in batches]),
        )

    @classmethod
    def from_product(
        cls,
        heights: Sequence[int],
        local_array_sizes: Sequence[int],
        adc_bits: Sequence[int],
        array_size: Optional[int] = None,
        feasible_only: bool = True,
    ) -> "SpecBatch":
        """Meshgrid-style cross product of heights x locals x ADC precisions.

        The product is laid out with heights outermost and ADC bits
        innermost — the same order :func:`repro.arch.spec.enumerate_design_space`
        iterates — and, when ``feasible_only`` is set, filtered down to the
        points satisfying the Equation-12 constraints.  Widths are derived
        as ``array_size // H`` when an array size is given (heights must
        divide it), otherwise every width is 1.
        """
        heights = np.asarray(list(heights), dtype=np.int64)
        locals_ = np.asarray(list(local_array_sizes), dtype=np.int64)
        bits = np.asarray(list(adc_bits), dtype=np.int64)
        n_l, n_b = len(locals_), len(bits)
        h = np.repeat(heights, n_l * n_b)
        l = np.tile(np.repeat(locals_, n_b), len(heights))
        b = np.tile(bits, len(heights) * n_l)
        if array_size is not None:
            if np.any(heights < 1):
                raise SpecificationError("heights must be positive")
            if np.any(array_size % heights != 0):
                raise SpecificationError(
                    f"every height must divide the array size {array_size}"
                )
            w = array_size // h
        else:
            w = np.ones_like(h)
        batch = cls(height=h, width=w, local_array_size=l, adc_bits=b)
        if feasible_only:
            batch = batch.compress(batch.feasible_mask(array_size))
        return batch

    @classmethod
    def enumerate(
        cls,
        array_size: int,
        local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
        max_adc_bits: int = 8,
        min_height: int = 2,
        max_height: Optional[int] = None,
        power_of_two_heights: bool = True,
    ) -> "SpecBatch":
        """Every feasible design point of one array size, as a batch.

        The vectorized counterpart of
        :func:`repro.arch.spec.enumerate_design_space` (which now delegates
        here): identical points in identical order, but built as a
        meshgrid-filtered array instead of a nested Python loop.
        """
        if max_adc_bits < 1:
            raise SpecificationError("max_adc_bits must be at least 1")
        upper = max_height or array_size
        heights = [
            h for h in valid_heights(array_size, power_of_two_heights)
            if min_height <= h <= upper
        ]
        return cls.from_product(
            heights,
            local_array_sizes,
            range(1, max_adc_bits + 1),
            array_size=array_size,
        )

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.height)

    def __getitem__(
        self, index: Union[int, slice, np.ndarray]
    ) -> Union[ACIMDesignSpec, "SpecBatch"]:
        """An int index yields a scalar spec; slices/arrays yield sub-batches."""
        if isinstance(index, (int, np.integer)):
            return self.spec_at(int(index))
        return SpecBatch(
            height=self.height[index],
            width=self.width[index],
            local_array_size=self.local_array_size[index],
            adc_bits=self.adc_bits[index],
        )

    def spec_at(self, index: int) -> ACIMDesignSpec:
        """The scalar design spec at one position."""
        return ACIMDesignSpec(
            int(self.height[index]),
            int(self.width[index]),
            int(self.local_array_size[index]),
            int(self.adc_bits[index]),
        )

    def take(self, indices) -> "SpecBatch":
        """Sub-batch at the given positions (NumPy fancy indexing)."""
        indices = np.asarray(indices)
        return self[indices]

    def compress(self, mask: np.ndarray) -> "SpecBatch":
        """Sub-batch of the rows where ``mask`` is True."""
        return self[np.asarray(mask, dtype=bool)]

    # -- conversions -----------------------------------------------------------

    def to_specs(self) -> List[ACIMDesignSpec]:
        """Materialise the batch as scalar design-spec objects."""
        return [
            ACIMDesignSpec(h, w, l, b)
            for h, w, l, b in zip(
                self.height.tolist(),
                self.width.tolist(),
                self.local_array_size.tolist(),
                self.adc_bits.tolist(),
            )
        ]

    def as_tuples(self) -> List[Tuple[int, int, int, int]]:
        """``(H, W, L, B_ADC)`` tuples, one per design point (cache keys)."""
        return list(zip(
            self.height.tolist(),
            self.width.tolist(),
            self.local_array_size.tolist(),
            self.adc_bits.tolist(),
        ))

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The four raw columns ``(H, W, L, B_ADC)`` (picklable payload)."""
        return (self.height, self.width, self.local_array_size, self.adc_bits)

    # -- derived columns -------------------------------------------------------

    @property
    def array_size(self) -> np.ndarray:
        """Total bit cells per design point, H * W."""
        return self.height * self.width

    @property
    def local_arrays_per_column(self) -> np.ndarray:
        """Local arrays (and compute capacitors) per column, H // L."""
        return self.height // self.local_array_size

    @property
    def dot_product_length(self) -> np.ndarray:
        """Accumulation length N of one analog dot product (H // L)."""
        return self.local_arrays_per_column

    # -- feasibility -----------------------------------------------------------

    def feasible_mask(self, array_size: Optional[int] = None) -> np.ndarray:
        """Boolean mask of the points satisfying every Equation-12 constraint.

        Mirrors :meth:`ACIMDesignSpec.constraint_violations`: positivity of
        all four parameters, ``L <= H``, ``L | H`` and ``H/L >= 2^B_ADC``,
        plus ``H * W == array_size`` when an array size is required.
        """
        h, w = self.height, self.width
        l, b = self.local_array_size, self.adc_bits
        mask = (h >= 1) & (w >= 1) & (l >= 1) & (b >= 1)
        mask &= l <= h
        # Guard the modulo/divide against non-positive L on already-invalid
        # rows; they are masked out regardless.
        safe_l = np.maximum(l, 1)
        divides = (h % safe_l) == 0
        mask &= divides
        mask &= np.where(divides, h // safe_l, 0) >= (1 << np.clip(b, 0, 62))
        if array_size is not None:
            mask &= (h * w) == array_size
        return mask

    def validate(self, array_size: Optional[int] = None) -> "SpecBatch":
        """Raise :class:`SpecificationError` on the first infeasible point."""
        mask = self.feasible_mask(array_size)
        if not mask.all():
            index = int(np.argmin(mask))
            # Delegate to the scalar validator for the canonical message.
            self.spec_at(index).validate(array_size)
            raise SpecificationError(  # pragma: no cover - defensive
                f"infeasible design spec at batch index {index}"
            )
        return self
