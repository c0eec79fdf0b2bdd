"""The synthesizable ACIM architecture (paper section 3.1).

This package captures the paper's primary architectural contribution in an
executable form:

* :class:`~repro.arch.spec.ACIMDesignSpec` — the four-parameter design point
  (array height H, array width W, local array size L, ADC precision B_ADC)
  together with the Equation-12 feasibility constraints.
* :class:`~repro.arch.batch.SpecBatch` — the structure-of-arrays batch of
  many design points, the currency of the vectorized evaluation core.
* :class:`~repro.arch.architecture.SynthesizableACIM` — the structural view:
  columns made of SAR capacitor groups with the 1:1:2:4:...:2^(B-1) ratio,
  local arrays of L shared 8T cells, SAR logic, comparator and switches.
* :mod:`~repro.arch.timing` — the two operating states (MAC, ADC conversion)
  and the per-phase timing of Figure 5.
* :mod:`~repro.arch.compute_models` — the QS / IS / QR compute-model
  taxonomy of Figure 2 and the rationale for selecting QR.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.arch.batch": ("SpecBatch",),
    "repro.arch.compute_models": (
        "ComputeModel",
        "ComputeModelProperties",
        "COMPUTE_MODEL_CATALOG",
    ),
    "repro.arch.spec": ("ACIMDesignSpec", "enumerate_design_space", "valid_heights"),
    "repro.arch.architecture": (
        "ColumnPlan",
        "LocalArrayPlan",
        "SarGroupPlan",
        "SynthesizableACIM",
    ),
    "repro.arch.timing": (
        "OperatingState",
        "TimingEvent",
        "TimingModel",
        "TimingParameters",
    ),
})

__all__ = [
    "ComputeModel",
    "ComputeModelProperties",
    "COMPUTE_MODEL_CATALOG",
    "ACIMDesignSpec",
    "SpecBatch",
    "enumerate_design_space",
    "valid_heights",
    "ColumnPlan",
    "LocalArrayPlan",
    "SarGroupPlan",
    "SynthesizableACIM",
    "OperatingState",
    "TimingEvent",
    "TimingModel",
    "TimingParameters",
]
