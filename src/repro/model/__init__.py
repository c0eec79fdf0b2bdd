"""ACIM performance estimation model (paper section 3.2.1).

The model evaluates a design point :class:`~repro.arch.spec.ACIMDesignSpec`
on the four axes the paper optimises:

* **SNR** — Equations 2–6 (full model) and Equation 11 (the simplified form
  used as the optimisation objective f_SNR),
* **throughput** — Equation 7,
* **energy** — Equations 8–9,
* **area** — Equation 10.

:class:`~repro.model.estimator.ACIMEstimator` bundles everything into a
single object returning an :class:`~repro.model.estimator.ACIMMetrics`
record and the objective vector ``[-f_SNR, -f_T, f_E, f_A]`` consumed by the
design-space explorer.  :mod:`~repro.model.calibration` derives the model
constants from the paper's published Figure-8 datapoints and from the
behavioral simulator.

Every sub-model exposes both scalar formulas and vectorized NumPy kernels;
batches of design points travel as :class:`~repro.arch.batch.SpecBatch`
columns and come back as :class:`~repro.model.estimator.MetricsArrays`
metric columns (see ``docs/model.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.model.notation": ("WorkloadStatistics",),
    "repro.model.snr": ("SnrParameters", "SnrModel"),
    "repro.model.throughput": ("ThroughputArrays", "ThroughputModel"),
    "repro.model.energy": ("EnergyArrays", "EnergyParameters", "EnergyModel"),
    "repro.model.area": ("AreaArrays", "AreaParameters", "AreaModel"),
    "repro.model.estimator": (
        "ACIMEstimator",
        "ACIMMetrics",
        "MetricsArrays",
        "ModelParameters",
    ),
    # Back-annotation reads extracted layouts, so it loads repro.layout.
    "repro.model.backannotate": ("BackAnnotationResult", "BackAnnotator"),
    "repro.model.calibration": (
        "derive_area_parameters_from_figure8",
        "fit_adc_energy_constants",
        "fit_snr_constants",
    ),
})

__all__ = [
    "WorkloadStatistics",
    "SnrParameters",
    "SnrModel",
    "ThroughputArrays",
    "ThroughputModel",
    "EnergyArrays",
    "EnergyParameters",
    "EnergyModel",
    "AreaArrays",
    "AreaParameters",
    "AreaModel",
    "ACIMEstimator",
    "ACIMMetrics",
    "MetricsArrays",
    "ModelParameters",
    "BackAnnotationResult",
    "BackAnnotator",
    "derive_area_parameters_from_figure8",
    "fit_adc_energy_constants",
    "fit_snr_constants",
]
