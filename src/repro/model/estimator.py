"""The combined ACIM performance estimator and its objective vector.

:class:`ACIMEstimator` evaluates a design point on all four axes the paper
optimises and exposes the multi-objective vector

``F(H, W, L, B_ADC) = [-f_SNR, -f_T, f_E, f_A]``    (Equation 12)

used by the NSGA-II explorer (minimisation context: SNR and throughput are
negated).  The default constants are the calibrated values documented in
DESIGN.md; :class:`ModelParameters` lets applications override any subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec
from repro.arch.timing import TimingParameters
from repro.engine.cache import parameters_cache_key
from repro.model.area import AreaModel, AreaParameters
from repro.model.energy import EnergyModel, EnergyParameters
from repro.model.notation import WorkloadStatistics
from repro.model.snr import SnrModel, SnrParameters
from repro.model.throughput import ThroughputModel


@dataclass(frozen=True)
class ModelParameters:
    """All constants of the estimation model in one bundle.

    Attributes:
        snr: SNR-model parameters (C_o, kappa, k3, k4, ...).
        energy: energy-model parameters (E_compute, E_control, k1, k2).
        area: area-model parameters (A_SRAM, A_LC, A_COMP, A_DFF).
        timing: timing parameters (t_com, tau, t_conv/bit).
        workload: workload statistics (defaults to 1b x 1b, as in the paper).
        use_simplified_snr: when True the explorer objective uses the
            simplified Equation 11; otherwise the full Equations 2-6.
    """

    snr: SnrParameters = field(default_factory=SnrParameters)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    area: AreaParameters = field(default_factory=AreaParameters)
    timing: TimingParameters = field(default_factory=TimingParameters)
    workload: WorkloadStatistics = field(default_factory=WorkloadStatistics.binary)
    use_simplified_snr: bool = True

    @classmethod
    def calibrated(cls, **overrides) -> "ModelParameters":
        """Return the default parameter set with the fitted k3/k4 constants.

        The simplified-SNR coefficients are fitted against the full model on
        construction so Equation 11 tracks Equations 2-6 for the default
        workload; everything else uses the DESIGN.md calibration constants.
        """
        from repro.model.calibration import fit_snr_constants

        base = cls(**overrides)
        k3, k4, _residual = fit_snr_constants(
            snr_parameters=base.snr, workload=base.workload
        )
        return replace(base, snr=replace(base.snr, k3=k3, k4=k4))


@dataclass(frozen=True)
class ACIMMetrics:
    """Evaluation result of one design point.

    Attributes:
        spec: the evaluated design point.
        snr_db: SNR in dB (simplified Equation 11 when the estimator is
            configured that way, otherwise the full-model design SNR).
        snr_total_db: full-model total SNR including workload quantization.
        tops: throughput in TOPS (2 ops/MAC).
        macs_per_second: throughput in MAC/s (the paper's T).
        energy_per_mac: average energy per 1-bit MAC in joules.
        tops_per_watt: energy efficiency in TOPS/W.
        area_f2_per_bit: average area per bit in F^2.
        total_area_um2: whole-macro area in um^2.
    """

    spec: ACIMDesignSpec
    snr_db: float
    snr_total_db: float
    tops: float
    macs_per_second: float
    energy_per_mac: float
    tops_per_watt: float
    area_f2_per_bit: float
    total_area_um2: float

    def objectives(self) -> Tuple[float, float, float, float]:
        """The Equation-12 minimisation vector ``[-f_SNR, -f_T, f_E, f_A]``."""
        return (-self.snr_db, -self.tops, self.energy_per_mac, self.area_f2_per_bit)

    def as_dict(self) -> dict:
        """Flat dictionary (useful for CSV export and reports)."""
        return {
            "H": self.spec.height,
            "W": self.spec.width,
            "L": self.spec.local_array_size,
            "B_ADC": self.spec.adc_bits,
            "snr_db": self.snr_db,
            "snr_total_db": self.snr_total_db,
            "tops": self.tops,
            "macs_per_second": self.macs_per_second,
            "energy_per_mac_fJ": self.energy_per_mac * 1e15,
            "tops_per_watt": self.tops_per_watt,
            "area_f2_per_bit": self.area_f2_per_bit,
            "total_area_um2": self.total_area_um2,
        }


#: The eight metric fields of :class:`ACIMMetrics` (everything but the
#: spec), in record order — the single source the parity suite and the
#: vectorized-model benchmark iterate over.
METRIC_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(ACIMMetrics) if f.name != "spec"
)


@dataclass(frozen=True)
class MetricsArrays:
    """Structure-of-arrays evaluation result of a :class:`SpecBatch`.

    One NumPy column per metric, aligned with the batch — the raw output of
    the vectorized model kernels before (optional) materialisation into
    per-spec :class:`ACIMMetrics` records.

    Attributes:
        batch: the evaluated design points.
        snr_db: f_SNR objective per design point, in dB.
        snr_total_db: full-model total SNR per design point, in dB.
        tops: throughput in TOPS.
        macs_per_second: throughput in MAC/s.
        energy_per_mac: energy per 1-bit MAC in joules.
        tops_per_watt: energy efficiency in TOPS/W.
        area_f2_per_bit: per-bit area in F^2.
        total_area_um2: whole-macro area in um^2.
    """

    batch: SpecBatch
    snr_db: np.ndarray
    snr_total_db: np.ndarray
    tops: np.ndarray
    macs_per_second: np.ndarray
    energy_per_mac: np.ndarray
    tops_per_watt: np.ndarray
    area_f2_per_bit: np.ndarray
    total_area_um2: np.ndarray

    def __len__(self) -> int:
        return len(self.batch)

    def objectives_array(self) -> np.ndarray:
        """The Equation-12 minimisation vectors as an (N, 4) array."""
        return np.column_stack(
            (-self.snr_db, -self.tops, self.energy_per_mac, self.area_f2_per_bit)
        )

    def to_metrics(
        self, specs: Optional[Sequence[ACIMDesignSpec]] = None
    ) -> List[ACIMMetrics]:
        """Materialise per-spec :class:`ACIMMetrics` records, in batch order.

        Args:
            specs: pre-built spec objects aligned with the batch; when
                omitted they are reconstructed from the batch columns.
        """
        if specs is None:
            specs = self.batch.to_specs()
        return [
            ACIMMetrics(*row)
            for row in zip(
                specs,
                self.snr_db.tolist(),
                self.snr_total_db.tolist(),
                self.tops.tolist(),
                self.macs_per_second.tolist(),
                self.energy_per_mac.tolist(),
                self.tops_per_watt.tolist(),
                self.area_f2_per_bit.tolist(),
                self.total_area_um2.tolist(),
            )
        ]

    def metrics_at(self, index: int) -> ACIMMetrics:
        """One per-spec metrics record."""
        return ACIMMetrics(
            spec=self.batch.spec_at(index),
            snr_db=float(self.snr_db[index]),
            snr_total_db=float(self.snr_total_db[index]),
            tops=float(self.tops[index]),
            macs_per_second=float(self.macs_per_second[index]),
            energy_per_mac=float(self.energy_per_mac[index]),
            tops_per_watt=float(self.tops_per_watt[index]),
            area_f2_per_bit=float(self.area_f2_per_bit[index]),
            total_area_um2=float(self.total_area_um2[index]),
        )


class ACIMEstimator:
    """Evaluates design points on SNR, throughput, energy and area.

    The batch path (:meth:`evaluate_batch` / :meth:`evaluate_arrays`) runs
    the vectorized NumPy kernels of the four sub-models: a batch of N
    design points costs a handful of array kernel calls instead of N
    Python model traversals.  The scalar formulas of :meth:`evaluate` are
    the *reference* path (:meth:`evaluate_batch_reference` loops over
    them): the parity suite asserts the two agree within 1e-12 relative
    on every metric, and the benchmark harness uses the loop as the
    scalar baseline.

    Args:
        parameters: model constants; defaults to the stock bundle.

    Attributes:
        parameters_key: the bundle's evaluation-cache key
            (:func:`~repro.engine.cache.parameters_cache_key`), computed
            once here because the engine keys every batch with it.
    """

    def __init__(self, parameters: Optional[ModelParameters] = None) -> None:
        self.parameters = parameters or ModelParameters()
        self.parameters_key = parameters_cache_key(self.parameters)
        self._snr = SnrModel(self.parameters.snr, self.parameters.workload)
        self._throughput = ThroughputModel(self.parameters.timing)
        self._energy = EnergyModel(self.parameters.energy)
        self._area = AreaModel(self.parameters.area)

    # -- individual models ---------------------------------------------------

    @property
    def snr_model(self) -> SnrModel:
        """The underlying SNR model."""
        return self._snr

    @property
    def throughput_model(self) -> ThroughputModel:
        """The underlying throughput model."""
        return self._throughput

    @property
    def energy_model(self) -> EnergyModel:
        """The underlying energy model."""
        return self._energy

    @property
    def area_model(self) -> AreaModel:
        """The underlying area model."""
        return self._area

    # -- evaluation -----------------------------------------------------------

    def snr_db(self, spec: ACIMDesignSpec) -> float:
        """The f_SNR objective in dB for ``spec``."""
        n = spec.local_arrays_per_column
        if self.parameters.use_simplified_snr:
            return self._snr.simplified_snr_db(spec.adc_bits, n)
        return self._snr.design_snr_db(spec.adc_bits, n)

    def evaluate(self, spec: ACIMDesignSpec) -> ACIMMetrics:
        """Evaluate one spec on every axis and return the metrics record.

        This is a true scalar fast path: plain-``math`` model formulas with
        no batch assembly, dedup bookkeeping or array round-trips.  It
        agrees with the vectorized batch path within the 1e-12 relative
        parity bound (bit-identically on the Equation-12 objectives over
        the power-of-two design space).
        """
        spec.validate()
        n = spec.local_arrays_per_column
        snr_model = self._snr
        snr_objective = (
            snr_model.simplified_snr_db
            if self.parameters.use_simplified_snr
            else snr_model.design_snr_db
        )
        throughput = self._throughput.breakdown(spec)
        energy = self._energy.breakdown(spec)
        area = self._area.breakdown(spec)
        return ACIMMetrics(
            spec=spec,
            snr_db=snr_objective(spec.adc_bits, n),
            snr_total_db=snr_model.total_snr_db(spec.adc_bits, n),
            tops=throughput.tops,
            macs_per_second=throughput.macs_per_second,
            energy_per_mac=energy.total_per_mac,
            tops_per_watt=energy.tops_per_watt,
            area_f2_per_bit=area.per_bit,
            total_area_um2=area.total_um2,
        )

    def evaluate_arrays(
        self, batch: SpecBatch, validate: bool = True
    ) -> MetricsArrays:
        """Evaluate a :class:`SpecBatch` through the vectorized kernels.

        Returns the structure-of-arrays result: one metric column per axis,
        aligned with the batch.  This is the innermost hot path — a batch
        of N design points costs a handful of NumPy kernel calls.
        """
        if validate:
            batch.validate()
        n = batch.local_arrays_per_column
        adc = batch.adc_bits
        snr_model = self._snr
        if self.parameters.use_simplified_snr:
            snr_db = snr_model.simplified_snr_db_array(adc, n)
        else:
            snr_db = snr_model.design_snr_db_array(adc, n)
        throughput = self._throughput.breakdown_arrays(batch)
        energy = self._energy.breakdown_arrays(batch)
        area = self._area.breakdown_arrays(batch)
        return MetricsArrays(
            batch=batch,
            snr_db=snr_db,
            snr_total_db=snr_model.total_snr_db_array(adc, n),
            tops=throughput.tops,
            macs_per_second=throughput.macs_per_second,
            energy_per_mac=energy.total_per_mac,
            tops_per_watt=energy.tops_per_watt,
            area_f2_per_bit=area.per_bit,
            total_area_um2=area.total_um2,
        )

    def evaluate_batch(
        self, specs: Union[SpecBatch, Sequence[ACIMDesignSpec]]
    ) -> List[ACIMMetrics]:
        """Evaluate many specs at once, returning metrics in input order.

        Accepts either a sequence of scalar specs or a :class:`SpecBatch`
        (the engine submits batches; grid consumers build them directly).
        The whole batch is validated and evaluated through the vectorized
        array kernels — duplicates simply ride along, their marginal cost
        being one extra array row.  This is the hot path the
        :class:`~repro.engine.engine.EvaluationEngine` drives for
        population batches and exhaustive grids.
        """
        if isinstance(specs, SpecBatch):
            batch, spec_objects = specs, None
        else:
            spec_objects = list(specs)
            batch = SpecBatch.from_specs(spec_objects)
        return self.evaluate_arrays(batch).to_metrics(spec_objects)

    # -- scalar reference path -------------------------------------------------

    def evaluate_batch_reference(
        self, specs: Union[SpecBatch, Sequence[ACIMDesignSpec]]
    ) -> List[ACIMMetrics]:
        """The scalar loop: :meth:`evaluate` once per unique spec.

        The baseline the benchmark harness and the 1e-12 parity suite
        compare the array kernels against; duplicates share one record.
        """
        if isinstance(specs, SpecBatch):
            specs = specs.to_specs()
        unique: Dict[ACIMDesignSpec, ACIMMetrics] = {}
        results: List[ACIMMetrics] = []
        for spec in specs:
            metrics = unique.get(spec)
            if metrics is None:
                metrics = unique[spec] = self.evaluate(spec)
            results.append(metrics)
        return results

    def objectives(self, spec: ACIMDesignSpec) -> Tuple[float, float, float, float]:
        """The Equation-12 objective vector for ``spec``."""
        return self.evaluate(spec).objectives()
