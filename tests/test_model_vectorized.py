"""Tests of the vectorized array-model core: SpecBatch and the NumPy kernels.

The contract under test:

* :class:`~repro.arch.batch.SpecBatch` round-trips with scalar specs, its
  feasibility mask mirrors the scalar Equation-12 rules, and its grid
  constructors reproduce the historical enumeration order exactly;
* the vectorized estimator path agrees with the retained scalar reference
  within 1e-12 relative on all eight metrics (property-tested on random
  spec batches);
* on the power-of-two design space the Equation-12 *objectives* are
  bit-identical between the two paths, so a fixed-seed NSGA-II run produces
  a bit-identical Pareto front before and after the vectorization (asserted
  in ``tests/test_engine.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec, enumerate_design_space
from repro.errors import ModelError, SpecificationError
from repro.model.estimator import (
    ACIMEstimator,
    METRIC_FIELDS,
    MetricsArrays,
    ModelParameters,
)

#: Strategy for one feasible design point: H = L * 2^k with k >= B_ADC.
feasible_specs = st.builds(
    lambda local_exp, extra_exp, width, adc_bits: ACIMDesignSpec(
        height=(2 ** local_exp) * (2 ** max(extra_exp, adc_bits)),
        width=width,
        local_array_size=2 ** local_exp,
        adc_bits=adc_bits,
    ),
    local_exp=st.integers(min_value=1, max_value=5),
    extra_exp=st.integers(min_value=0, max_value=10),
    width=st.integers(min_value=1, max_value=512),
    adc_bits=st.integers(min_value=1, max_value=8),
)


class TestSpecBatch:
    def test_roundtrip_with_scalar_specs(self):
        specs = list(enumerate_design_space(4096))
        batch = SpecBatch.from_specs(specs)
        assert len(batch) == len(specs)
        assert batch.to_specs() == specs
        assert batch.as_tuples() == [spec.as_tuple() for spec in specs]

    def test_scalar_indexing_and_slicing(self):
        specs = list(enumerate_design_space(1024))
        batch = SpecBatch.from_specs(specs)
        assert batch[0] == specs[0]
        assert batch.spec_at(len(specs) - 1) == specs[-1]
        sub = batch[2:5]
        assert isinstance(sub, SpecBatch)
        assert sub.to_specs() == specs[2:5]
        taken = batch.take([4, 1, 0])
        assert taken.to_specs() == [specs[4], specs[1], specs[0]]

    def test_concat(self):
        specs = list(enumerate_design_space(1024))
        batch = SpecBatch.from_specs(specs)
        joined = SpecBatch.concat([batch[:3], batch[3:]])
        assert joined.to_specs() == specs
        assert len(SpecBatch.concat([])) == 0

    def test_derived_columns_match_scalar_properties(self):
        specs = list(enumerate_design_space(4096))
        batch = SpecBatch.from_specs(specs)
        assert batch.array_size.tolist() == [s.array_size for s in specs]
        assert batch.local_arrays_per_column.tolist() == [
            s.local_arrays_per_column for s in specs
        ]

    def test_feasible_mask_matches_scalar_rules(self):
        rng = np.random.default_rng(11)
        specs = [
            ACIMDesignSpec(int(h), int(w), int(l), int(b))
            for h, w, l, b in zip(
                rng.integers(1, 300, 400), rng.integers(1, 300, 400),
                rng.integers(1, 48, 400), rng.integers(1, 9, 400),
            )
        ]
        batch = SpecBatch.from_specs(specs)
        assert batch.feasible_mask().tolist() == [
            s.is_feasible() for s in specs
        ]
        assert batch.feasible_mask(1024).tolist() == [
            s.is_feasible(1024) for s in specs
        ]

    def test_validate_raises_on_infeasible_row(self):
        batch = SpecBatch.from_specs(
            [ACIMDesignSpec(64, 16, 2, 4), ACIMDesignSpec(8, 4, 8, 4)]
        )
        with pytest.raises(SpecificationError):
            batch.validate()
        batch[:1].validate()  # the feasible prefix passes

    def test_enumerate_matches_iterator_order(self):
        for array_size in (64, 1024, 16384):
            batch = SpecBatch.enumerate(array_size)
            assert batch.to_specs() == list(enumerate_design_space(array_size))

    def test_enumerate_non_power_of_two_space(self):
        kwargs = dict(
            local_array_sizes=(2, 3, 4, 6),
            power_of_two_heights=False,
            min_height=3,
            max_height=256,
        )
        batch = SpecBatch.enumerate(1152, **kwargs)
        assert batch.to_specs() == list(enumerate_design_space(1152, **kwargs))
        assert len(batch) > 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(SpecificationError):
            SpecBatch(height=[2, 4], width=[1], local_array_size=[2, 2],
                      adc_bits=[1, 1])


class TestVectorizedParity:
    """The array kernels track the scalar reference within 1e-12 relative."""

    @staticmethod
    def _assert_parity(estimator, specs):
        reference = estimator.evaluate_batch_reference(specs)
        vectorized = estimator.evaluate_batch(specs)
        assert len(vectorized) == len(reference)
        for ref, vec in zip(reference, vectorized):
            assert vec.spec == ref.spec
            for field in METRIC_FIELDS:
                assert getattr(vec, field) == pytest.approx(
                    getattr(ref, field), rel=1e-12, abs=0.0
                ), field

    @settings(max_examples=25, deadline=None)
    @given(st.lists(feasible_specs, min_size=1, max_size=40))
    def test_random_batches_simplified_snr(self, specs):
        self._assert_parity(ACIMEstimator(), specs)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(feasible_specs, min_size=1, max_size=40))
    def test_random_batches_full_snr(self, specs):
        estimator = ACIMEstimator(ModelParameters(use_simplified_snr=False))
        self._assert_parity(estimator, specs)

    def test_whole_grid_parity_calibrated(self):
        estimator = ACIMEstimator(ModelParameters.calibrated())
        specs = list(enumerate_design_space(16384))
        self._assert_parity(estimator, specs)

    def test_scalar_fast_path_parity(self):
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(4096))
        vectorized = estimator.evaluate_batch(specs)
        for spec, vec in zip(specs, vectorized):
            scalar = estimator.evaluate(spec)
            for field in METRIC_FIELDS:
                assert getattr(scalar, field) == pytest.approx(
                    getattr(vec, field), rel=1e-12, abs=0.0
                ), field

    def test_objectives_bit_identical_on_power_of_two_space(self):
        # Stronger than the 1e-12 bound: the Equation-12 objectives go
        # through log10 of powers of two and pure arithmetic only, where
        # the NumPy ufuncs agree with ``math`` bit for bit — the property
        # the bit-identical NSGA-II front regression rests on.
        estimator = ACIMEstimator()
        specs = []
        for exp in (10, 12, 14, 16, 20):
            specs.extend(enumerate_design_space(2 ** exp))
        reference = estimator.evaluate_batch_reference(specs)
        vectorized = estimator.evaluate_batch(specs)
        assert [m.objectives() for m in vectorized] == [
            m.objectives() for m in reference
        ]
        scalar = [estimator.evaluate(spec).objectives() for spec in specs]
        assert scalar == [m.objectives() for m in vectorized]


class TestEvaluateArrays:
    def test_structure_of_arrays_result(self):
        estimator = ACIMEstimator()
        batch = SpecBatch.enumerate(4096)
        arrays = estimator.evaluate_arrays(batch)
        assert isinstance(arrays, MetricsArrays)
        assert len(arrays) == len(batch)
        objectives = arrays.objectives_array()
        assert objectives.shape == (len(batch), 4)
        metrics = arrays.to_metrics()
        assert metrics == estimator.evaluate_batch(batch)
        assert arrays.metrics_at(3) == metrics[3]
        np.testing.assert_array_equal(
            objectives[:, 0], [-m.snr_db for m in metrics]
        )

    def test_empty_batch(self):
        estimator = ACIMEstimator()
        empty = SpecBatch(height=[], width=[], local_array_size=[], adc_bits=[])
        arrays = estimator.evaluate_arrays(empty)
        assert len(arrays) == 0
        assert arrays.to_metrics() == []
        assert estimator.evaluate_batch([]) == []

    def test_invalid_spec_rejected(self):
        estimator = ACIMEstimator()
        with pytest.raises(SpecificationError):
            estimator.evaluate_batch([ACIMDesignSpec(8, 4, 8, 4)])

    def test_duplicates_return_equal_metrics(self):
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        results = estimator.evaluate_batch([spec, spec, spec])
        assert results[0] == results[1] == results[2]

    def test_unknown_kernel_rejected(self):
        # The kernel= option was removed: evaluate() is the one scalar
        # model body and evaluate_batch always runs the array kernels.
        with pytest.raises(TypeError):
            ACIMEstimator(kernel="gpu")
        with pytest.raises(TypeError):
            ACIMEstimator(kernel="reference")

    def test_reference_kernel_estimator_uses_scalar_loop(self):
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        reference = estimator.evaluate_batch_reference(specs + specs[:3])
        assert reference == [estimator.evaluate(spec) for spec in specs] + \
            reference[:3]
        assert reference[-1] is reference[2]  # duplicates share a record


class TestKernelDomainChecks:
    def test_snr_kernels_reject_bad_domains(self):
        estimator = ACIMEstimator()
        snr = estimator.snr_model
        with pytest.raises(ModelError):
            snr.simplified_snr_db_array(np.array([0]), np.array([4]))
        with pytest.raises(ModelError):
            snr.total_snr_db_array(np.array([4]), np.array([0]))

    def test_energy_kernel_rejects_bad_adc_bits(self):
        estimator = ACIMEstimator()
        with pytest.raises(ModelError):
            estimator.energy_model.adc_energy_array(np.array([0]))

    def test_snr_kernel_values_match_scalar_functions(self):
        snr = ACIMEstimator().snr_model
        adc = np.array([1, 3, 5, 8])
        n = np.array([2, 8, 32, 256])
        for adc_bits, length in zip(adc.tolist(), n.tolist()):
            index = int(np.where(adc == adc_bits)[0][0])
            assert snr.simplified_snr_db_array(adc, n)[index] == pytest.approx(
                snr.simplified_snr_db(adc_bits, length), rel=1e-12, abs=0.0)
            assert snr.total_snr_db_array(adc, n)[index] == pytest.approx(
                snr.total_snr_db(adc_bits, length), rel=1e-12, abs=0.0)
            assert snr.design_snr_db_array(adc, n)[index] == pytest.approx(
                snr.design_snr_db(adc_bits, length), rel=1e-12, abs=0.0)
