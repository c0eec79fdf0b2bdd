"""Monte-Carlo SNR measurement of a design point.

Runs many random dot products through the behavioral column simulator and
compares the digital results against the ideal (infinite-precision,
noiseless) values.  The resulting measured SNR validates the analytic SNR
model of Equations 2–6: the two should agree on trends (SNR rises ~6 dB per
ADC bit, falls ~3 dB per doubling of the accumulation length) and roughly
on magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.arch.spec import ACIMDesignSpec
from repro.sim.behavioral import NoiseSettings, QrColumnSimulator
from repro.sim.workloads import WorkloadGenerator, binary_workload
from repro.units import linear_to_db


@dataclass(frozen=True)
class SnrMeasurement:
    """Result of a Monte-Carlo SNR run.

    Attributes:
        spec: the evaluated design point.
        trials: number of dot products simulated.
        snr_db: measured SNR in dB (signal variance over error variance).
        signal_variance: variance of the ideal dot-product results.
        error_variance: variance of (measured - ideal).
        mean_absolute_error: mean |measured - ideal| in product units.
    """

    spec: ACIMDesignSpec
    trials: int
    snr_db: float
    signal_variance: float
    error_variance: float
    mean_absolute_error: float


class MonteCarloSnr:
    """Monte-Carlo SNR measurement harness."""

    def __init__(
        self,
        spec: ACIMDesignSpec,
        workload: Optional[WorkloadGenerator] = None,
        noise: NoiseSettings = NoiseSettings(),
        unit_capacitance: float = 1.0e-15,
        vdd: float = 0.9,
        seed: int = 2024,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.workload = workload or binary_workload()
        self.noise = noise
        self.unit_capacitance = unit_capacitance
        self.vdd = vdd
        self.seed = seed

    def run(self, trials: int = 2000, columns: int = 8) -> SnrMeasurement:
        """Measure the SNR over ``trials`` random dot products.

        Each column instance's whole trial block runs as one array pass:
        the workload is sampled as a ``(trials, N)`` matrix, the mismatch
        and noise perturbations are drawn as arrays, and the SAR conversion
        digitises every trial at once — no per-trial Python loop.

        Args:
            trials: number of dot products to simulate in total.
            columns: number of independent column instances (each with its
                own mismatch sample) the trials are spread across, so the
                measurement averages over mismatch as well as noise.
        """
        if trials < 10:
            raise SimulationError("need at least 10 trials for a meaningful SNR")
        if columns < 1:
            raise SimulationError("need at least one column instance")
        rng = np.random.default_rng(self.seed)
        length = self.spec.local_arrays_per_column
        ideal_blocks = []
        measured_blocks = []
        trials_per_column = max(1, trials // columns)
        for column_index in range(columns):
            simulator = QrColumnSimulator(
                self.spec,
                noise=self.noise,
                unit_capacitance=self.unit_capacitance,
                vdd=self.vdd,
                rng=np.random.default_rng(self.seed + 17 * column_index + 1),
            )
            x_mat, w_mat = self.workload.sample_matrix(
                length, trials_per_column, rng
            )
            ideal_block, measured_block = simulator.dot_products(x_mat, w_mat)
            ideal_blocks.append(ideal_block)
            measured_blocks.append(measured_block)
        ideal = np.concatenate(ideal_blocks)
        measured = np.concatenate(measured_blocks)
        errors = measured - ideal
        signal_variance = float(np.var(ideal))
        error_variance = float(np.var(errors) + np.mean(errors) ** 2)
        if error_variance <= 0:
            # A perfect (noise-free, quantisation-free) measurement; report a
            # very large but finite SNR so downstream comparisons stay finite.
            snr_db = 200.0
        else:
            snr_db = linear_to_db(signal_variance / error_variance)
        return SnrMeasurement(
            spec=self.spec,
            trials=len(ideal),
            snr_db=snr_db,
            signal_variance=signal_variance,
            error_variance=error_variance,
            mean_absolute_error=float(np.mean(np.abs(errors))),
        )
