"""MOGA-based design space exploration (paper section 3.2).

The explorer treats the choice of (H, W, L, B_ADC) as a constrained
four-objective minimisation problem (Equation 12) and solves it with
NSGA-II, implemented from scratch in :mod:`repro.dse.nsga2`:

* fast non-dominated sorting and crowding-distance assignment,
* constraint-domination (feasible solutions always dominate infeasible
  ones; infeasible ones are ranked by total violation),
* binary tournament selection, uniform/arithmetic crossover and mutation on
  the integer design genome.

Because the discrete ACIM design space is enumerable for the array sizes
the paper studies, :mod:`repro.dse.exhaustive` provides a brute-force
reference frontier the genetic explorer is validated (and benchmarked)
against.  :mod:`repro.dse.distill` implements the "user distillation" step
of Figure 4 that filters the Pareto set down to an application's
requirements.
"""

from repro._lazy import lazy_exports

# ``distill`` names both a submodule and the function it defines.  Importing
# the submodule rebinds the package attribute to the module, so the function
# is bound eagerly, after its module: repro.dse.distill stays the function.
from repro.dse.distill import DistillationCriteria, distill

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dse.pareto": (
        "crowding_distance",
        "dominates",
        "hypervolume_2d",
        "non_dominated_sort",
        "pareto_front",
        "pareto_front_mask",
    ),
    "repro.dse.nsga2": ("NSGA2", "NSGA2Config", "Individual"),
    "repro.dse.problem": ("ACIMDesignProblem", "EvaluatedDesign"),
    "repro.dse.exhaustive": ("exhaustive_pareto_front",),
    "repro.dse.explorer": ("ExplorationResult",),
    "repro.dse.sensitivity": (
        "FrontierSensitivity",
        "ParameterSensitivity",
        "SensitivityAnalyzer",
        "perturb_parameters",
    ),
})

__all__ = [
    "crowding_distance",
    "dominates",
    "hypervolume_2d",
    "non_dominated_sort",
    "pareto_front",
    "pareto_front_mask",
    "NSGA2",
    "NSGA2Config",
    "Individual",
    "ACIMDesignProblem",
    "EvaluatedDesign",
    "exhaustive_pareto_front",
    "ExplorationResult",
    "DistillationCriteria",
    "distill",
    "FrontierSensitivity",
    "ParameterSensitivity",
    "SensitivityAnalyzer",
    "perturb_parameters",
]
