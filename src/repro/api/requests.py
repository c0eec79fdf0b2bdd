"""Typed, JSON-serializable request objects of the public API.

Every workflow the library supports is described by one frozen request
dataclass: what to run, on which design space, with which knobs.  Requests
are plain data — construct them in Python, ship them as JSON (``to_dict``
/ ``from_dict`` round-trip exactly), queue them, log them — and every one
of them is executed by :class:`repro.api.Session`, the single entry point
the CLI, the tests and any future service share.

Validation raises the structured :mod:`repro.errors` exceptions (each with
a machine-readable ``code``): the request *envelope* (unknown kind,
unexpected field, wrong type) raises :class:`~repro.errors.RequestError`,
while domain violations inside a structurally valid request raise the same
domain exception the underlying layer would — an infeasible spec is a
:class:`~repro.errors.SpecificationError` whether it reaches the model
through an :class:`EstimateRequest` or directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Optional, Tuple, Type

from repro.arch.spec import ACIMDesignSpec
from repro.dse.nsga2 import NSGA2Config
from repro.flow.controller import REUSE_MODES
from repro.errors import (
    FlowError,
    OptimizationError,
    RequestError,
    SimulationError,
    StoreError,
)
from repro.physical.artifacts import PIPELINE_STAGES
from repro.store.result_store import RANK_METRICS

#: kind -> request class; populated by :func:`_register`.
REQUEST_TYPES: Dict[str, Type["ApiRequest"]] = {}


def _register(cls: Type["ApiRequest"]) -> Type["ApiRequest"]:
    """Class decorator adding a request type to the ``kind`` registry."""
    if not cls.kind or cls.kind in REQUEST_TYPES:
        raise RequestError(f"duplicate or empty request kind {cls.kind!r}")
    REQUEST_TYPES[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class ApiRequest:
    """Base machinery shared by every request type.

    Subclasses are frozen dataclasses with a :attr:`kind` class attribute;
    the base provides the dict round-trip and the envelope validation so
    the field lists below stay declarative.
    """

    #: Stable wire name of the request type (``"estimate"``, ...).
    kind: ClassVar[str] = ""
    #: Fields deserialized from JSON lists back into tuples.
    _tuple_fields: ClassVar[Tuple[str, ...]] = ()

    def validate(self) -> "ApiRequest":
        """Raise a structured :mod:`repro.errors` exception when invalid.

        Returns ``self`` so construction sites can chain
        ``Request(...).validate()``.
        """
        return self

    def to_dict(self) -> dict:
        """Serializable dictionary including the ``kind`` discriminator.

        Tuples become lists (JSON has no tuple), so
        ``from_dict(to_dict())`` reconstructs an equal request.
        """
        data = {"kind": self.kind}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ApiRequest":
        """Build (and validate) a request from a plain dictionary.

        The ``kind`` entry is optional when calling on a concrete class but
        must match it when present; unknown fields raise
        :class:`~repro.errors.RequestError` instead of being dropped, so a
        typo in a JSON request fails loudly.
        """
        if not isinstance(data, dict):
            raise RequestError(
                f"request must be a dict, got {type(data).__name__}"
            )
        data = dict(data)
        kind = data.pop("kind", cls.kind)
        if kind != cls.kind:
            raise RequestError(
                f"kind {kind!r} does not match {cls.__name__} "
                f"(expected {cls.kind!r})",
                field="kind",
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown field(s) {', '.join(unknown)} for request kind "
                f"{cls.kind!r} (known: {', '.join(sorted(known))})",
                field=unknown[0],
            )
        for name in cls._tuple_fields:
            if name in data and isinstance(data[name], list):
                data[name] = tuple(data[name])
        try:
            request = cls(**data)
        except TypeError as error:
            raise RequestError(
                f"cannot build {cls.kind!r} request: {error}"
            )
        request.validate()
        return request


def request_from_dict(data: dict) -> ApiRequest:
    """Dispatch a dictionary to its request class by ``kind``.

    The inverse of ``request.to_dict()`` for any registered type — the
    deserialization entry point for JSON job queues and the CLI.
    """
    if not isinstance(data, dict):
        raise RequestError(
            f"request must be a dict, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if kind is None:
        raise RequestError(
            "request is missing the 'kind' discriminator; "
            f"allowed kinds: {', '.join(sorted(REQUEST_TYPES))}",
            field="kind",
        )
    if kind not in REQUEST_TYPES:
        raise RequestError(
            f"unknown request kind {kind!r}; "
            f"allowed kinds: {', '.join(sorted(REQUEST_TYPES))}",
            field="kind",
        )
    return REQUEST_TYPES[kind].from_dict(data)


# ---------------------------------------------------------------------------
# Shared validation helpers
# ---------------------------------------------------------------------------


def _require_int(name: str, value, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise RequestError(f"{name} must be at least {minimum}, got {value}")


def _require_optional_int(name: str, value, minimum: int) -> None:
    if value is not None:
        _require_int(name, value, minimum)


def _spec_of(request) -> ACIMDesignSpec:
    """The validated design spec of a single-point request."""
    for name in ("height", "width", "local_array_size", "adc_bits"):
        _require_int(name, getattr(request, name), 1)
    return ACIMDesignSpec(
        request.height,
        request.width,
        request.local_array_size,
        request.adc_bits,
    ).validate()


def _validate_nsga2(request) -> None:
    """Shared checks of the optimiser knobs carried by a request.

    Delegates range checks to :class:`NSGA2Config` itself (raising its
    :class:`~repro.errors.OptimizationError`), so the request layer can
    never accept a configuration the optimiser would reject.
    """
    _require_int("array_size", request.array_size, 16)
    _require_optional_int("workers", getattr(request, "workers", None), 1)
    NSGA2Config(
        population_size=request.population,
        generations=request.generations,
        seed=request.seed,
    )


def _validate_surrogate(request) -> None:
    """Shared checks of the surrogate-screening knobs."""
    if request.surrogate not in ("off", "screen", "refine"):
        raise RequestError(
            f"unknown surrogate mode {request.surrogate!r}; "
            "expected one of ['off', 'refine', 'screen']"
        )
    fraction = request.screen_fraction
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
        raise RequestError(
            f"screen_fraction must be a number, got {fraction!r}"
        )
    if not 0.0 < float(fraction) <= 1.0:
        raise RequestError(
            f"screen_fraction must be in (0, 1], got {fraction!r}"
        )


_CRITERIA_FIELDS = (
    "min_snr_db",
    "min_tops",
    "min_tops_per_watt",
    "max_area_f2_per_bit",
)


def _has_criteria(request) -> bool:
    return any(
        getattr(request, name) is not None for name in _CRITERIA_FIELDS
    )


# ---------------------------------------------------------------------------
# The request catalogue
# ---------------------------------------------------------------------------


@_register
@dataclass(frozen=True)
class EstimateRequest(ApiRequest):
    """Evaluate the estimation model for one design point.

    Attributes:
        height / width / local_array_size / adc_bits: the design spec.
        adc_sweep: additionally sweep every feasible B_ADC for this
            geometry, evaluated as one engine batch.
    """

    kind: ClassVar[str] = "estimate"

    height: int = 128
    width: int = 128
    local_array_size: int = 8
    adc_bits: int = 3
    adc_sweep: bool = False

    def validate(self) -> "EstimateRequest":
        self.spec()
        return self

    def spec(self) -> ACIMDesignSpec:
        """The validated :class:`ACIMDesignSpec` this request describes."""
        return _spec_of(self)


@_register
@dataclass(frozen=True)
class ExploreRequest(ApiRequest):
    """Design-space exploration of one array size.

    Attributes:
        array_size: user-defined H * W in bit cells.
        method: ``nsga2`` (the paper's MOGA), ``exhaustive`` (brute-force
            true frontier) or ``sensitivity`` (Pareto-frontier stability
            under model-constant perturbation).
        population / generations / seed: NSGA-II budget (``nsga2`` only).
        local_array_sizes / max_adc_bits / min_height / max_height: the
            candidate design space.
        min_snr_db / min_tops / min_tops_per_watt / max_area_f2_per_bit:
            optional user-distillation bounds applied to the frontier.
        sensitivity_parameters: constants to perturb (``sensitivity``
            only; None keeps the analyzer's default set).
        relative_change: perturbation magnitude (``sensitivity`` only).
        surrogate: evaluation mode (``nsga2`` only): ``off`` (exact,
            bit-identical to earlier releases), ``screen`` (surrogate
            pre-filters offspring) or ``refine`` (screening plus a
            store-warmed start; needs the session's store).
        screen_fraction: fraction of feasible offspring sent to the exact
            engine per generation in the surrogate modes.
    """

    kind: ClassVar[str] = "explore"
    _tuple_fields: ClassVar[Tuple[str, ...]] = (
        "local_array_sizes",
        "sensitivity_parameters",
    )

    array_size: int = 16 * 1024
    method: str = "nsga2"
    population: int = 80
    generations: int = 40
    seed: int = 1
    local_array_sizes: Tuple[int, ...] = (2, 4, 8, 16, 32)
    max_adc_bits: int = 8
    min_height: int = 2
    max_height: Optional[int] = None
    min_snr_db: Optional[float] = None
    min_tops: Optional[float] = None
    min_tops_per_watt: Optional[float] = None
    max_area_f2_per_bit: Optional[float] = None
    sensitivity_parameters: Optional[Tuple[str, ...]] = None
    relative_change: float = 0.2
    surrogate: str = "off"
    screen_fraction: float = 0.25

    METHODS: ClassVar[Tuple[str, ...]] = ("nsga2", "exhaustive", "sensitivity")
    SURROGATE_MODES: ClassVar[Tuple[str, ...]] = ("off", "screen", "refine")

    def validate(self) -> "ExploreRequest":
        if self.method not in self.METHODS:
            raise RequestError(
                f"unknown explore method {self.method!r}; "
                f"expected one of {sorted(self.METHODS)}"
            )
        _validate_surrogate(self)
        if self.surrogate != "off" and self.method != "nsga2":
            raise RequestError(
                "surrogate screening only applies to the 'nsga2' method"
            )
        _validate_nsga2(self)
        _require_int("max_adc_bits", self.max_adc_bits, 1)
        _require_int("min_height", self.min_height, 1)
        _require_optional_int("max_height", self.max_height, 1)
        if not self.local_array_sizes:
            raise OptimizationError(
                "local_array_sizes must name at least one candidate L"
            )
        for size in self.local_array_sizes:
            _require_int("local_array_sizes entry", size, 1)
        if self.method == "sensitivity" and self.relative_change == 0.0:
            raise OptimizationError(
                "sensitivity relative_change must be non-zero"
            )
        return self


@_register
@dataclass(frozen=True)
class CampaignRequest(ApiRequest):
    """Start or resume a named, checkpointed, resumable campaign.

    Attributes:
        name: unique campaign name (the resume handle).
        action: ``run`` (new campaign) or ``resume`` (continue a killed
            one from its last committed checkpoint).
        array_size / population / generations / seed: the exploration
            budget (``run`` only; ``resume`` replays the stored config).
        checkpoint_every: commit a snapshot every N generations.
        stop_after: stop (checkpointed, resumable) after N generations in
            this call — the programmatic equivalent of killing the process.
        surrogate: evaluation mode (``run`` only; ``resume`` replays the
            stored mode): ``off``, ``screen`` or ``refine`` — see
            :class:`ExploreRequest`.
        screen_fraction: fraction of feasible offspring sent to the exact
            engine per generation in the surrogate modes.
    """

    kind: ClassVar[str] = "campaign"

    name: str = ""
    action: str = "run"
    array_size: int = 16 * 1024
    population: int = 80
    generations: int = 40
    seed: int = 1
    checkpoint_every: int = 1
    stop_after: Optional[int] = None
    surrogate: str = "off"
    screen_fraction: float = 0.25

    ACTIONS: ClassVar[Tuple[str, ...]] = ("run", "resume")
    SURROGATE_MODES: ClassVar[Tuple[str, ...]] = ("off", "screen", "refine")

    def validate(self) -> "CampaignRequest":
        if not self.name or not isinstance(self.name, str):
            raise RequestError("campaign name must be a non-empty string")
        if self.action not in self.ACTIONS:
            raise RequestError(
                f"unknown campaign action {self.action!r}; "
                f"expected one of {sorted(self.ACTIONS)}"
            )
        _validate_nsga2(self)
        if self.checkpoint_every < 1:
            raise StoreError("checkpoint_every must be at least 1")
        _require_optional_int("stop_after", self.stop_after, 1)
        _validate_surrogate(self)
        if self.surrogate != "off" and self.action != "run":
            raise RequestError(
                "surrogate only applies to 'run' (a resumed campaign "
                "replays its stored evaluation mode)"
            )
        return self


@_register
@dataclass(frozen=True)
class FlowRequest(ApiRequest):
    """The end-to-end EasyACIM flow: explore, distill, netlist, layout.

    Attributes:
        array_size / population / generations / seed: exploration budget.
        min_snr_db / min_tops / min_tops_per_watt / max_area_f2_per_bit:
            optional user-distillation bounds (paper Figure 4, stage 3).
        max_layouts: cap on how many distilled solutions get full layouts.
        generate_netlists / generate_layouts: stage toggles.
        route_columns: run the maze router inside local arrays/columns.
        output_dir: where to export GDS/DEF when layouts are generated.
        campaign_name: record the run under this name in the session's
            store (None: ``flow-<array_size>`` when a store is attached).
        reuse: ``"auto"`` serves repeated physical work from the
            session's macro/artifact cache (``docs/physical.md``);
            ``"off"`` solves every design flat from scratch (the
            regression baseline).
    """

    kind: ClassVar[str] = "flow"

    array_size: int = 1024
    population: int = 40
    generations: int = 20
    seed: int = 1
    min_snr_db: Optional[float] = None
    min_tops: Optional[float] = None
    min_tops_per_watt: Optional[float] = None
    max_area_f2_per_bit: Optional[float] = None
    max_layouts: int = 3
    generate_netlists: bool = True
    generate_layouts: bool = True
    route_columns: bool = False
    output_dir: Optional[str] = None
    campaign_name: Optional[str] = None
    reuse: str = "auto"

    #: Shared with the flow controller, so request-level and core-level
    #: validation can never drift apart.
    REUSE_MODES: ClassVar[Tuple[str, ...]] = REUSE_MODES

    def validate(self) -> "FlowRequest":
        if not isinstance(self.array_size, int) or self.array_size < 16:
            raise FlowError("array size must be at least 16 bit cells")
        _validate_nsga2(self)
        _require_int("max_layouts", self.max_layouts, 0)
        if self.reuse not in self.REUSE_MODES:
            raise FlowError(
                f"unknown reuse mode {self.reuse!r}; "
                f"expected one of {sorted(self.REUSE_MODES)}"
            )
        return self


@_register
@dataclass(frozen=True)
class QueryRequest(ApiRequest):
    """Query the session's persistent result store.

    Attributes:
        what: ``designs`` (ranked evaluated design points across every
            campaign that fed the store) or ``campaigns`` (the campaign
            catalogue plus store occupancy).
        min_snr_db / min_tops / min_tops_per_watt / max_area_f2_per_bit:
            optional distillation bounds (``designs`` only).
        rank_by: ranking metric (see ``repro.store.RANK_METRICS``).
        limit: page size — truncate the ranked list to at most this many
            entries (``designs`` only; None returns everything).
        offset: skip this many ranked entries before the page starts
            (``designs`` only); with ``limit`` this pages through large
            stores, and the payload's ``total`` reports the full match
            count so clients know when they are done.
        pareto_only: keep only store-wide non-dominated points.
    """

    kind: ClassVar[str] = "query"

    what: str = "designs"
    min_snr_db: Optional[float] = None
    min_tops: Optional[float] = None
    min_tops_per_watt: Optional[float] = None
    max_area_f2_per_bit: Optional[float] = None
    rank_by: str = "tops_per_watt"
    limit: Optional[int] = None
    offset: int = 0
    pareto_only: bool = True

    TARGETS: ClassVar[Tuple[str, ...]] = ("designs", "campaigns")

    def validate(self) -> "QueryRequest":
        if self.what not in self.TARGETS:
            raise RequestError(
                f"unknown query target {self.what!r}; "
                f"expected one of {sorted(self.TARGETS)}"
            )
        if self.rank_by not in RANK_METRICS:
            raise StoreError(
                f"unknown rank metric {self.rank_by!r}; "
                f"expected one of {sorted(RANK_METRICS)}"
            )
        _require_optional_int("limit", self.limit, 0)
        _require_int("offset", self.offset, 0)
        return self


@_register
@dataclass(frozen=True)
class LayoutRequest(ApiRequest):
    """Generate netlist, layout and export files for one design point.

    Attributes:
        height / width / local_array_size / adc_bits: the design spec.
        route_columns: run the maze router (False: floorplan only).
        output_dir: export directory for GDS/DEF (and the optional SPICE /
            testbench / LEF views); None keeps everything in memory.
        spice / testbench / lef: additional views to write (need
            ``output_dir``).
    """

    kind: ClassVar[str] = "layout"

    height: int = 16
    width: int = 4
    local_array_size: int = 4
    adc_bits: int = 2
    route_columns: bool = True
    output_dir: Optional[str] = None
    spice: bool = False
    testbench: bool = False
    lef: bool = False

    def validate(self) -> "LayoutRequest":
        self.spec()
        if self.output_dir is None and (self.spice or self.testbench or self.lef):
            raise RequestError(
                "spice/testbench/lef views require an output_dir"
            )
        return self

    def spec(self) -> ACIMDesignSpec:
        """The validated :class:`ACIMDesignSpec` this request describes."""
        return _spec_of(self)


@_register
@dataclass(frozen=True)
class ValidateSnrRequest(ApiRequest):
    """Monte-Carlo validation of the analytic SNR model.

    Attributes:
        adc_bits: ADC precisions to validate (infeasible ones are skipped
            with a warning in the result envelope).
        height / local_array_size: column geometry of the validation specs.
        trials: Monte-Carlo trials per precision.
        seed: simulation seed.
    """

    kind: ClassVar[str] = "validate-snr"
    _tuple_fields: ClassVar[Tuple[str, ...]] = ("adc_bits",)

    adc_bits: Tuple[int, ...] = (3, 4, 5)
    height: int = 128
    local_array_size: int = 4
    trials: int = 800
    seed: int = 7

    def validate(self) -> "ValidateSnrRequest":
        if not self.adc_bits:
            raise SimulationError("adc_bits must name at least one precision")
        for bits in self.adc_bits:
            _require_int("adc_bits entry", bits, 1)
        _require_int("height", self.height, 1)
        _require_int("local_array_size", self.local_array_size, 1)
        _require_int("trials", self.trials, 1)
        return self


@_register
@dataclass(frozen=True)
class LibraryRequest(ApiRequest):
    """Inspect the session's customized cell library.

    Attributes:
        report: include the per-cell summary text in the payload.
        macros: also list the solved macros of the session's physical
            pipeline and, when a store is attached, the persisted macro
            artifact cache (``repro library macros``).
        stage: only list artifacts persisted under this store stage
            (``"macro"`` for solved macros; pipeline stage names for any
            future per-stage artifacts); ``None`` lists everything.
        macro_kind: only list macros of this kind (``"local_array"``,
            ``"column"``, ``"acim_macro"``); ``None`` lists everything.
    """

    kind: ClassVar[str] = "library"

    #: Store stages the macro listing understands.
    _STAGES: ClassVar[Tuple[str, ...]] = ("macro",) + PIPELINE_STAGES

    report: bool = False
    macros: bool = False
    stage: Optional[str] = None
    macro_kind: Optional[str] = None

    def validate(self) -> "LibraryRequest":
        if self.stage is not None and self.stage not in self._STAGES:
            raise RequestError(
                f"stage must be one of {sorted(self._STAGES)}, "
                f"got {self.stage!r}"
            )
        if self.macro_kind is not None and not isinstance(
            self.macro_kind, str
        ):
            raise RequestError(
                f"macro_kind must be a string, got {self.macro_kind!r}"
            )
        return self
