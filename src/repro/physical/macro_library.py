"""The reuse library of solved physical macros.

A *macro* is a sub-layout the pipeline solved once — generated, placed
and routed — together with its pin map and a summary of its routing and
area figures: the local SRAM array of a given ``L``, the full ACIM
column of a given ``(H, L, B_ADC)``, and so on.  The
:class:`MacroLibrary` is layered on the customized
:class:`~repro.cells.library.CellLibrary` (which provides the leaf-cell
views) and keyed by content address, so every unique subcell/tile is
solved **once** and instantiated by transform everywhere it recurs:

* within one design (``W`` identical column instances),
* across the designs of a multi-design distill flow (two Pareto points
  sharing ``L`` share the local-array macro),
* across processes and campaigns, through the result store's
  ``artifacts`` table (solved macros are serialized exactly and
  hydrated back on the next run).

This is the iprec/HierarchicalPcb pattern: a library of hierarchical
cell definitions replicated by reference instead of re-solved per copy.

Since PR 8 the exact-match cache is fronted by a *lookup ladder*: an
exact digest hit (memory, then store) is still preferred, but a miss now
consults the :class:`~repro.physical.templates.TemplateIndex` — and, for
cold processes, the store's ``template_index`` table — for the nearest
solved neighbour of the same template family and derives the requested
macro from it by incremental patch instead of solving cold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.cells.library import CellLibrary
from repro.errors import LayoutError, StoreError
from repro.layout.layout import LayoutCell
from repro.physical.artifacts import artifact_digest
from repro.physical.serialize import (
    LAYOUT_FORMAT,
    layout_from_dict,
    layout_to_dict,
    plans_from_dict,
    plans_to_dict,
)
from repro.physical.templates import (
    MacroTemplate,
    TemplateIndex,
    edit_cost,
    family_digest,
    family_key,
    template_for,
    template_params,
)
from repro.routing.hier_router import CellRoutePlans

#: Stage tag macros are stored under in the ``artifacts`` table.
MACRO_STAGE = "macro"


@dataclass(frozen=True)
class MacroRecord:
    """One solved macro, ready to instantiate by transform.

    Attributes:
        kind: macro family (``"local_array"``, ``"column"``, ...).
        digest: content address of the macro identity.
        layout: the solved (placed + routed) layout cell.
        pin_map: pin name -> layer of the macro's interface pins.
        routed_nets / failed_nets / wirelength_dbu: routing summary of the
            solve, replayed into flow reports on reuse.
        area_dbu2: boundary area of the macro.
        source: how the last serving of this record was satisfied
            (``built`` — solved cold in this process, ``memory`` —
            in-process reuse, ``store`` — hydrated from the persistent
            artifact cache, ``derived`` — patched from a neighbouring
            template).
        route_plans: replayable routing record of the solve; what makes
            this record usable as a :class:`~repro.physical.templates.MacroTemplate`.
            ``None`` for macros without interconnect routing and for
            payloads persisted before plans existed.
    """

    kind: str
    digest: str
    layout: LayoutCell
    pin_map: Dict[str, str]
    routed_nets: int
    failed_nets: int
    wirelength_dbu: int
    area_dbu2: int
    source: str = "built"
    route_plans: Optional[CellRoutePlans] = None

    def summary(self) -> dict:
        """Flat row for the ``repro library macros`` listing."""
        return {
            "kind": self.kind,
            "cell": self.layout.name,
            "digest": self.digest[:12],
            "pins": len(self.pin_map),
            "routed_nets": self.routed_nets,
            "failed_nets": self.failed_nets,
            "area_dbu2": self.area_dbu2,
            "source": self.source,
        }


class MacroLibrary:
    """Content-addressed cache of solved macros over a cell library.

    Args:
        library: the customized cell library macros are built from; its
            fingerprint is part of every macro key, so two processes with
            different leaf-cell footprints never share a macro.
        store: optional persistent result store; solved macros are
            written to its ``artifacts`` table and served back across
            process lifetimes.
    """

    def __init__(self, library: CellLibrary, store=None) -> None:
        self.library = library
        self.store = store
        self._memory: Dict[str, MacroRecord] = {}
        self._fingerprint: Optional[str] = None
        self.templates = TemplateIndex()
        self.built = 0
        self.memory_hits = 0
        self.store_hits = 0
        self.derived = 0
        self.derived_from_store = 0

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Digest of everything a macro's geometry depends on.

        Covers the library name, the technology and every leaf cell's
        footprint and pin interface, so a macro key changes whenever the
        generated geometry could.
        """
        if self._fingerprint is None:
            technology = self.library.technology
            cells = []
            for name in sorted(self.library.cell_names):
                layout = self.library.layout(name)
                cells.append([
                    name, layout.width, layout.height,
                    sorted(pin.name for pin in layout.pins),
                ])
            document = json.dumps(
                [
                    self.library.name,
                    technology.name,
                    technology.feature_size,
                    LAYOUT_FORMAT,
                    cells,
                ],
                separators=(",", ":"), sort_keys=True,
            )
            self._fingerprint = hashlib.sha256(
                document.encode("utf-8")
            ).hexdigest()
        return self._fingerprint

    def macro_digest(self, kind: str, key) -> str:
        """Content address of one macro identity under this library."""
        return artifact_digest(MACRO_STAGE, [kind, self.fingerprint(), key])

    # -- the cache -------------------------------------------------------------

    def get_or_build(
        self,
        kind: str,
        key,
        builder: Callable[[], Tuple[LayoutCell, Dict[str, int]]],
        deriver: Optional[
            Callable[[MacroTemplate], Optional[Tuple[LayoutCell, Dict[str, int]]]]
        ] = None,
    ) -> MacroRecord:
        """Serve a solved macro through the lookup ladder.

        The ladder is: exact digest hit in memory -> exact hit in the
        store -> incremental derive from the nearest same-family template
        (in-memory index first, then the store's ``template_index``) ->
        cold solve.  The returned record's ``source`` names the rung that
        satisfied the request.

        Args:
            kind: macro family name.
            key: JSON-serializable identity of the macro within the family
                (sub-spec values plus stage parameters).
            builder: zero-argument callable solving the macro from
                scratch; returns ``(layout, stats)`` with ``stats``
                carrying ``routed`` / ``failed`` / ``wirelength`` counts
                (and ``route_plans`` when the solve routed interconnect).
            deriver: optional callable patching a neighbouring
                :class:`~repro.physical.templates.MacroTemplate` into this
                macro; returns the patched ``(layout, stats)`` or ``None``
                to decline (which falls through to the cold build).
        """
        digest = self.macro_digest(kind, key)
        record = self._memory.get(digest)
        if record is not None:
            self.memory_hits += 1
            if record.source != "memory":
                record = replace(record, source="memory")
                self._memory[digest] = record
            return record
        record = self._load(kind, digest)
        if record is not None:
            self.store_hits += 1
            self._memory[digest] = record
            self._register_template(record, key)
            return record
        if deriver is not None:
            record = self._derive(kind, key, digest, deriver)
            if record is not None:
                return record
        layout, stats = builder()
        record = self._admit(kind, key, digest, layout, stats, source="built")
        self.built += 1
        return record

    def macros(self) -> List[MacroRecord]:
        """Every macro currently held in memory, oldest first."""
        return list(self._memory.values())

    def __len__(self) -> int:
        return len(self._memory)

    # -- template derivation ---------------------------------------------------

    def _nearest_with_origin(
        self, kind: str, key, exclude_digest: Optional[str] = None
    ) -> Tuple[Optional[MacroTemplate], str]:
        """The cheapest-to-patch solved neighbour of a macro identity.

        Looks in the in-memory :class:`TemplateIndex` first and falls back
        to the store's ``template_index`` table (hydrating the candidate
        macro), mirroring the exact-match ladder.  Returns the template
        (``None`` when the kind is not templated or no same-family
        neighbour exists) and where it came from: ``"memory"``,
        ``"store"`` or ``"none"``.
        """
        params = template_params(kind, key)
        family = family_key(kind, key)
        if params is None or family is None:
            return None, "none"
        digest = family_digest(kind, self.fingerprint(), family)
        template = self.templates.nearest(
            kind, digest, params, exclude_digest=exclude_digest
        )
        if template is not None:
            return template, "memory"
        template = self._nearest_from_store(
            kind, digest, family, params, exclude_digest
        )
        return template, "store" if template is not None else "none"

    def _derive(
        self,
        kind: str,
        key,
        digest: str,
        deriver: Callable[[MacroTemplate], Optional[Tuple[LayoutCell, Dict[str, int]]]],
    ) -> Optional[MacroRecord]:
        template, origin = self._nearest_with_origin(
            kind, key, exclude_digest=digest
        )
        if template is None:
            return None
        derived = deriver(template)
        if derived is None:
            return None
        layout, stats = derived
        record = self._admit(kind, key, digest, layout, stats, source="derived")
        self.derived += 1
        if origin == "store":
            self.derived_from_store += 1
        return record

    def _nearest_from_store(
        self,
        kind: str,
        family_id: str,
        family: Dict[str, object],
        params: Dict[str, int],
        exclude_digest: Optional[str],
    ) -> Optional[MacroTemplate]:
        if self.store is None or not hasattr(self.store, "list_template_entries"):
            return None
        candidates = []
        for row in self.store.list_template_entries(
            kind=kind, family_digest=family_id
        ):
            candidate_digest = row["artifact_digest"]
            if candidate_digest == exclude_digest:
                continue
            try:
                cost = edit_cost(kind, row["params"], params, family)
            except (KeyError, TypeError, ValueError):
                continue
            candidates.append((cost, candidate_digest, dict(row["params"])))
        candidates.sort(key=lambda entry: entry[:2])
        # Hydrating a candidate is itself costly, so only the few nearest
        # are tried; pre-template payloads (no plans) are skipped.
        for _cost, candidate_digest, candidate_params in candidates[:4]:
            record = self._load(kind, candidate_digest)
            if record is None or record.route_plans is None:
                continue
            self._memory.setdefault(candidate_digest, record)
            template = MacroTemplate(
                kind=kind,
                family_digest=family_id,
                family=family,
                params=candidate_params,
                record=record,
            )
            self.templates.add(template)
            return template
        return None

    def _admit(
        self,
        kind: str,
        key,
        digest: str,
        layout: LayoutCell,
        stats: Dict,
        source: str,
    ) -> MacroRecord:
        """Record, index and persist a freshly solved or derived macro."""
        plans = stats.get("route_plans")
        record = MacroRecord(
            kind=kind,
            digest=digest,
            layout=layout,
            pin_map={pin.name: pin.layer for pin in layout.pins},
            routed_nets=int(stats.get("routed", 0)),
            failed_nets=int(stats.get("failed", 0)),
            wirelength_dbu=int(stats.get("wirelength", 0)),
            area_dbu2=layout.area,
            source=source,
            route_plans=plans if isinstance(plans, CellRoutePlans) else None,
        )
        self._memory[digest] = record
        self._persist(record, key)
        self._register_template(record, key)
        return record

    def _register_template(self, record: MacroRecord, key) -> None:
        """Index a solved macro for near-miss reuse (memory + store)."""
        template = template_for(record.kind, key, self.fingerprint(), record)
        if template is None:
            return
        self.templates.add(template)
        if self.store is not None and hasattr(self.store, "put_template_entry"):
            self.store.put_template_entry(
                kind=template.kind,
                family_digest=template.family_digest,
                params=template.params,
                artifact_digest=record.digest,
            )

    # -- persistence -----------------------------------------------------------

    def _persist(self, record: MacroRecord, key) -> None:
        if self.store is None:
            return
        payload = {
            "kind": record.kind,
            "layout": layout_to_dict(record.layout),
            "pin_map": record.pin_map,
            "routed_nets": record.routed_nets,
            "failed_nets": record.failed_nets,
            "wirelength_dbu": record.wirelength_dbu,
            "area_dbu2": record.area_dbu2,
        }
        if record.route_plans is not None:
            payload["route_plans"] = plans_to_dict(record.route_plans)
        self.store.put_artifact(
            record.digest, MACRO_STAGE, [record.kind, key], payload=payload,
        )

    def _load(self, kind: str, digest: str) -> Optional[MacroRecord]:
        if self.store is None:
            return None
        payload = self.store.get_artifact(digest)
        if payload is None:
            return None
        try:
            layout = layout_from_dict(payload["layout"])
            return MacroRecord(
                kind=kind,
                digest=digest,
                layout=layout,
                pin_map=dict(payload["pin_map"]),
                routed_nets=int(payload["routed_nets"]),
                failed_nets=int(payload["failed_nets"]),
                wirelength_dbu=int(payload["wirelength_dbu"]),
                area_dbu2=int(payload["area_dbu2"]),
                source="store",
                route_plans=plans_from_dict(payload.get("route_plans")),
            )
        except (KeyError, TypeError, ValueError, LayoutError) as error:
            raise StoreError(f"corrupt macro artifact {digest}: {error}")
