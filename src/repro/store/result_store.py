"""SQLite-backed persistent store of evaluated ACIM design points.

:class:`ResultStore` is the durable, queryable record of evaluated
designs: every ``(spec, model-params, tech)`` triple a store-backed
engine computes is content-addressed by a SHA-256 digest of its
canonical engine cache key and written through to a single SQLite file
before the engine caches it.  Later processes — another campaign, a flow
run, ``query designs`` from the CLI — read the rows through
:meth:`ResultStore.query_page`; engines never read them back, because
the closed-form model recomputes a design faster than the store returns
it.

The same file also holds campaign state: named campaigns with their
configuration, per-generation NSGA-II checkpoints (population + RNG
state) and the final Pareto sets, so a killed ``campaign run`` resumes
bit-identically from its last committed generation.

Durability model:

* every write happens inside one ``BEGIN IMMEDIATE`` transaction, so a
  killed process never leaves a partially-applied batch or checkpoint;
* concurrent writers (two processes sharing one store file) serialize on
  SQLite's file lock with a generous busy timeout;
* the schema carries an explicit version and the store refuses to open a
  file written by an incompatible revision instead of misreading it.

Evaluation rows are immutable — a content address identifies a pure
function application, so the first write wins and re-writes are no-ops.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.arch.spec import ACIMDesignSpec
from repro.errors import StoreError
from repro.model.estimator import ACIMMetrics
from repro.names import RANK_METRICS
from repro.obs import get_tracer

#: Version of the on-disk schema; bumped on incompatible layout changes.
#: v2 added the ``template_index`` table and the ``(stage, created_at)``
#: artifact index; v3 adds one ``(metric, spec)`` rank index per query
#: metric (all purely additive, so older files migrate in place).  v3
#: files written before 1.5.0 also hold a table and an index of the
#: removed screening feature; nothing reads them and they are left as is.
SCHEMA_VERSION = 3

#: Older schema versions this revision upgrades in place on open.  Every
#: v2/v3 addition is new tables/indexes created by the idempotent DDL, so
#: migrating an older file is just running the DDL and re-stamping.
_MIGRATABLE_VERSIONS = (1, 2)

#: Metric columns of the ``evaluations`` table, in ACIMMetrics field order.
_METRIC_FIELDS = (
    "snr_db",
    "snr_total_db",
    "tops",
    "macs_per_second",
    "energy_per_mac",
    "tops_per_watt",
    "area_f2_per_bit",
    "total_area_um2",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS param_bundles (
    params_digest TEXT PRIMARY KEY,
    params_json   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS evaluations (
    key_digest    TEXT PRIMARY KEY,
    height        INTEGER NOT NULL,
    width         INTEGER NOT NULL,
    local         INTEGER NOT NULL,
    adc_bits      INTEGER NOT NULL,
    params_digest TEXT NOT NULL REFERENCES param_bundles(params_digest),
    technology    TEXT,
    snr_db REAL NOT NULL, snr_total_db REAL NOT NULL,
    tops REAL NOT NULL, macs_per_second REAL NOT NULL,
    energy_per_mac REAL NOT NULL, tops_per_watt REAL NOT NULL,
    area_f2_per_bit REAL NOT NULL, total_area_um2 REAL NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_evaluations_params
    ON evaluations(params_digest);
CREATE TABLE IF NOT EXISTS campaigns (
    name              TEXT PRIMARY KEY,
    array_size        INTEGER NOT NULL,
    status            TEXT NOT NULL,
    config_json       TEXT NOT NULL,
    params_digest     TEXT NOT NULL,
    generations_done  INTEGER NOT NULL DEFAULT 0,
    total_generations INTEGER NOT NULL,
    evaluations       INTEGER NOT NULL DEFAULT 0,
    runtime_seconds   REAL NOT NULL DEFAULT 0.0,
    created_at        REAL NOT NULL,
    updated_at        REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    campaign   TEXT NOT NULL REFERENCES campaigns(name),
    generation INTEGER NOT NULL,
    state_json TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (campaign, generation)
);
CREATE TABLE IF NOT EXISTS campaign_results (
    campaign   TEXT NOT NULL REFERENCES campaigns(name),
    position   INTEGER NOT NULL,
    key_digest TEXT NOT NULL REFERENCES evaluations(key_digest),
    PRIMARY KEY (campaign, position)
);
CREATE TABLE IF NOT EXISTS artifacts (
    artifact_digest TEXT PRIMARY KEY,
    stage           TEXT NOT NULL,
    key_json        TEXT NOT NULL,
    payload_json    TEXT NOT NULL,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_artifacts_stage ON artifacts(stage);
CREATE INDEX IF NOT EXISTS idx_artifacts_stage_created
    ON artifacts(stage, created_at);
CREATE TABLE IF NOT EXISTS template_index (
    kind            TEXT NOT NULL,
    family_digest   TEXT NOT NULL,
    params_json     TEXT NOT NULL,
    artifact_digest TEXT NOT NULL REFERENCES artifacts(artifact_digest),
    created_at      REAL NOT NULL,
    PRIMARY KEY (kind, family_digest, params_json)
);
CREATE INDEX IF NOT EXISTS idx_template_index_family
    ON template_index(family_digest);
CREATE TABLE IF NOT EXISTS run_metrics (
    campaign     TEXT NOT NULL REFERENCES campaigns(name),
    run_index    INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    metrics_json TEXT NOT NULL,
    PRIMARY KEY (campaign, run_index)
);
""" + "".join(
    f"CREATE INDEX IF NOT EXISTS idx_eval_rank_{metric}\n"
    f"    ON evaluations({metric}, height, width, local, adc_bits);\n"
    for metric in RANK_METRICS
)


# -- canonical keys and digests ----------------------------------------------


def _to_jsonable(value):
    """Tuples become lists recursively; scalars pass through."""
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(item) for item in value]
    return value


def canonical_key(key: Tuple) -> str:
    """Canonical JSON text of an engine cache key (or any nested tuple).

    Python's shortest-repr float serialization round-trips exactly, so two
    equal keys always canonicalize to the same text.
    """
    return json.dumps(_to_jsonable(key), separators=(",", ":"))


def key_digest(key: Tuple) -> str:
    """Content address of one evaluation: SHA-256 of the canonical key."""
    return hashlib.sha256(canonical_key(key).encode("utf-8")).hexdigest()


def params_digest_of(params_key: Tuple) -> str:
    """Content address of a flattened model-parameters bundle."""
    return hashlib.sha256(
        canonical_key(params_key).encode("utf-8")
    ).hexdigest()


# -- record types -------------------------------------------------------------


@dataclass(frozen=True)
class StoredEvaluation:
    """One evaluated design point read back from the store.

    Attributes:
        metrics: the full metrics record (``metrics.spec`` is the design).
        key_digest: content address of the evaluation.
        params_digest: content address of the model-parameter bundle.
        technology: technology tag of the cache key (usually ``None``).
        created_at: UNIX timestamp of the first write.
    """

    metrics: ACIMMetrics
    key_digest: str
    params_digest: str
    technology: Optional[str]
    created_at: float

    @property
    def spec(self) -> ACIMDesignSpec:
        """The evaluated design point."""
        return self.metrics.spec

    def as_dict(self) -> dict:
        """Flat dictionary (report tables, CSV/JSON export)."""
        return self.metrics.as_dict()


@dataclass(frozen=True)
class CampaignRecord:
    """Metadata row of one named campaign.

    Attributes:
        name: unique campaign name (the resume handle).
        array_size: explored array size H * W.
        status: ``running`` / ``interrupted`` / ``completed``.
        config: NSGA-II + problem configuration as a plain dictionary.
        params_digest: digest of the model parameters the campaign uses.
        generations_done: committed generations so far.
        total_generations: configured generation budget.
        evaluations: objective evaluations consumed so far.
        runtime_seconds: accumulated wall-clock across run/resume calls.
        created_at / updated_at: UNIX timestamps.
    """

    name: str
    array_size: int
    status: str
    config: Dict
    params_digest: str
    generations_done: int
    total_generations: int
    evaluations: int
    runtime_seconds: float
    created_at: float
    updated_at: float

    def as_dict(self) -> dict:
        """Flat dictionary for the ``campaign list`` report table."""
        return {
            "name": self.name,
            "array_size": self.array_size,
            "status": self.status,
            "generations": f"{self.generations_done}/{self.total_generations}",
            "evaluations": self.evaluations,
            "runtime_s": round(self.runtime_seconds, 2),
        }


# -- the store ----------------------------------------------------------------


class ResultStore:
    """Persistent, content-addressed store of evaluated design points.

    Args:
        path: SQLite file (parent directories are created); pass
            ``":memory:"`` for an ephemeral in-process store.
        timeout: seconds a writer waits on another process's transaction
            before giving up (SQLite busy timeout).
        metrics: optional :class:`~repro.obs.MetricsRegistry` the store
            records flush/query timings into (the session attaches its
            registry here).
    """

    def __init__(
        self, path: Union[str, Path], timeout: float = 30.0, metrics=None
    ) -> None:
        self.path = str(path)
        self.metrics = metrics
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=timeout, check_same_thread=False,
                isolation_level=None,
            )
        except sqlite3.Error as error:
            raise StoreError(f"cannot open result store {self.path}: {error}")
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {int(timeout * 1000)}")
        self._initialize_schema()

    def _initialize_schema(self) -> None:
        # executescript() autocommits, so the (idempotent) DDL runs outside
        # the explicit transaction; only the version check/stamp is atomic.
        try:
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot initialize result store {self.path}: {error}"
            )
        with self._write() as conn:
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) in _MIGRATABLE_VERSIONS:
                # The DDL above already created every object the newer
                # schema adds; re-stamp the version in the same atomic
                # transaction as the check.
                conn.execute(
                    "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} has schema version {row['value']}, "
                    f"this revision supports version {SCHEMA_VERSION}"
                )

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close the SQLite connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @contextmanager
    def _write(self):
        """One atomic write transaction (``BEGIN IMMEDIATE`` ... commit).

        ``BEGIN IMMEDIATE`` takes the write lock up front so two processes
        flushing into the same store serialize cleanly instead of failing
        mid-transaction on a lock upgrade.
        """
        with self._lock:
            if self._conn is None:
                raise StoreError(f"result store {self.path} is closed")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                yield self._conn
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(f"store write failed: {error}")
            except BaseException:
                self._rollback()
                raise

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass  # BEGIN itself failed; there is no transaction to roll back

    def _read(self):
        with self._lock:
            if self._conn is None:
                raise StoreError(f"result store {self.path} is closed")
            return self._conn

    # -- evaluations -----------------------------------------------------------

    def put(self, key: Tuple, metrics: ACIMMetrics) -> int:
        """Persist one evaluation; returns 1 if it was new, else 0."""
        return self.put_many([(key, metrics)])

    def put_many(
        self, entries: Sequence[Tuple[Tuple, ACIMMetrics]]
    ) -> int:
        """Persist a batch of ``(engine cache key, metrics)`` pairs.

        The whole batch commits atomically; already-present content
        addresses are skipped (evaluations are immutable).  Returns the
        number of evaluations actually added.

        Each distinct parameter bundle is canonicalized and hashed once
        per call; a row's key digest splices the bundle's canonical text
        into the key's JSON list, which is byte-identical to
        :func:`key_digest` of the whole key.
        """
        if not entries:
            return 0
        started = time.perf_counter()
        now = time.time()
        bundles: Dict[Tuple, Tuple[str, str]] = {}
        rows = []
        for key, metrics in entries:
            spec_tuple, params_key, technology = key
            bundle = bundles.get(params_key)
            if bundle is None:
                params_json = canonical_key(params_key)
                bundle = bundles[params_key] = (
                    hashlib.sha256(params_json.encode("utf-8")).hexdigest(),
                    params_json,
                )
            params_digest, params_json = bundle
            key_json = (
                f"[{canonical_key(spec_tuple)},{params_json},"
                f"{canonical_key(technology)}]"
            )
            rows.append((
                hashlib.sha256(key_json.encode("utf-8")).hexdigest(),
                *spec_tuple,
                params_digest,
                technology,
                *(getattr(metrics, field) for field in _METRIC_FIELDS),
                now,
            ))
        with get_tracer().span("store.write", rows=len(entries)):
            with self._write() as conn:
                conn.executemany(
                    "INSERT OR IGNORE INTO param_bundles "
                    "(params_digest, params_json) VALUES (?, ?)",
                    list(bundles.values()),
                )
                before = conn.total_changes
                conn.executemany(
                    "INSERT OR IGNORE INTO evaluations ("
                    "  key_digest, height, width, local, adc_bits,"
                    "  params_digest, technology,"
                    "  snr_db, snr_total_db, tops, macs_per_second,"
                    "  energy_per_mac, tops_per_watt, area_f2_per_bit,"
                    "  total_area_um2, created_at"
                    ") VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
                added = conn.total_changes - before
        if self.metrics is not None:
            self.metrics.counter("store.put.rows").add(added)
            self.metrics.histogram("store.put.seconds").observe(
                time.perf_counter() - started
            )
        return added

    def get(self, key: Tuple) -> Optional[ACIMMetrics]:
        """Look one evaluation up by its engine cache key."""
        row = self._read().execute(
            "SELECT * FROM evaluations WHERE key_digest = ?",
            (key_digest(key),),
        ).fetchone()
        return None if row is None else _metrics_from_row(row)

    def evaluation_count(self) -> int:
        """Number of stored evaluations."""
        return self._read().execute(
            "SELECT COUNT(*) AS n FROM evaluations"
        ).fetchone()["n"]

    def __len__(self) -> int:
        return self.evaluation_count()

    # -- physical-pipeline artifacts -------------------------------------------

    def put_artifact(self, digest: str, stage: str, key, payload: dict) -> int:
        """Persist one content-addressed pipeline artifact.

        ``key`` and ``payload`` must be JSON-serializable; like
        evaluations, artifacts are immutable — a digest identifies a pure
        function application, so the first write wins and re-writes are
        no-ops.  Returns 1 when the artifact was new, else 0.
        """
        now = time.time()
        with self._write() as conn:
            before = conn.total_changes
            conn.execute(
                "INSERT OR IGNORE INTO artifacts "
                "(artifact_digest, stage, key_json, payload_json, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (digest, stage, json.dumps(key, sort_keys=True),
                 json.dumps(payload), now),
            )
            return conn.total_changes - before

    def get_artifact(self, digest: str) -> Optional[dict]:
        """Look one artifact payload up by its content address."""
        row = self._read().execute(
            "SELECT payload_json FROM artifacts WHERE artifact_digest = ?",
            (digest,),
        ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row["payload_json"])
        except ValueError as error:
            raise StoreError(f"corrupt artifact {digest}: {error}")

    def list_artifacts(self, stage: Optional[str] = None) -> List[dict]:
        """Artifact metadata rows in insertion order, optionally per stage.

        Each row carries the digest, stage, decoded key, payload size and
        creation time — enough for the ``repro library macros`` listing
        without decoding whole layout payloads.  Ordering is by rowid
        (true insertion order) rather than ``created_at``, whose
        one-second-ish resolution made same-instant writes come back in
        digest order — and therefore in a *different* order depending on
        whether a stage filter was applied.  ``created_at`` is still
        returned on every row.
        """
        sql = (
            "SELECT artifact_digest, stage, key_json, "
            "LENGTH(payload_json) AS payload_bytes, created_at FROM artifacts"
        )
        arguments: Tuple = ()
        if stage is not None:
            sql += " WHERE stage = ?"
            arguments = (stage,)
        sql += " ORDER BY rowid"
        rows = []
        for row in self._read().execute(sql, arguments):
            try:
                key = json.loads(row["key_json"])
            except ValueError as error:
                raise StoreError(
                    f"corrupt artifact key {row['artifact_digest']}: {error}"
                )
            rows.append({
                "digest": row["artifact_digest"],
                "stage": row["stage"],
                "key": key,
                "payload_bytes": row["payload_bytes"],
                "created_at": row["created_at"],
            })
        return rows

    def put_template_entry(
        self, kind: str, family_digest: str, params: Dict, artifact_digest: str
    ) -> int:
        """Index one solved macro for nearest-neighbour template lookup.

        The row maps ``(kind, family digest, structural-parameter
        vector)`` to the artifact holding the solved macro.  Like
        artifacts, entries are immutable: a parameter vector of a family
        identifies one exact solve, so the first write wins and
        concurrent writers registering the same row are no-ops.  Returns
        1 when the entry was new, else 0.
        """
        with self._write() as conn:
            before = conn.total_changes
            conn.execute(
                "INSERT OR IGNORE INTO template_index "
                "(kind, family_digest, params_json, artifact_digest, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (kind, family_digest, json.dumps(params, sort_keys=True),
                 artifact_digest, time.time()),
            )
            return conn.total_changes - before

    def list_template_entries(
        self,
        kind: Optional[str] = None,
        family_digest: Optional[str] = None,
    ) -> List[dict]:
        """Template-index rows in insertion order, optionally filtered.

        Each row carries the kind, family digest, decoded parameter
        vector and backing artifact digest; the macro library ranks them
        by edit cost to pick the nearest solved neighbour.
        """
        sql = (
            "SELECT kind, family_digest, params_json, artifact_digest, "
            "created_at FROM template_index"
        )
        clauses: List[str] = []
        arguments: List = []
        if kind is not None:
            clauses.append("kind = ?")
            arguments.append(kind)
        if family_digest is not None:
            clauses.append("family_digest = ?")
            arguments.append(family_digest)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY rowid"
        rows = []
        for row in self._read().execute(sql, arguments):
            try:
                params = json.loads(row["params_json"])
            except ValueError as error:
                raise StoreError(
                    f"corrupt template-index row "
                    f"{row['kind']}/{row['artifact_digest']}: {error}"
                )
            rows.append({
                "kind": row["kind"],
                "family_digest": row["family_digest"],
                "params": params,
                "artifact_digest": row["artifact_digest"],
                "created_at": row["created_at"],
            })
        return rows

    def template_entry_count(self) -> int:
        """Number of template-index rows."""
        return self._read().execute(
            "SELECT COUNT(*) AS n FROM template_index"
        ).fetchone()["n"]

    def artifact_count(self, stage: Optional[str] = None) -> int:
        """Number of stored artifacts (of one stage, or overall)."""
        if stage is None:
            row = self._read().execute(
                "SELECT COUNT(*) AS n FROM artifacts"
            ).fetchone()
        else:
            row = self._read().execute(
                "SELECT COUNT(*) AS n FROM artifacts WHERE stage = ?",
                (stage,),
            ).fetchone()
        return row["n"]

    # -- query ----------------------------------------------------------------

    def query(
        self,
        criteria=None,
        pareto_only: bool = True,
        rank_by: str = "tops_per_watt",
        limit: Optional[int] = None,
        offset: int = 0,
        params_digest: Optional[str] = None,
    ) -> List[StoredEvaluation]:
        """Ranked design points satisfying the given constraints.

        Args:
            criteria: a :class:`~repro.dse.distill.DistillationCriteria`
                (or any object with ``accepts(design) -> bool``); ``None``
                keeps everything.
            pareto_only: keep only points non-dominated on the Equation-12
                objective vector across the whole store (i.e. across every
                campaign that fed it).
            rank_by: metric to order by (see :data:`RANK_METRICS`).
            limit: page size — truncate the ranked list.
            offset: skip this many ranked entries first (pagination; the
                ordering is total — rank metric then spec tuple — so
                pages never overlap or skip entries between calls against
                an unchanged store).
            params_digest: restrict to one model-parameter bundle.
        """
        entries, _total = self.query_page(
            criteria=criteria,
            pareto_only=pareto_only,
            rank_by=rank_by,
            limit=limit,
            offset=offset,
            params_digest=params_digest,
        )
        return entries

    def query_page(
        self,
        criteria=None,
        pareto_only: bool = True,
        rank_by: str = "tops_per_watt",
        limit: Optional[int] = None,
        offset: int = 0,
        params_digest: Optional[str] = None,
    ) -> Tuple[List[StoredEvaluation], int]:
        """Like :meth:`query`, returning ``(page, total)``.

        ``total`` counts every entry matching the criteria/Pareto filter
        *before* pagination, so tenant-facing consumers can report page
        ``offset``..``offset + len(page)`` of ``total``.
        """
        if rank_by not in RANK_METRICS:
            raise StoreError(
                f"unknown rank metric {rank_by!r}; "
                f"expected one of {sorted(RANK_METRICS)}"
            )
        started = time.perf_counter()
        with get_tracer().span("store.query", rank_by=rank_by):
            descending = RANK_METRICS[rank_by]
            if criteria is None and not pareto_only:
                # One-pass SQL fast path: the ordering below is exactly
                # the Python sort key (rank metric, then the full spec
                # tuple) — ``reverse=True`` flips the tie-break too, so
                # every ORDER BY term shares one direction and the
                # ``idx_eval_rank_<metric>`` covering index satisfies it
                # without a temp B-tree (asserted via EXPLAIN QUERY PLAN
                # in the test suite).
                entries, total = self._query_page_sql(
                    rank_by, descending, limit, offset, params_digest
                )
            else:
                sql = "SELECT * FROM evaluations"
                arguments: Tuple = ()
                if params_digest is not None:
                    sql += " WHERE params_digest = ?"
                    arguments = (params_digest,)
                entries = [
                    _evaluation_from_row(row)
                    for row in self._read().execute(sql, arguments)
                ]
                if criteria is not None:
                    entries = [
                        entry for entry in entries if criteria.accepts(entry)
                    ]
                if pareto_only and entries:
                    from repro.dse.pareto import pareto_front

                    front = pareto_front(
                        [entry.metrics.objectives() for entry in entries]
                    )
                    entries = [entries[i] for i in front]
                entries.sort(
                    key=lambda entry: (
                        getattr(entry.metrics, rank_by),
                        entry.spec.as_tuple(),
                    ),
                    reverse=descending,
                )
                total = len(entries)
                if offset:
                    entries = entries[max(0, int(offset)):]
                if limit is not None:
                    entries = entries[: max(0, int(limit))]
        if self.metrics is not None:
            self.metrics.counter("store.query.rows").add(len(entries))
            self.metrics.histogram("store.query.seconds").observe(
                time.perf_counter() - started
            )
        return entries, total

    def _query_page_sql(
        self,
        rank_by: str,
        descending: bool,
        limit: Optional[int],
        offset: int,
        params_digest: Optional[str],
    ) -> Tuple[List[StoredEvaluation], int]:
        """Index-ordered page straight out of SQLite (no Python re-sort)."""
        conn = self._read()
        where = ""
        arguments: Tuple = ()
        if params_digest is not None:
            where = " WHERE params_digest = ?"
            arguments = (params_digest,)
        total = conn.execute(
            f"SELECT COUNT(*) AS n FROM evaluations{where}", arguments
        ).fetchone()["n"]
        direction = "DESC" if descending else "ASC"
        order = ", ".join(
            f"{column} {direction}"
            for column in (rank_by, "height", "width", "local", "adc_bits")
        )
        page_limit = -1 if limit is None else max(0, int(limit))
        entries = [
            _evaluation_from_row(row)
            for row in conn.execute(
                f"SELECT * FROM evaluations{where} ORDER BY {order} "
                "LIMIT ? OFFSET ?",
                (*arguments, page_limit, max(0, int(offset))),
            )
        ]
        return entries, total

    # -- campaigns -------------------------------------------------------------

    def create_campaign(
        self,
        name: str,
        array_size: int,
        config: Dict,
        params_digest: str,
        total_generations: int,
    ) -> None:
        """Register a new campaign; fails if the name is taken."""
        now = time.time()
        try:
            with self._write() as conn:
                conn.execute(
                    "INSERT INTO campaigns ("
                    "  name, array_size, status, config_json, params_digest,"
                    "  generations_done, total_generations, evaluations,"
                    "  runtime_seconds, created_at, updated_at"
                    ") VALUES (?, ?, 'running', ?, ?, 0, ?, 0, 0.0, ?, ?)",
                    (name, array_size, json.dumps(config, sort_keys=True),
                     params_digest, total_generations, now, now),
                )
        except StoreError as error:
            if "UNIQUE" in str(error):
                raise StoreError(
                    f"campaign {name!r} already exists in {self.path}; "
                    "use 'campaign resume' to continue it"
                )
            raise

    def get_campaign(self, name: str) -> Optional[CampaignRecord]:
        """Look a campaign up by name."""
        row = self._read().execute(
            "SELECT * FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        return None if row is None else _campaign_from_row(row)

    def require_campaign(self, name: str) -> CampaignRecord:
        """Like :meth:`get_campaign` but raising when the name is unknown."""
        record = self.get_campaign(name)
        if record is None:
            known = ", ".join(r.name for r in self.list_campaigns()) or "none"
            raise StoreError(
                f"no campaign {name!r} in {self.path} (known: {known})"
            )
        return record

    def list_campaigns(self) -> List[CampaignRecord]:
        """Every campaign, oldest first."""
        return [
            _campaign_from_row(row)
            for row in self._read().execute(
                "SELECT * FROM campaigns ORDER BY created_at, name"
            )
        ]

    def update_campaign(
        self,
        name: str,
        status: Optional[str] = None,
        generations_done: Optional[int] = None,
        evaluations: Optional[int] = None,
        add_runtime_seconds: float = 0.0,
    ) -> None:
        """Update a campaign's progress columns (only the given ones)."""
        assignments = ["updated_at = ?"]
        arguments: List = [time.time()]
        if status is not None:
            assignments.append("status = ?")
            arguments.append(status)
        if generations_done is not None:
            assignments.append("generations_done = ?")
            arguments.append(generations_done)
        if evaluations is not None:
            assignments.append("evaluations = ?")
            arguments.append(evaluations)
        if add_runtime_seconds:
            assignments.append("runtime_seconds = runtime_seconds + ?")
            arguments.append(add_runtime_seconds)
        arguments.append(name)
        with self._write() as conn:
            cursor = conn.execute(
                f"UPDATE campaigns SET {', '.join(assignments)} "
                "WHERE name = ?",
                arguments,
            )
            if cursor.rowcount == 0:
                raise StoreError(f"no campaign {name!r} in {self.path}")

    def upsert_campaign(
        self,
        name: str,
        array_size: int,
        config: Dict,
        params_digest: str,
        status: str,
        generations_done: int,
        total_generations: int,
        evaluations: int,
        runtime_seconds: float,
    ) -> None:
        """Insert-or-replace a whole campaign row (flow-result recording)."""
        now = time.time()
        with self._write() as conn:
            conn.execute(
                "INSERT INTO campaigns ("
                "  name, array_size, status, config_json, params_digest,"
                "  generations_done, total_generations, evaluations,"
                "  runtime_seconds, created_at, updated_at"
                ") VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(name) DO UPDATE SET"
                "  array_size = excluded.array_size,"
                "  status = excluded.status,"
                "  config_json = excluded.config_json,"
                "  params_digest = excluded.params_digest,"
                "  generations_done = excluded.generations_done,"
                "  total_generations = excluded.total_generations,"
                "  evaluations = excluded.evaluations,"
                "  runtime_seconds = excluded.runtime_seconds,"
                "  updated_at = excluded.updated_at",
                (name, array_size, status,
                 json.dumps(config, sort_keys=True), params_digest,
                 generations_done, total_generations, evaluations,
                 runtime_seconds, now, now),
            )

    # -- checkpoints -----------------------------------------------------------

    def save_checkpoint(
        self, name: str, generation: int, state: Dict
    ) -> None:
        """Commit one generation snapshot atomically.

        Any stale snapshots at or beyond ``generation`` (left behind by an
        earlier timeline that was resumed from an older checkpoint) are
        dropped in the same transaction, so the latest checkpoint is always
        the end of a single consistent history.  The campaign's progress
        columns advance in the same transaction, so ``campaign list`` stays
        honest even for a process killed right after the commit.
        """
        now = time.time()
        with self._write() as conn:
            conn.execute(
                "DELETE FROM checkpoints WHERE campaign = ? "
                "AND generation >= ?",
                (name, generation),
            )
            conn.execute(
                "INSERT INTO checkpoints "
                "(campaign, generation, state_json, created_at) "
                "VALUES (?, ?, ?, ?)",
                (name, generation, json.dumps(state), now),
            )
            conn.execute(
                "UPDATE campaigns SET generations_done = ?, evaluations = ?, "
                "updated_at = ? WHERE name = ?",
                (generation, int(state.get("evaluations", 0)), now, name),
            )

    def latest_checkpoint(
        self, name: str
    ) -> Optional[Tuple[int, Dict]]:
        """The newest committed ``(generation, state)`` of a campaign."""
        row = self._read().execute(
            "SELECT generation, state_json FROM checkpoints "
            "WHERE campaign = ? ORDER BY generation DESC LIMIT 1",
            (name,),
        ).fetchone()
        if row is None:
            return None
        try:
            state = json.loads(row["state_json"])
        except ValueError as error:
            raise StoreError(
                f"corrupt checkpoint for campaign {name!r} "
                f"(generation {row['generation']}): {error}"
            )
        return int(row["generation"]), state

    def checkpoint_count(self, name: Optional[str] = None) -> int:
        """Number of committed checkpoints (of one campaign, or overall)."""
        if name is None:
            row = self._read().execute(
                "SELECT COUNT(*) AS n FROM checkpoints"
            ).fetchone()
        else:
            row = self._read().execute(
                "SELECT COUNT(*) AS n FROM checkpoints WHERE campaign = ?",
                (name,),
            ).fetchone()
        return row["n"]

    # -- campaign results ------------------------------------------------------

    def save_pareto(
        self, name: str, entries: Sequence[Tuple[Tuple, ACIMMetrics]]
    ) -> None:
        """Record a campaign's final Pareto set (and persist its points)."""
        self.put_many(entries)
        with self._write() as conn:
            conn.execute(
                "DELETE FROM campaign_results WHERE campaign = ?", (name,)
            )
            conn.executemany(
                "INSERT INTO campaign_results (campaign, position, key_digest) "
                "VALUES (?, ?, ?)",
                [
                    (name, position, key_digest(key))
                    for position, (key, _metrics) in enumerate(entries)
                ],
            )

    def load_pareto(self, name: str) -> List[StoredEvaluation]:
        """A campaign's recorded Pareto set, in its recorded order."""
        return [
            _evaluation_from_row(row)
            for row in self._read().execute(
                "SELECT e.* FROM campaign_results r "
                "JOIN evaluations e ON e.key_digest = r.key_digest "
                "WHERE r.campaign = ? ORDER BY r.position",
                (name,),
            )
        ]

    # -- per-run metric snapshots ----------------------------------------------

    def put_run_metrics(self, name: str, metrics: Dict) -> int:
        """Append one campaign-run metric snapshot; returns its run index.

        Each :meth:`~repro.store.campaign._CampaignManagerCore` drive —
        initial run or resume — appends one row, so the trend of
        generations/sec and cache-hit rate across resumes is queryable
        (``campaign list`` renders it).
        """
        with self._write() as conn:
            row = conn.execute(
                "SELECT COALESCE(MAX(run_index), -1) + 1 AS next "
                "FROM run_metrics WHERE campaign = ?",
                (name,),
            ).fetchone()
            run_index = int(row["next"])
            conn.execute(
                "INSERT INTO run_metrics "
                "(campaign, run_index, created_at, metrics_json) "
                "VALUES (?, ?, ?, ?)",
                (name, run_index, time.time(),
                 json.dumps(metrics, sort_keys=True)),
            )
        return run_index

    def list_run_metrics(self, name: Optional[str] = None) -> List[Dict]:
        """Recorded per-run metric snapshots, oldest first.

        Each row is ``{"campaign", "run_index", "created_at",
        "metrics"}`` with ``metrics`` decoded back to a dictionary.
        """
        sql = (
            "SELECT campaign, run_index, created_at, metrics_json "
            "FROM run_metrics"
        )
        arguments: Tuple = ()
        if name is not None:
            sql += " WHERE campaign = ?"
            arguments = (name,)
        sql += " ORDER BY campaign, run_index"
        rows = []
        for row in self._read().execute(sql, arguments):
            try:
                decoded = json.loads(row["metrics_json"])
            except ValueError as error:
                raise StoreError(
                    f"corrupt run_metrics row for campaign "
                    f"{row['campaign']!r} (run {row['run_index']}): {error}"
                )
            rows.append({
                "campaign": row["campaign"],
                "run_index": int(row["run_index"]),
                "created_at": float(row["created_at"]),
                "metrics": decoded,
            })
        return rows

    # -- statistics ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Occupancy counters for reports and the CLI."""
        conn = self._read()
        campaigns = conn.execute(
            "SELECT COUNT(*) AS n FROM campaigns"
        ).fetchone()["n"]
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "evaluations": self.evaluation_count(),
            "campaigns": campaigns,
            "checkpoints": self.checkpoint_count(),
            "artifacts": self.artifact_count(),
            "templates": self.template_entry_count(),
        }


# -- row decoding -------------------------------------------------------------


def _metrics_from_row(row: sqlite3.Row) -> ACIMMetrics:
    spec = ACIMDesignSpec(
        row["height"], row["width"], row["local"], row["adc_bits"]
    )
    return ACIMMetrics(
        spec=spec,
        **{field: row[field] for field in _METRIC_FIELDS},
    )


def _evaluation_from_row(row: sqlite3.Row) -> StoredEvaluation:
    return StoredEvaluation(
        metrics=_metrics_from_row(row),
        key_digest=row["key_digest"],
        params_digest=row["params_digest"],
        technology=row["technology"],
        created_at=row["created_at"],
    )


def _campaign_from_row(row: sqlite3.Row) -> CampaignRecord:
    try:
        config = json.loads(row["config_json"])
    except ValueError as error:
        raise StoreError(
            f"corrupt configuration for campaign {row['name']!r}: {error}"
        )
    return CampaignRecord(
        name=row["name"],
        array_size=row["array_size"],
        status=row["status"],
        config=config,
        params_digest=row["params_digest"],
        generations_done=row["generations_done"],
        total_generations=row["total_generations"],
        evaluations=row["evaluations"],
        runtime_seconds=row["runtime_seconds"],
        created_at=row["created_at"],
        updated_at=row["updated_at"],
    )
