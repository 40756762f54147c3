"""Versioned experiment checkpoints in the data repository.

An aborted 5-hour MOST run used to be simply lost — the paper records the
premature exit at step 1493 as the outcome.  Checkpoints make the outcome
resumable: the coordinator periodically persists its serializable
:class:`~repro.coordinator.state.ExperimentState` plus the tail of
committed :class:`~repro.coordinator.records.StepRecord`\\ s since the
previous checkpoint, and a restarted coordinator reconstructs the full
history by merging every sequence.

The document is a versioned schema (``repro.checkpoint/v1``), checked
with the shared JSON-path primitives of :mod:`repro.util.schema` on
every save *and* every load so a malformed checkpoint fails immediately
instead of corrupting a resume.  All float payloads are ``float.hex()``
strings — checkpoint → restore round-trips are bit-exact.

Two stores share one API (generator-shaped ``save`` / ``load`` /
``list_seqs`` so callers uniformly ``yield from`` them):

* :class:`InMemoryCheckpointStore` — unit tests and benchmarks;
* :class:`RepositoryCheckpointStore` — the real path: each checkpoint is
  staged locally, moved to the repository host over a
  :class:`~repro.repository.transport.Transport` (GridFTP by default) and
  registered as a logical file with NFMS (Allcock et al.'s
  replica-management argument: checkpoint artifacts belong in the data
  repository, not in coordinator-local state).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Any

from repro.daq.filestore import StagingStore
from repro.net.rpc import RpcClient, RpcError
from repro.ogsi.handle import GridServiceHandle
from repro.repository.transport import Transport
from repro.util.errors import ConfigurationError, ReproError
from repro.util.schema import (
    SchemaError,
    array_of,
    count,
    envelope,
    fail,
    fields,
    mapping,
    number,
    object_of,
    one_of,
    parse_json,
    positive,
    positive_int,
    raises,
    require,
    string,
)

SCHEMA_ID = "repro.checkpoint/v1"
MANIFEST_SCHEMA_ID = "repro.checkpoint-manifest/v1"

_REASONS = ("policy", "abort", "final")
#: Mirrors :data:`repro.coordinator.state.PHASES` (kept literal here so the
#: repository layer never imports the coordinator; a test pins the two).
_PHASES = ("idle", "integrate", "propose", "execute", "commit")

_STATE_INT_KEYS = ("target_steps", "step", "generation", "checkpoint_seq")


class CheckpointSchemaError(SchemaError):
    """A checkpoint document does not match ``repro.checkpoint/v1``."""


class CheckpointCorrupt(CheckpointSchemaError):
    """A *persisted* checkpoint artifact failed to parse or validate.

    Raised by the stores' load paths when a fetched document is truncated,
    non-JSON, or schema-invalid — a typed error callers can catch, instead
    of a raw ``json.JSONDecodeError`` traceback surfacing mid-resume.
    ``run_id``/``seq`` identify the bad artifact.
    """

    def __init__(self, message: str, *, run_id: str | None = None,
                 seq: int | None = None):
        super().__init__(message)
        self.run_id = run_id
        self.seq = seq


def _parse_checkpoint(text: str, *, run_id: str, seq: int,
                      origin: str) -> dict:
    """Parse + validate one persisted document, or raise CheckpointCorrupt."""
    corrupt = functools.partial(CheckpointCorrupt, run_id=run_id, seq=seq)
    doc = parse_json(text, corrupt,
                     f"{origin}: truncated or non-JSON checkpoint")
    try:
        validate_checkpoint_payload(doc)
    except CheckpointSchemaError as exc:
        raise corrupt(f"{origin}: schema-invalid checkpoint: {exc}") from exc
    return doc


def _hex_float(value: Any, path: str) -> None:
    if not isinstance(value, str):
        fail(path, f"expected a hex float string, got {type(value).__name__}")
    try:
        float.fromhex(value)
    except (ValueError, OverflowError):
        fail(path, f"not a hex float: {value!r}")


_hex_vector = functools.partial(array_of, check=_hex_float)


def _hex_array(values: Any, path: str) -> None:
    """A float array payload: a flat hex list (1-D, the historical form)
    or a shape-tagged object (``{"shape": [...], "data": [...]}``) for an
    ensemble's higher-rank state."""
    if not isinstance(values, dict):
        _hex_vector(values, path)
        return
    shape = array_of(values.get("shape"), f"{path}.shape", positive_int,
                     nonempty=True)
    data = _hex_vector(values.get("data"), f"{path}.data")
    expected = math.prod(shape)
    require(len(data) == expected, f"{path}.data",
            f"expected {expected} values for shape {shape}, got {len(data)}")


#: a site -> transaction-name map (pending or speculative proposals)
_transactions = functools.partial(object_of, check=string)


_INTEGRATOR = {"kind": string, "step_index": count,
               "arrays": functools.partial(object_of, check=_hex_array,
                                           nonempty=True)}


@raises(CheckpointSchemaError)
def validate_state_payload(state: Any, path: str = "$.state") -> None:
    """The serialized :class:`~repro.coordinator.state.ExperimentState`."""
    mapping(state, path)
    string(state.get("run_id"), f"{path}.run_id")
    for key in _STATE_INT_KEYS:
        count(state.get(key), f"{path}.{key}")
    require(state["target_steps"] >= 1, f"{path}.target_steps",
            "must be >= 1")
    positive(state.get("dt"), f"{path}.dt")
    number(state.get("wall_started"), f"{path}.wall_started")
    one_of(state.get("phase"), f"{path}.phase", _PHASES)
    _transactions(state.get("pending"), f"{path}.pending")
    if state.get("speculative") is not None:
        _transactions(state["speculative"], f"{path}.speculative")
        count(state.get("speculative_step"), f"{path}.speculative_step")
    if state.get("integrator") is not None:
        fields(state["integrator"], f"{path}.integrator", _INTEGRATOR)


def _site_force(value: Any, path: str) -> None:
    if isinstance(value, list):
        _hex_vector(value, path)  # ensemble batch: one force per variant
    else:
        _hex_float(value, path)


_RECORD = {"step": positive_int, "attempts": positive_int,
           "model_time": number, "wall_started": number,
           "wall_finished": number, "displacement": _hex_array,
           "restoring_force": _hex_array,
           "site_forces": functools.partial(
               object_of, check=functools.partial(object_of,
                                                  check=_site_force))}


@raises(CheckpointSchemaError)
def validate_record_payload(record: Any, path: str = "record") -> None:
    """One serialized :class:`~repro.coordinator.records.StepRecord`."""
    fields(record, path, _RECORD)


@raises(CheckpointSchemaError)
def validate_checkpoint_payload(payload: Any) -> None:
    """A full checkpoint document.

    Shape::

        {"schema": "repro.checkpoint/v1", "run_id": "...", "seq": 1,
         "wall_time": 12.3, "reason": "policy" | "abort" | "final",
         "state": {...}, "records": [...]}
    """
    envelope(payload, SCHEMA_ID)
    string(payload.get("run_id"), "$.run_id")
    positive_int(payload.get("seq"), "$.seq")
    number(payload.get("wall_time"), "$.wall_time")
    one_of(payload.get("reason"), "$.reason", _REASONS)
    validate_state_payload(payload.get("state"))
    array_of(payload.get("records"), "$.records", _RECORD)
    require(payload["state"]["run_id"] == payload["run_id"],
            "$.state.run_id", "must match the document run_id")


@raises(CheckpointSchemaError)
def validate_manifest_payload(payload: Any) -> None:
    """A checkpoint manifest document.

    Shape::

        {"schema": "repro.checkpoint-manifest/v1", "run_id": "...",
         "seq": 3, "seqs": [1, 2, 3], "latest": {checkpoint doc},
         "records": [merged record payloads, ascending by step]}

    ``records`` is the full last-written-per-step merge across every
    sequence in ``seqs`` — what :meth:`CheckpointStoreBase.load_history`
    would otherwise recompute by refetching each document.
    """
    envelope(payload, MANIFEST_SCHEMA_ID)
    string(payload.get("run_id"), "$.run_id")
    positive_int(payload.get("seq"), "$.seq")
    seqs = array_of(payload.get("seqs"), "$.seqs", positive_int,
                    nonempty=True)
    for i in range(1, len(seqs)):
        require(seqs[i] > seqs[i - 1], f"$.seqs[{i}]",
                "must be strictly ascending")
    require(seqs[-1] == payload["seq"], "$.seq",
            "must equal the highest entry of seqs")
    validate_checkpoint_payload(payload.get("latest"))
    require(payload["latest"]["run_id"] == payload["run_id"],
            "$.latest.run_id", "must match the manifest run_id")
    require(payload["latest"]["seq"] == payload["seq"],
            "$.latest.seq", "must match the manifest seq")
    records = array_of(payload.get("records"), "$.records", _RECORD)
    for i in range(1, len(records)):
        require(records[i]["step"] > records[i - 1]["step"],
                f"$.records[{i}].step", "must be strictly ascending")


def build_checkpoint_doc(*, run_id: str, seq: int, wall_time: float,
                         reason: str, state_payload: dict,
                         record_payloads: list) -> dict:
    """Assemble and validate a checkpoint document."""
    doc = {
        "schema": SCHEMA_ID,
        "run_id": run_id,
        "seq": int(seq),
        "wall_time": float(wall_time),
        "reason": reason,
        "state": state_payload,
        "records": list(record_payloads),
    }
    validate_checkpoint_payload(doc)
    return doc


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint.

    ``every_n_steps=0`` disables periodic checkpoints (an abort-time
    checkpoint may still be written when ``on_abort`` is set); ``on_abort``
    controls the best-effort final checkpoint the coordinator writes while
    aborting, which captures the in-flight step's pending transaction
    names for reconciliation.
    """

    every_n_steps: int = 50
    on_abort: bool = True

    def __post_init__(self):
        if self.every_n_steps < 0:
            raise ConfigurationError("every_n_steps must be >= 0")

    def due(self, step: int) -> bool:
        """Checkpoint after committing ``step``?"""
        return self.every_n_steps > 0 and step % self.every_n_steps == 0


class CheckpointStoreBase:
    """Shared history-merging logic over ``save``/``list_seqs``/``load``.

    All three primitives are kernel-process generators (``yield from``
    them), even where a concrete store completes synchronously — callers
    should not care which store they hold.
    """

    def save(self, doc: dict):
        raise NotImplementedError

    def list_seqs(self, run_id: str):
        raise NotImplementedError

    def load(self, run_id: str, seq: int):
        raise NotImplementedError

    def load_latest(self, run_id: str):
        """Kernel process: the newest *loadable* document, or ``None``.

        A corrupt highest-seq document (truncated write from a crashed
        incarnation) is skipped in favour of the next-newest valid one —
        resume degrades to an older checkpoint instead of dying on a
        parse error.
        """
        seqs = yield from self.list_seqs(run_id)
        for seq in sorted(seqs, reverse=True):
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt:
                continue
            return doc
        return None

    def load_history(self, run_id: str):
        """Kernel process: ``(latest_doc, merged_record_payloads)``.

        Each checkpoint carries only the record tail since the previous
        one; the merge walks every sequence in order and keeps the
        last-written payload per step, truncated to the latest document's
        resume step (records at or past it belong to the aborted attempt).
        """
        seqs = yield from self.list_seqs(run_id)
        if not seqs:
            return None, []
        merged: dict[int, dict] = {}
        latest = None
        for seq in sorted(seqs):
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt:
                # A truncated artifact must not kill the resume; the
                # merge continues from the remaining valid documents.
                continue
            for record in doc["records"]:
                merged[int(record["step"])] = record
            latest = doc
        if latest is None:
            return None, []
        resume_step = int(latest["state"]["step"])
        records = [merged[s] for s in sorted(merged) if s < resume_step]
        return latest, records


class InMemoryCheckpointStore(CheckpointStoreBase):
    """Coordinator-local store for unit tests and overhead benchmarks.

    Documents still pass full schema validation and a JSON round-trip on
    save, so anything that works here works against the repository store.
    """

    def __init__(self):
        self._runs: dict[str, dict[int, str]] = {}

    def save(self, doc: dict):
        validate_checkpoint_payload(doc)
        run = self._runs.setdefault(doc["run_id"], {})
        seq = int(doc["seq"])
        if seq in run:
            raise ConfigurationError(
                f"checkpoint seq {seq} already saved for run "
                f"{doc['run_id']!r}")
        run[seq] = json.dumps(doc, sort_keys=True)
        return seq
        yield  # pragma: no cover - generator shape, parity with repo store

    def list_seqs(self, run_id: str):
        return sorted(self._runs.get(run_id, {}))
        yield  # pragma: no cover - generator shape, parity with repo store

    def load(self, run_id: str, seq: int):
        run = self._runs.get(run_id, {})
        if seq not in run:
            raise ConfigurationError(
                f"no checkpoint seq {seq} for run {run_id!r}")
        return _parse_checkpoint(run[seq], run_id=run_id, seq=seq,
                                 origin=f"memory:{run_id}/{seq}")
        yield  # pragma: no cover - generator shape, parity with repo store


class RepositoryCheckpointStore(CheckpointStoreBase):
    """Checkpoints as logical files in the central data repository.

    Save: serialize → stage on the coordinator host → move to the
    repository host with the configured transport → ``registerFile`` with
    NFMS under ``checkpoints/<run_id>/<seq>.json``.  Load: ``listFiles``
    by prefix, ``negotiateTransfer`` per document, pull the replica back
    to a local staging store, parse and re-validate.

    Unless ``manifest_enabled=False``, every save also writes a cumulative
    manifest (``checkpoints/<run_id>/manifest/<seq>.json``,
    ``repro.checkpoint-manifest/v1``) holding the latest document plus the
    merged record history, so :meth:`load_history` on resume costs one
    document fetch instead of one per sequence.  NFMS logical names are
    immutable, hence one manifest per sequence; a manifest write failure
    is logged, never fatal — the per-sequence documents remain the source
    of truth and :meth:`load_history` falls back to walking them.

    Unless ``compaction_enabled=False``, a successful manifest write also
    retires what it supersedes: per-sequence documents and manifests
    below the new manifest's sequence are unregistered from NFMS and
    dropped from the repository store.  Each removal is individually
    best-effort — a failure leaves an orphaned document behind, never an
    unreadable history — and :meth:`load_history` tolerates partially
    compacted runs by seeding the merge from the newest manifest and
    walking only the per-sequence documents newer than it.
    """

    def __init__(self, *, host: str, repo_host: str,
                 repo_store: StagingStore, transport: Transport,
                 rpc: RpcClient, nfms: GridServiceHandle,
                 staging: StagingStore | None = None,
                 manifest_enabled: bool = True,
                 compaction_enabled: bool = True):
        self.host = host
        self.repo_host = repo_host
        self.repo_store = repo_store
        self.transport = transport
        self.rpc = rpc
        self.nfms = nfms
        self.kernel = transport.kernel
        self.staging = staging or StagingStore(name=f"{host}-checkpoints")
        self.manifest_enabled = manifest_enabled
        self.compaction_enabled = compaction_enabled
        self.saved = 0
        self.loaded = 0
        self.manifest_saved = 0
        self.manifest_fetches = 0
        self.compacted = 0
        self._fetches = 0
        #: run_id -> step -> record payload (the manifest merge, cached)
        self._merged: dict[str, dict[int, dict]] = {}
        self._known_seqs: dict[str, list[int]] = {}
        #: run_id -> highest seq whose superseded documents were retired
        self._compacted_upto: dict[str, int] = {}

    @staticmethod
    def _prefix(run_id: str) -> str:
        return f"checkpoints/{run_id}/"

    def _logical(self, run_id: str, seq: int) -> str:
        return f"{self._prefix(run_id)}{seq:06d}.json"

    def _manifest_prefix(self, run_id: str) -> str:
        return f"{self._prefix(run_id)}manifest/"

    def _manifest_logical(self, run_id: str, seq: int) -> str:
        return f"{self._manifest_prefix(run_id)}{seq:06d}.json"

    def _nfms_call(self, operation: str, params: dict):
        reply = yield from self.rpc.call(
            self.nfms.host, self.nfms.port, "invoke",
            {"service_id": self.nfms.service_id, "operation": operation,
             "params": params})
        return reply

    def save(self, doc: dict):
        """Kernel process: persist one checkpoint document."""
        validate_checkpoint_payload(doc)
        name = self._logical(doc["run_id"], int(doc["seq"]))
        text = json.dumps(doc, sort_keys=True)
        staged = self.staging.deposit(name, [(float(doc["seq"]), text)],
                                      created=self.kernel.now)
        yield from self.transport.transfer(
            self.host, self.repo_host, staged, self.repo_store,
            dst_name=name)
        yield from self._nfms_call("registerFile", {
            "logical_name": name, "host": self.repo_host,
            "store": self.repo_store.name, "size": staged.size,
            "checksum": staged.checksum})
        self.saved += 1
        if self.manifest_enabled:
            try:
                yield from self._write_manifest(doc)
            except (RpcError, ReproError) as exc:
                self.kernel.emit("repository.checkpoint", "manifest.failed",
                                 run_id=doc["run_id"], seq=int(doc["seq"]),
                                 error=str(exc))
            else:
                if self.compaction_enabled:
                    yield from self._compact(doc["run_id"], int(doc["seq"]))
        return int(doc["seq"])

    def _write_manifest(self, doc: dict):
        """Kernel process: persist the cumulative manifest for ``doc``."""
        run_id = doc["run_id"]
        seq = int(doc["seq"])
        if run_id not in self._merged and seq > 1:
            # A fresh store incarnation extending an existing run (e.g.
            # the resumed coordinator): seed the merge from the prior
            # manifest before folding the new document in.
            prior = yield from self._load_latest_manifest(run_id)
            if prior is not None:
                self._merged[run_id] = {int(r["step"]): r
                                        for r in prior["records"]}
                self._known_seqs[run_id] = [int(s) for s in prior["seqs"]]
        merged = self._merged.setdefault(run_id, {})
        for record in doc["records"]:
            merged[int(record["step"])] = record
        seqs = self._known_seqs.setdefault(run_id, [])
        if seq not in seqs:
            seqs.append(seq)
            seqs.sort()
        manifest = {"schema": MANIFEST_SCHEMA_ID, "run_id": run_id,
                    "seq": seq, "seqs": list(seqs), "latest": doc,
                    "records": [merged[step] for step in sorted(merged)]}
        validate_manifest_payload(manifest)
        name = self._manifest_logical(run_id, seq)
        text = json.dumps(manifest, sort_keys=True)
        staged = self.staging.deposit(name, [(float(seq), text)],
                                      created=self.kernel.now)
        yield from self.transport.transfer(
            self.host, self.repo_host, staged, self.repo_store,
            dst_name=name)
        yield from self._nfms_call("registerFile", {
            "logical_name": name, "host": self.repo_host,
            "store": self.repo_store.name, "size": staged.size,
            "checksum": staged.checksum})
        self.manifest_saved += 1

    def _compact(self, run_id: str, upto_seq: int):
        """Kernel process: retire documents superseded by manifest ``upto_seq``.

        The manifest at ``upto_seq`` carries the merged record history and
        the latest state, so every older per-sequence document — and every
        older manifest — is redundant.  Removals are individually
        best-effort; seqs already retired by a prior call are skipped.
        """
        start = self._compacted_upto.get(run_id, 0)
        removed = 0
        for seq in [s for s in self._known_seqs.get(run_id, [])
                    if start < s < upto_seq]:
            for name in (self._logical(run_id, seq),
                         self._manifest_logical(run_id, seq)):
                ok = yield from self._remove_logical(name)
                removed += 1 if ok else 0
        self._compacted_upto[run_id] = max(start, upto_seq - 1)
        if removed:
            self.compacted += removed
            self.kernel.emit("repository.checkpoint", "compacted",
                             run_id=run_id, upto_seq=upto_seq,
                             removed=removed)

    def _remove_logical(self, name: str):
        """Kernel process: unregister + drop one logical file, best-effort."""
        try:
            yield from self._nfms_call("unregisterFile",
                                       {"logical_name": name})
        except (RpcError, ReproError):
            return False
        if self.repo_store.exists(name):
            self.repo_store.remove(name)
        return True

    def _load_latest_manifest(self, run_id: str):
        """Kernel process: the newest *valid* manifest document, or ``None``.

        Walks manifests newest-first and skips any that fetch back
        truncated or schema-invalid (a crash mid-write leaves exactly
        this) — resume falls back to the newest manifest that still
        parses instead of surfacing a JSON traceback.
        """
        prefix = self._manifest_prefix(run_id)
        names = yield from self._nfms_call("listFiles", {"prefix": prefix})
        seqs = []
        for name in names:
            stem = name[len(prefix):]
            if stem.endswith(".json"):
                try:
                    seqs.append(int(stem[:-len(".json")]))
                except ValueError:
                    continue
        for seq in sorted(seqs, reverse=True):
            name = self._manifest_logical(run_id, seq)
            negotiated = yield from self._nfms_call("negotiateTransfer", {
                "logical_name": name,
                "client_protocols": [self.transport.protocol]})
            replica = negotiated["replica"]
            self.manifest_fetches += 1
            local_name = f"{name}#fetch{self.manifest_fetches}"
            yield from self.transport.transfer(
                replica["host"], self.host, self.repo_store.get(name),
                self.staging, dst_name=local_name)
            rows = self.staging.get(local_name).rows
            try:
                manifest = parse_json(
                    rows[0][1] if rows else "", CheckpointSchemaError,
                    f"{name}: truncated or non-JSON manifest")
                validate_manifest_payload(manifest)
            except CheckpointSchemaError as exc:
                self.kernel.emit("repository.checkpoint", "manifest.corrupt",
                                 run_id=run_id, seq=seq, error=str(exc))
                continue
            return manifest
        return None

    def load_history(self, run_id: str):
        """Kernel process: one manifest fetch instead of a sequence walk.

        When the newest manifest is *stale* (a later checkpoint exists
        whose manifest write failed), the merge is seeded from the
        manifest and only per-sequence documents newer than it are
        walked — compaction may already have dropped the older ones.
        Only with manifests disabled or absent entirely does this fall
        back to the full walk of
        :meth:`CheckpointStoreBase.load_history`.
        """
        seqs = yield from self.list_seqs(run_id)
        if not seqs:
            return None, []
        manifest = None
        if self.manifest_enabled:
            manifest = yield from self._load_latest_manifest(run_id)
        if manifest is None:
            result = yield from CheckpointStoreBase.load_history(self, run_id)
            return result
        merged = {int(r["step"]): r for r in manifest["records"]}
        latest = manifest["latest"]
        known = [int(s) for s in manifest["seqs"]]
        for seq in [s for s in seqs if s > int(manifest["seq"])]:
            try:
                doc = yield from self.load(run_id, seq)
            except CheckpointCorrupt as exc:
                self.kernel.emit("repository.checkpoint",
                                 "checkpoint.corrupt", run_id=run_id,
                                 seq=seq, error=str(exc))
                continue
            for record in doc["records"]:
                merged[int(record["step"])] = record
            latest = doc
            known.append(seq)
        self._merged[run_id] = merged
        self._known_seqs[run_id] = sorted(set(known))
        resume_step = int(latest["state"]["step"])
        records = [merged[s] for s in sorted(merged) if s < resume_step]
        return latest, records

    def list_seqs(self, run_id: str):
        """Kernel process: registered checkpoint sequences for a run."""
        prefix = self._prefix(run_id)
        names = yield from self._nfms_call("listFiles", {"prefix": prefix})
        seqs = []
        for name in names:
            stem = name[len(prefix):]
            if stem.endswith(".json"):
                try:
                    seqs.append(int(stem[:-len(".json")]))
                except ValueError:
                    continue
        return sorted(seqs)

    def load(self, run_id: str, seq: int):
        """Kernel process: fetch one checkpoint document back."""
        name = self._logical(run_id, seq)
        negotiated = yield from self._nfms_call("negotiateTransfer", {
            "logical_name": name,
            "client_protocols": [self.transport.protocol]})
        replica = negotiated["replica"]
        self._fetches += 1
        local_name = f"{name}#fetch{self._fetches}"
        yield from self.transport.transfer(
            replica["host"], self.host, self.repo_store.get(name),
            self.staging, dst_name=local_name)
        rows = self.staging.get(local_name).rows
        doc = _parse_checkpoint(rows[0][1] if rows else "", run_id=run_id,
                                seq=seq, origin=name)
        self.loaded += 1
        return doc
