"""The experiment queue's write-ahead journal (``repro.queue/v1``).

Every durable fact about the ingress queue is one appended journal entry:
a caller *submitted* an experiment (keyed by its own submission id, the
dedupe key), a scheduler incarnation *registered* a fencing epoch, an
incarnation *claimed* a submission onto leased sites, a claimed run
reached a *terminal* state.  Queue state is never stored — it is always
reconstructed by replaying the journal in sequence order, which is what
makes a fleet-scheduler crash survivable: the successor replays, sees
claimed-but-unterminated submissions, and redelivers them.

Entries are versioned documents checked with the shared JSON-path
primitives of :mod:`repro.util.schema`, like the checkpoint
(``repro.checkpoint/v1``) and telemetry schemas, on every append *and*
every replay.

Three stores share one generator-shaped API (``append`` / ``replay``):

* :class:`InMemoryJournalStore` — unit tests and fast benchmarks;
* :class:`RepositoryJournalStore` — the real path: each entry is staged,
  moved to the repository host over a transport, and registered with NFMS
  under ``queue/<name>/<seq>.json`` (the Allcock et al. discipline again:
  durable coordination state belongs in the data repository);
* :class:`FileJournalStore` — a JSONL file on the local disk, for the
  ``repro queue`` CLI where no simulated repository exists.
"""

from __future__ import annotations

import functools
import json
import pathlib
from typing import Any

from repro.daq.filestore import StagingStore
from repro.net.retry import RetryPolicy
from repro.net.rpc import RpcClient
from repro.ogsi.handle import GridServiceHandle
from repro.repository.transport import Transport
from repro.util.errors import ConfigurationError, ProtocolError
from repro.util.schema import (
    SchemaError,
    array_of,
    count,
    envelope,
    fields,
    number,
    one_of,
    parse_json,
    positive,
    positive_int,
    raises,
    string,
)

QUEUE_SCHEMA_ID = "repro.queue/v1"

#: journal entry vocabulary, in lifecycle order
ENTRY_KINDS = ("submit", "epoch", "claim", "terminal")
#: terminal statuses a claim can reach
TERMINAL_STATUSES = ("completed", "failed")


class QueueSchemaError(SchemaError):
    """A queue journal entry does not match ``repro.queue/v1``."""


#: the ``body`` of each entry kind
_BODIES = {
    "submit": {"submission_id": string, "tenant": string, "run_id": string,
               "n_steps": positive_int, "n_sites": positive_int,
               "motion_scale": positive, "checkpoint_every": count},
    "epoch": {"epoch": positive_int, "scheduler_id": string},
    "claim": {"submission_id": string, "epoch": positive_int,
              "attempt": positive_int,
              "sites": functools.partial(array_of, check=string,
                                         nonempty=True)},
    "terminal": {"submission_id": string, "epoch": positive_int,
                 "status": functools.partial(one_of,
                                             choices=TERMINAL_STATUSES),
                 "steps": count},
}


@raises(QueueSchemaError)
def validate_queue_entry(payload: Any) -> None:
    """One journal entry.

    Shape::

        {"schema": "repro.queue/v1", "seq": 7, "time": 12.5,
         "kind": "submit" | "epoch" | "claim" | "terminal",
         "body": {kind-specific fields}}
    """
    envelope(payload, QUEUE_SCHEMA_ID)
    positive_int(payload.get("seq"), "$.seq")
    number(payload.get("time"), "$.time")
    kind = one_of(payload.get("kind"), "$.kind", ENTRY_KINDS)
    fields(payload.get("body"), "$.body", _BODIES[kind])


def build_entry(*, seq: int, time: float, kind: str, body: dict) -> dict:
    """Assemble and validate one journal entry."""
    entry = {"schema": QUEUE_SCHEMA_ID, "seq": int(seq),
             "time": float(time), "kind": kind, "body": dict(body)}
    validate_queue_entry(entry)
    return entry


class JournalStoreBase:
    """Shared journal API: generator-shaped ``append`` and ``replay``.

    ``append(kind, body, time)`` assigns the next sequence number,
    validates, persists, and returns the stamped entry; ``replay()``
    returns every entry in ascending sequence order.  Both are kernel
    processes (``yield from`` them) even where a concrete store completes
    synchronously, so callers never care which store they hold.
    """

    def append(self, kind: str, body: dict, *, time: float):
        raise NotImplementedError

    def replay(self):
        raise NotImplementedError


class InMemoryJournalStore(JournalStoreBase):
    """Journal kept as JSON strings in memory (tests, fast benchmarks).

    Entries still pass full schema validation and a JSON round-trip on
    append, so anything that works here works against the repository
    store.
    """

    def __init__(self):
        self._entries: list[str] = []

    def append(self, kind: str, body: dict, *, time: float):
        entry = build_entry(seq=len(self._entries) + 1, time=time,
                            kind=kind, body=body)
        self._entries.append(json.dumps(entry, sort_keys=True))
        return entry
        yield  # pragma: no cover - generator shape, parity with repo store

    def replay(self):
        entries = [json.loads(text) for text in self._entries]
        for entry in entries:
            validate_queue_entry(entry)
        return entries
        yield  # pragma: no cover - generator shape, parity with repo store


class FileJournalStore(JournalStoreBase):
    """Journal as a JSONL file on the local filesystem (the CLI path).

    One validated entry per line, appended with a flush per write.  This
    is the only store that outlives the process — ``repro queue submit``
    runs append, exits, and a later ``repro queue drain`` replays the
    same file into a simulated campaign.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self._next_seq: int | None = None

    def _read(self) -> list[dict]:
        """Every persisted entry, parsed and validated, in file order."""
        if not self.path.exists():
            return []
        entries = []
        for line in self.path.read_text().splitlines():
            if line.strip():
                entry = parse_json(line, QueueSchemaError,
                                   f"{self.path}: corrupt journal line")
                validate_queue_entry(entry)
                entries.append(entry)
        return entries

    def _scan(self) -> int:
        """Highest persisted seq (0 for a fresh journal)."""
        last = 0
        for entry in self._read():
            if entry["seq"] <= last:
                raise QueueSchemaError(
                    f"{self.path}: seq {entry['seq']} not ascending")
            last = entry["seq"]
        return last

    def append(self, kind: str, body: dict, *, time: float):
        if self._next_seq is None:
            self._next_seq = self._scan() + 1
        entry = build_entry(seq=self._next_seq, time=time, kind=kind,
                            body=body)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._next_seq += 1
        return entry
        yield  # pragma: no cover - generator shape, parity with repo store

    def replay(self):
        return self._read()
        yield  # pragma: no cover - generator shape, parity with repo store


class RepositoryJournalStore(JournalStoreBase):
    """Journal entries as logical files in the central data repository.

    Append: serialize → stage on ``host`` → move to ``repo_host`` with the
    configured transport → ``registerFile`` with NFMS under
    ``queue/<name>/<seq:06d>.json``.  Replay: ``listFiles`` by prefix,
    ``negotiateTransfer`` + pull per entry, parse and re-validate.

    Every repository hop runs under ``retry`` (a
    :class:`~repro.net.retry.RetryPolicy`), so a bounded repository outage
    during a submit or claim delays the append instead of losing it —
    at-least-once delivery starts at the journal.
    """

    def __init__(self, *, name: str, host: str, repo_host: str,
                 repo_store: StagingStore, transport: Transport,
                 rpc: RpcClient, nfms: GridServiceHandle,
                 staging: StagingStore | None = None,
                 retry: RetryPolicy | None = None):
        if not name:
            raise ConfigurationError("a repository journal needs a name")
        self.name = name
        self.host = host
        self.repo_host = repo_host
        self.repo_store = repo_store
        self.transport = transport
        self.rpc = rpc
        self.nfms = nfms
        self.kernel = transport.kernel
        self.staging = staging or StagingStore(name=f"{host}-queue-journal")
        self.retry = retry or RetryPolicy(max_attempts=5, base_delay=2.0,
                                          factor=2.0, max_delay=60.0,
                                          jitter=0.25)
        self.appended = 0
        self.replayed = 0
        self._fetches = 0
        self._next_seq: int | None = None

    @property
    def _prefix(self) -> str:
        return f"queue/{self.name}/"

    def _logical(self, seq: int) -> str:
        return f"{self._prefix}{seq:06d}.json"

    def _nfms_call(self, operation: str, params: dict):
        reply = yield from self.retry.call(
            self.kernel,
            lambda: self.rpc.call(
                self.nfms.host, self.nfms.port, "invoke",
                {"service_id": self.nfms.service_id, "operation": operation,
                 "params": params}),
            key=f"queue.{self.name}.{operation}")
        return reply

    def _list_seqs(self):
        names = yield from self._nfms_call("listFiles",
                                           {"prefix": self._prefix})
        seqs = []
        for name in names:
            stem = name[len(self._prefix):]
            if stem.endswith(".json"):
                try:
                    seqs.append(int(stem[:-len(".json")]))
                except ValueError:
                    continue
        return sorted(seqs)

    def append(self, kind: str, body: dict, *, time: float):
        """Kernel process: persist one entry; returns the stamped entry."""
        if self._next_seq is None:
            seqs = yield from self._list_seqs()
            # Another append may have seeded the counter while we listed.
            if self._next_seq is None:
                self._next_seq = (seqs[-1] + 1) if seqs else 1
        # Reserve the seq before yielding again: concurrent appends (two
        # drive processes journaling claims) must never share a number.
        seq = self._next_seq
        self._next_seq += 1
        entry = build_entry(seq=seq, time=time, kind=kind, body=body)
        name = self._logical(entry["seq"])
        text = json.dumps(entry, sort_keys=True)
        staged = self.staging.deposit(name, [(float(entry["seq"]), text)],
                                      created=self.kernel.now)
        yield from self.retry.call(
            self.kernel,
            lambda: self.transport.transfer(
                self.host, self.repo_host, staged, self.repo_store,
                dst_name=name),
            key=f"queue.{self.name}.transfer.{entry['seq']}")
        yield from self._nfms_call("registerFile", {
            "logical_name": name, "host": self.repo_host,
            "store": self.repo_store.name, "size": staged.size,
            "checksum": staged.checksum})
        self.appended += 1
        return entry

    def _fetch(self, seq: int):
        name = self._logical(seq)
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
        entry = parse_json(rows[0][1] if rows else "", QueueSchemaError,
                           f"{name}: corrupt journal entry")
        validate_queue_entry(entry)
        if entry["seq"] != seq:
            raise ProtocolError(
                f"journal entry {name} carries seq {entry['seq']}")
        return entry

    def replay(self):
        """Kernel process: every journal entry, ascending by sequence."""
        seqs = yield from self._list_seqs()
        entries = []
        for seq in seqs:
            entry = yield from self._fetch(seq)
            entries.append(entry)
        self.replayed += 1
        return entries
