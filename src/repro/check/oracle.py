"""The differential consistency oracle.

The oracle's mirror clients replicate the client-side protocol exactly
as :class:`repro.core.client.Client` implements it — apply every
delivered update in wire order, roll back to the committed answer on
wakeup, commit on the server's commit notifications — but they feed off
the link's delivery observer instead of draining the inbox, so a real
client (or no client at all) can coexist with the oracle on the same
link.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.check.reference import true_answer
from repro.core.server import LocationAwareServer
from repro.core.updates import Update, diff_answers
from repro.net.messages import FullAnswerMessage, Message, UpdateMessage


@dataclass(frozen=True, slots=True)
class Divergence:
    """One detected consistency violation.

    ``kind`` is the check that failed (``replay`` / ``snapshot`` /
    ``commit`` / ``desync``); ``oids`` is the symmetric difference
    between the two answer derivations — for ``replay``, the objects
    whose updates in the cycle's stream differ from the query's net
    change — so the report names exactly the objects the two sides
    disagree about.
    """

    kind: str
    cycle: int
    qid: int
    client_id: int
    oids: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] cycle={self.cycle} qid={self.qid} "
            f"client={self.client_id} oids={list(self.oids)}: {self.detail}"
        )


@dataclass(slots=True)
class _MirrorClient:
    """Protocol-faithful replica of one client's answer state."""

    answers: dict[int, set[int]] = field(default_factory=dict)
    committed: dict[int, frozenset[int]] = field(default_factory=dict)
    #: True once any downlink message was lost since the last completed
    #: recovery — the client may legitimately differ from the engine.
    lossy: bool = False


class ConsistencyOracle:
    """Cross-checks a live server against independent re-derivations.

    Attach it *after* registering clients (or call :meth:`watch_client`
    for late arrivals); per cycle, bracket the evaluation with
    :meth:`begin_cycle` / :meth:`end_cycle`::

        oracle = ConsistencyOracle(server)
        for cycle, now in enumerate(times):
            oracle.begin_cycle()
            result = server.evaluate_cycle(now)
            divergences = oracle.end_cycle(cycle, result.updates)

    A clean run reports no divergences and leaves
    ``oracle_divergence_total`` at zero.
    """

    def __init__(self, server: LocationAwareServer):
        self.server = server
        self.divergences: list[Divergence] = []
        self._mirrors: dict[int, _MirrorClient] = {}
        self._prev_answers: dict[int, frozenset[int]] = {}
        self._m_checks = server.registry.counter("oracle_checks_total")
        server.add_observer(self)
        for client_id in server.client_ids():
            self.watch_client(client_id)

    def watch_client(self, client_id: int) -> None:
        """Start mirroring ``client_id``'s downlink."""
        if client_id in self._mirrors:
            return
        self._mirrors[client_id] = _MirrorClient()
        self.server.link_of(client_id).delivery_observer = self._on_delivery

    # ------------------------------------------------------------------
    # Wire + protocol observation (called by the server/link, not users)
    # ------------------------------------------------------------------

    def _on_delivery(
        self, client_id: int, message: Message, delivered: bool
    ) -> None:
        mirror = self._mirrors[client_id]
        if not delivered:
            mirror.lossy = True
            return
        if isinstance(message, UpdateMessage):
            answer = mirror.answers.setdefault(message.qid, set())
            if message.sign == 1:
                answer.add(message.oid)
            else:
                answer.discard(message.oid)
        elif isinstance(message, FullAnswerMessage):
            mirror.answers[message.qid] = set(message.oids)

    def on_wakeup_begin(self, client_id: int) -> None:
        """The client rolls back to committed state before recovery."""
        mirror = self._mirrors.get(client_id)
        if mirror is None:
            return
        for qid in self.server.queries_of(client_id):
            mirror.answers[qid] = set(mirror.committed.get(qid, frozenset()))
        mirror.lossy = False

    def on_wakeup_end(self, client_id: int) -> None:
        """Recovery completed: the post-recovery answers are committed."""
        mirror = self._mirrors.get(client_id)
        if mirror is None:
            return
        for qid in self.server.queries_of(client_id):
            mirror.committed[qid] = frozenset(
                mirror.answers.get(qid, frozenset())
            )

    def on_commit(self, qid: int) -> None:
        mirror = self._mirrors.get(self.server.client_of(qid))
        if mirror is None:
            return
        mirror.committed[qid] = frozenset(mirror.answers.get(qid, frozenset()))

    # ------------------------------------------------------------------
    # Mirror introspection
    # ------------------------------------------------------------------

    def mirror_answer(self, client_id: int, qid: int) -> frozenset[int]:
        """What the mirrored client currently holds for ``qid``."""
        return frozenset(self._mirrors[client_id].answers.get(qid, frozenset()))

    def in_sync(self, client_id: int) -> bool:
        """True when the mirror matches the engine on every owned query."""
        engine = self.server.engine
        return all(
            self.mirror_answer(client_id, qid) == engine.answer_of(qid)
            for qid in self.server.queries_of(client_id)
        )

    # ------------------------------------------------------------------
    # Per-cycle checking
    # ------------------------------------------------------------------

    def begin_cycle(self) -> None:
        """Capture the pre-cycle engine answers for the replay check."""
        self._prev_answers = self.server.engine.complete_answers()

    def end_cycle(self, cycle: int, updates: list[Update]) -> list[Divergence]:
        """Run all four checks; returns (and accumulates) divergences.

        The first divergence trips the server's flight recorder: the
        last-N protocol events leading to the inconsistency are exactly
        what the ring holds.
        """
        found: list[Divergence] = []
        with self.server.tracer.span("oracle_check"):
            self._check_replay(cycle, updates, found)
            self._check_snapshot(cycle, found)
            self._check_commit(cycle, found)
            self._check_desync(cycle, found)
        self._m_checks.inc()
        recorder = self.server.recorder
        recorder.record(
            "oracle_check", oracle_cycle=cycle, divergences=len(found)
        )
        for divergence in found:
            self.server.registry.counter(
                "oracle_divergence_total", labels={"kind": divergence.kind}
            ).inc()
            recorder.record(
                "oracle_divergence",
                check=divergence.kind,
                qid=divergence.qid,
                client=divergence.client_id,
                oids=list(divergence.oids),
            )
        if found:
            recorder.trigger(
                "oracle_divergence",
                check=found[0].kind,
                qid=found[0].qid,
            )
        self.divergences.extend(found)
        return found

    # -- the four checks ----------------------------------------------

    def _check_replay(
        self, cycle: int, updates: list[Update], found: list[Divergence]
    ) -> None:
        """Each query's cycle stream is exactly its net change: as a
        multiset, the diff from its answer before the cycle (∅ for a
        query registered in it) to the engine's answer after — so every
        update is a flip and no ``(qid, oid)`` pair appears twice.  A
        query unregistered in the cycle emits nothing."""
        engine = self.server.engine
        streams: dict[int, Counter] = {}
        for update in updates:
            streams.setdefault(update.qid, Counter())[update.oid, update.sign] += 1
        for qid in sorted(streams.keys() | set(engine.queries)):
            got = streams.get(qid, Counter())
            if qid in engine.queries:
                previous = self._prev_answers.get(qid, frozenset())
                want = Counter(
                    (u.oid, u.sign)
                    for u in diff_answers(qid, previous, engine.answer_of(qid))
                )
            else:
                want = Counter()
            bad = {key[0] for key in got.keys() | want.keys() if got[key] != want[key]}
            if bad:
                self._report(
                    "replay", cycle, qid, bad,
                    "cycle updates vs net change of prev answer to engine answer",
                    found,
                )

    def _check_snapshot(self, cycle: int, found: list[Divergence]) -> None:
        engine = self.server.engine
        for qid in engine.queries:
            self._compare(
                "snapshot", cycle, qid, self._recompute(qid),
                engine.answer_of(qid),
                "from-scratch recomputation vs engine answer", found,
            )

    def _check_commit(self, cycle: int, found: list[Divergence]) -> None:
        server = self.server
        for client_id, mirror in self._mirrors.items():
            for qid in server.queries_of(client_id):
                self._compare(
                    "commit", cycle, qid,
                    server.commits.committed_answer(qid),
                    mirror.committed.get(qid, frozenset()),
                    "server committed answer vs state the client "
                    "provably received (committed ⊆ delivered)", found,
                )

    def _check_desync(self, cycle: int, found: list[Divergence]) -> None:
        server = self.server
        engine = server.engine
        for client_id, mirror in self._mirrors.items():
            if mirror.lossy or not server.link_of(client_id).connected:
                continue
            for qid in server.queries_of(client_id):
                self._compare(
                    "desync", cycle, qid,
                    frozenset(mirror.answers.get(qid, frozenset())),
                    engine.answer_of(qid),
                    "loss-free client's mirrored answer vs engine answer",
                    found,
                )

    # -- helpers -------------------------------------------------------

    def _compare(
        self,
        kind: str,
        cycle: int,
        qid: int,
        got: frozenset[int],
        want: frozenset[int],
        detail: str,
        found: list[Divergence],
    ) -> None:
        if got != want:
            self._report(kind, cycle, qid, got ^ want, detail, found)

    def _report(
        self,
        kind: str,
        cycle: int,
        qid: int,
        oids,
        detail: str,
        found: list[Divergence],
    ) -> None:
        try:
            client_id = self.server.client_of(qid)
        except KeyError:  # engine-only query, no client binding
            client_id = -1
        found.append(
            Divergence(
                kind=kind,
                cycle=cycle,
                qid=qid,
                client_id=client_id,
                oids=tuple(sorted(oids)),
                detail=detail,
            )
        )

    def _recompute(self, qid: int) -> frozenset[int]:
        """Brute-force the answer from raw object state (no index, no
        incremental bookkeeping), with the reference's answer functions."""
        engine = self.server.engine
        return true_answer(
            engine.queries[qid], engine.objects, engine.now, engine.prediction_horizon
        )
