"""The one op-stream generator behind every workload.

Pure stdlib: a :class:`Workload` is a function of ``(shape, seed)`` and
nothing else, so the same seed replays the same bytes on the wire and
the same calls in-process.  The program under test only ever sees the
ops; the generator's own record of the last reported positions and
query geometry is what the brute-force answer check reads.

Ops are plain tuples:

* ``("hello", client)``
* ``("register", client, qid, "range"|"predictive", minx, miny, maxx, maxy, horizon)``
* ``("register", client, qid, "knn", cx, cy, k)``
* ``("report", oid, x, y, vx, vy, t)`` — ``vx = vy = 0.0`` for sampled objects
* ``("move", qid, "range"|"predictive", minx, miny, maxx, maxy, t)``
* ``("move", qid, "knn", cx, cy, t)``
* ``("commit", qid)``
"""

from __future__ import annotations

import hashlib
import random

from config import Shape

#: Query ids start here so a qid never reads like an oid in a mismatch report.
FIRST_QID = 1_000_000
#: Bounded random walk: each report moves an object by at most this per axis.
STEP = 0.01
PREDICTIVE_OBJECT_SHARE = 0.10
RANGE_SIDE = (0.01, 0.08)
PREDICTIVE_SIDE = (0.02, 0.08)
KNN_K = (4, 8)
#: Time units per round.  The engine trusts a reported velocity for its
#: ``prediction_horizon`` (60, not settable through ``python -m
#: repro.service``), so a round of 30 keeps a predictive object's
#: footprint to the two steps it can actually travel before it reports
#: again — not the 60 steps a round of 1 would let it sweep.
ROUND_PERIOD = 30.0
#: Predictive queries ask one round ahead.
HORIZON = ROUND_PERIOD


def _flags(rng: random.Random, count: int, share: float) -> list[bool]:
    """``count`` flags, exactly ``round(count * share)`` of them set."""
    flags = [i < round(count * share) for i in range(count)]
    rng.shuffle(flags)
    return flags


def _spread(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` sizes covering ``[low, high]`` evenly, in random order.

    Every seed draws the same sizes and the same shares of each kind;
    only where things are and how they move differs.  Seeds then differ
    by placement noise, not by one seed happening to draw bigger queries
    — which would swing bytes per cycle by more than any bound."""
    sizes = [low + (high - low) * (i + 0.5) / count for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


class Workload:
    """Seeded population plus an endless stream of rounds."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        rng = self._rng = random.Random(seed)
        self.round_no = 0

        n = shape.objects
        self.xs = [rng.random() for _ in range(n)]
        self.ys = [rng.random() for _ in range(n)]
        self.predictive_object = _flags(rng, n, PREDICTIVE_OBJECT_SHARE)

        # qid -> [kind, a, b, c, d]: a rect for range/predictive, or
        # (cx, cy, k, unused) for k-NN.  Updated on every move.
        self.queries: dict[int, list] = {}
        self.owner: dict[int, int] = {}
        #: oid -> qids that ride on it.
        self.carried_by: dict[int, list[int]] = {}
        free: list[int] = []
        qid = FIRST_QID
        for kind, count, sizes in (
            ("range", shape.range_queries, RANGE_SIDE),
            ("knn", shape.knn_queries, KNN_K),
            ("predictive", shape.predictive_queries, PREDICTIVE_SIDE),
        ):
            carried = _flags(rng, count, shape.carried_fraction)
            for size, is_carried in zip(_spread(rng, count, *sizes), carried):
                carrier = rng.randrange(n) if is_carried else None
                if kind == "knn":
                    if carrier is None:
                        cx, cy = rng.random(), rng.random()
                    else:
                        cx, cy = self.xs[carrier], self.ys[carrier]
                    self.queries[qid] = [kind, cx, cy, round(size), 0.0]
                else:
                    if carrier is None:
                        x = rng.random() * (1.0 - size)
                        y = rng.random() * (1.0 - size)
                    else:
                        x, y = self._origin_around(carrier, size)
                    self.queries[qid] = [kind, x, y, x + size, y + size]
                if carrier is None:
                    free.append(qid)
                    self.owner[qid] = rng.randrange(shape.clients)
                else:
                    # The carrier is a wire client (client i reports
                    # object i), so it owns what rides on it.
                    self.carried_by.setdefault(carrier, []).append(qid)
                    self.owner[qid] = carrier
                qid += 1
        self.free_queries = free
        #: Free range queries never move when nothing moves on its own:
        #: those are the owners that acknowledge with ``commit``.
        self.stationary_range = (
            [q for q in free if self.queries[q][0] == "range"]
            if shape.query_move_fraction == 0.0
            else []
        )

    def _origin_around(self, oid: int, side: float) -> tuple[float, float]:
        """Lower-left corner of a ``side`` square centred on object ``oid``,
        kept inside the world."""
        return (
            _clamp(self.xs[oid] - side / 2, 0.0, 1.0 - side),
            _clamp(self.ys[oid] - side / 2, 0.0, 1.0 - side),
        )

    @property
    def now(self) -> float:
        """The timestamp of the current round (0.0 at setup)."""
        return self.round_no * ROUND_PERIOD

    # -- setup ---------------------------------------------------------

    def setup_ops(self) -> tuple[list[tuple], list[tuple], list[tuple]]:
        """``(hellos, registrations, initial reports)`` — three phases so
        the in-process driver can weigh each one's memory."""
        hellos = [("hello", client) for client in range(self.shape.clients)]
        registrations = []
        for qid, (kind, a, b, c, d) in self.queries.items():
            owner = self.owner[qid]
            if kind == "knn":
                registrations.append(("register", owner, qid, kind, a, b, c))
            else:
                horizon = HORIZON if kind == "predictive" else 0.0
                registrations.append(
                    ("register", owner, qid, kind, a, b, c, d, horizon)
                )
        reports = [
            ("report", oid, self.xs[oid], self.ys[oid], 0.0, 0.0, 0.0)
            for oid in range(self.shape.objects)
        ]
        return hellos, registrations, reports

    # -- rounds --------------------------------------------------------

    def next_round(self) -> list[tuple]:
        """The uplink ops of the next round, in send order."""
        shape = self.shape
        rng = self._rng
        self.round_no += 1
        t = self.now
        uniform = rng.uniform
        xs, ys = self.xs, self.ys
        ops: list[tuple] = []

        n = shape.objects
        if shape.report_fraction >= 1.0:
            reporting = range(n)
        else:
            reporting = sorted(
                rng.sample(range(n), max(1, round(n * shape.report_fraction)))
            )
        for oid in reporting:
            dx, dy = uniform(-STEP, STEP), uniform(-STEP, STEP)
            x = xs[oid] = _clamp(xs[oid] + dx, 0.0, 1.0)
            y = ys[oid] = _clamp(ys[oid] + dy, 0.0, 1.0)
            if self.predictive_object[oid]:
                ops.append(
                    ("report", oid, x, y, dx / ROUND_PERIOD, dy / ROUND_PERIOD, t)
                )
            else:
                ops.append(("report", oid, x, y, 0.0, 0.0, t))
            for qid in self.carried_by.get(oid, ()):
                ops.append(self._move_to_carrier(qid, oid, t))

        if shape.query_move_fraction > 0.0:
            movers = rng.sample(
                self.free_queries,
                max(1, round(len(self.free_queries) * shape.query_move_fraction)),
            )
            for qid in movers:
                ops.append(
                    self._shift(qid, uniform(-STEP, STEP), uniform(-STEP, STEP), t)
                )

        if shape.commit_every and self.round_no % shape.commit_every == 0:
            ops.extend(("commit", qid) for qid in self.stationary_range)
        return ops

    def _move_to_carrier(self, qid: int, oid: int, t: float) -> tuple:
        spec = self.queries[qid]
        if spec[0] == "knn":
            spec[1], spec[2] = self.xs[oid], self.ys[oid]
            return ("move", qid, "knn", spec[1], spec[2], t)
        side = spec[3] - spec[1]
        x, y = self._origin_around(oid, side)
        spec[1:] = [x, y, x + side, y + side]
        return ("move", qid, spec[0], x, y, x + side, y + side, t)

    def _shift(self, qid: int, dx: float, dy: float, t: float) -> tuple:
        spec = self.queries[qid]
        if spec[0] == "knn":
            spec[1] = _clamp(spec[1] + dx, 0.0, 1.0)
            spec[2] = _clamp(spec[2] + dy, 0.0, 1.0)
            return ("move", qid, "knn", spec[1], spec[2], t)
        side = spec[3] - spec[1]
        x = _clamp(spec[1] + dx, 0.0, 1.0 - side)
        y = _clamp(spec[2] + dy, 0.0, 1.0 - side)
        spec[1:] = [x, y, x + side, y + side]
        return ("move", qid, spec[0], x, y, x + side, y + side, t)


def stream_hash(shape: Shape, seed: int, rounds: int = 3) -> str:
    """Digest of the setup ops plus ``rounds`` rounds — the generator's
    purity check (same seed, same digest)."""
    workload = Workload(shape, seed)
    digest = hashlib.sha256()
    for phase in workload.setup_ops():
        digest.update(repr(phase).encode())
    for _ in range(rounds):
        digest.update(repr(workload.next_round()).encode())
    return digest.hexdigest()
