"""Deterministic simulated message passing for the space-time solver.

Ranks live in one process; rank = tile + N_sub * window.  Communicators
are views on a shared fabric of FIFO queues keyed by (communicator, sender,
receiver, tag), so delivery order is fully determined by program order.
"split" groups ranks working on the same tile across windows, and
"create_inter" groups the tiles of one window; both partition the world.

A communicator has two operations: isend enqueues a message and returns
nothing, and recv dequeues the oldest message on its channel.  Tags are
any hashable values; the solver uses tuples such as ("obs", sweep, source
tile) or (("halo", sweep, level, channel), side), so no two message
families can collide.  Because every rank runs in program order, a recv()
on an empty queue can never be satisfied later: it is reported as a
deadlock immediately, naming the channel.  The world keeps a message log
(step, sender, receiver, tag, bytes) for the optional messages.csv
diagnostic.

Senders' array payloads are copied at enqueue time, so a receiver always
sees the values as they were when sent, bit-exactly.

halo_exchange skips the queues: a strip reads owned cells and writes halo
cells, so copy order cannot matter, and each strip moves with one copy
and logs the row its isend would.  isend, recv and the queues stay: the
benchmark's layer table names them, and tile-by-tile sweeps will use them.
"""

from collections import deque

import numpy as np

from .grid import SIDES

__all__ = [
    "Communicator",
    "DeadlockError",
    "World",
    "create_inter",
    "halo_exchange",
    "split",
]


class DeadlockError(RuntimeError):
    pass


class World:
    """Rank space of the simulation: n_sub tiles times n_t windows."""

    def __init__(self, n_sub, n_t):
        if n_sub < 1 or n_t < 1:
            raise ValueError("n_sub and n_t must be >= 1")
        self.n_sub = int(n_sub)
        self.n_t = int(n_t)
        self._queues = {}
        self.log = []
        self._step = 0

    @property
    def n_ranks(self):
        return self.n_sub * self.n_t

    def rank_of(self, tile, window):
        if not (0 <= tile < self.n_sub and 0 <= window < self.n_t):
            raise ValueError(f"no rank for tile {tile}, window {window}")
        return tile + self.n_sub * window

    def _enqueue(self, key, payload, nbytes):
        q = self._queues.get(key)
        if q is None:
            self._queues[key] = deque((payload,))
        else:
            q.append(payload)
        comm_id, src, dst, tag = key
        self._record(src, dst, tag, nbytes)

    def _record(self, src, dst, tag, nbytes):
        self._step += 1
        self.log.append((self._step, src, dst, tag, nbytes))

    def _dequeue(self, key):
        q = self._queues.get(key)
        if not q:
            return None
        payload = q.popleft()
        if not q:
            # tags name the sweep, so keeping drained queues would hold
            # one empty deque per message sent
            del self._queues[key]
        return payload


class Communicator:
    """Membership-checked endpoint into the world's message fabric."""

    def __init__(self, world, members, kind):
        members = tuple(members)
        if len(set(members)) != len(members):
            raise ValueError("duplicate ranks in communicator")
        if any(r < 0 or r >= world.n_ranks for r in members):
            raise ValueError("member outside the world")
        self.world = world
        self.members = members
        self._member_set = frozenset(members)
        self.kind = kind
        self._id = (kind,) + members

    @property
    def size(self):
        return len(self.members)

    def _check_member(self, rank, role):
        if rank not in self._member_set:
            raise ValueError(f"{role} rank {rank} not in {self.kind} "
                             f"communicator {self.members}")

    def isend(self, src, dst, tag, payload):
        self._check_member(src, "sending")
        self._check_member(dst, "receiving")
        if isinstance(payload, np.ndarray):
            nbytes = payload.nbytes
            payload = payload.copy()
        else:
            nbytes = len(repr(payload).encode())
        self.world._enqueue((self._id, src, dst, tag), payload, nbytes)

    def recv(self, dst, src, tag):
        self._check_member(src, "sending")
        self._check_member(dst, "receiving")
        payload = self.world._dequeue((self._id, src, dst, tag))
        if payload is None:
            raise DeadlockError(
                f"deadlock: rank {dst} waiting on message {src}->{dst} tag "
                f"{tag} in {self.kind} communicator {self.members}; no "
                f"matching send was posted")
        return payload


def split(world, tile):
    """Intra communicator of one tile: its ranks across all windows."""
    if not (0 <= tile < world.n_sub):
        raise ValueError(f"tile {tile} outside world")
    members = [world.rank_of(tile, k) for k in range(world.n_t)]
    return Communicator(world, members, "intra")


def create_inter(world, window):
    """Inter communicator of one window: all tiles at that window."""
    if not (0 <= window < world.n_t):
        raise ValueError(f"window {window} outside world")
    members = [world.rank_of(i, window) for i in range(world.n_sub)]
    return Communicator(world, members, "inter")


def halo_exchange(comm, layout, fields, window=0, tag="halo"):
    """Fill every tile's halo strips from the owning neighbors, in place.

    fields maps tile id -> array of shape (..., box_nx, box_ny).  Only halo
    strips are written; owned interiors are never touched.  Each strip
    is copied straight into its halo and logged with the tag (tag, side),
    as an isend of it would be.  Exchange order is the layout's plan (side
    order, then tile id), so the message log is deterministic.
    """
    # rank of tile t in this window: base + t
    base = comm.world.rank_of(0, window)
    for tid, tile in enumerate(layout.tiles):
        want = (fields[tid].shape[-2], fields[tid].shape[-1])
        if want != tile.box_shape:
            raise ValueError(f"tile {tid}: field shape {want} does not match "
                             f"box {tile.box_shape}")
        comm._check_member(base + tid, "exchanging")
    # one tag object per side, shared by every log row
    tags = {side: (tag, side) for side in SIDES}
    record = comm.world._record
    for t in layout.exchange:
        strip = fields[t.neighbor][t.src]
        fields[t.tile][t.dst] = strip
        record(base + t.neighbor, base + t.tile, tags[t.side], strip.nbytes)
