import re

import numpy as np
import pytest

from ddvar.comm import (
    Communicator,
    DeadlockError,
    World,
    create_inter,
    halo_exchange,
    split,
)
from ddvar.grid import SIDES, Grid, build_tiles, restrict


def test_rank_layout_bijective():
    w = World(4, 2)
    assert w.n_ranks == 8
    seen = set()
    for k in range(2):
        for i in range(4):
            r = w.rank_of(i, k)
            assert divmod(r, w.n_sub) == (k, i)
            seen.add(r)
    assert seen == set(range(8))
    with pytest.raises(ValueError):
        w.rank_of(4, 0)


def test_split_and_inter_groups():
    w = World(4, 2)
    assert [split(w, i).members for i in range(4)] == \
        [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert [create_inter(w, k).members for k in range(2)] == \
        [(0, 1, 2, 3), (4, 5, 6, 7)]
    w1 = World(4, 1)
    assert all(split(w1, i).size == 1 for i in range(4))
    ws = World(1, 3)
    assert all(create_inter(ws, k).size == 1 for k in range(3))


@pytest.mark.parametrize("n_sub,n_t", [(2, 3), (5, 1), (3, 4), (8, 4)])
def test_groups_partition_world(n_sub, n_t):
    w = World(n_sub, n_t)
    intra = [r for i in range(n_sub) for r in split(w, i).members]
    inter = [r for k in range(n_t) for r in create_inter(w, k).members]
    assert sorted(intra) == list(range(w.n_ranks))
    assert sorted(inter) == list(range(w.n_ranks))


def test_send_recv_round_trip_and_fifo():
    w = World(2, 1)
    comm = create_inter(w, 0)
    payload = np.random.default_rng(0).standard_normal((3, 4))
    comm.isend(0, 0, 7, payload)
    got = comm.recv(0, 0, 7)
    np.testing.assert_array_equal(got, payload)
    comm.isend(0, 1, 5, np.array([1.0]))
    comm.isend(0, 1, 5, np.array([2.0]))
    assert comm.recv(1, 0, 5)[0] == 1.0
    assert comm.recv(1, 0, 5)[0] == 2.0
    assert w._queues == {}  # drained channels hold no memory


def test_sent_payload_is_snapshot():
    w = World(2, 1)
    comm = create_inter(w, 0)
    payload = np.zeros(3)
    comm.isend(0, 1, 1, payload)
    payload[:] = 99.0
    np.testing.assert_array_equal(comm.recv(1, 0, 1), 0.0)


def test_deadlock_names_channel():
    w = World(2, 2)
    comm = split(w, 0)  # members (0, 2)
    with pytest.raises(DeadlockError, match=r"2->0 tag 3"):
        comm.recv(0, 2, 3)


def test_tuple_tags_keep_families_apart_and_name_deadlocks():
    w = World(2, 1)
    comm = create_inter(w, 0)
    comm.isend(0, 1, ("obs", 1, 0), np.array([1.0]))
    comm.isend(0, 1, (("halo", 1, 0, "tl"), "west"), np.array([2.0]))
    assert comm.recv(1, 0, (("halo", 1, 0, "tl"), "west"))[0] == 2.0
    assert comm.recv(1, 0, ("obs", 1, 0))[0] == 1.0
    assert [row[3] for row in w.log] == \
        [("obs", 1, 0), (("halo", 1, 0, "tl"), "west")]
    comm.isend(0, 1, ("obs", 2, 0), np.array([3.0]))
    with pytest.raises(DeadlockError,
                       match=re.escape("0->1 tag ('obs', 2, 1)")):
        comm.recv(1, 0, ("obs", 2, 1))


def test_membership_enforced():
    w = World(2, 2)
    comm = create_inter(w, 0)  # members (0, 1)
    with pytest.raises(ValueError, match="not in"):
        comm.isend(0, 2, 0, np.zeros(1))
    with pytest.raises(ValueError, match="not in"):
        comm.recv(0, 3, 0)


def test_message_log_rows():
    w = World(2, 1)
    comm = create_inter(w, 0)
    comm.isend(0, 1, 9, np.zeros(4))
    comm.isend(1, 0, 2, np.zeros((2, 2)))
    assert w.log == [(1, 0, 1, 9, 32), (2, 1, 0, 2, 32)]


def halo_fixture(seed=0):
    grid = Grid(nx=12, ny=10, dt=0.05, n_steps=1)
    layout = build_tiles(grid, 2, 2, halo=2)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, grid.nx, grid.ny))
    fields = {}
    for tile in layout.tiles:
        box = restrict(g, tile)
        for side in SIDES:
            if tile.neighbors.get(side) is not None:
                sl_i, sl_j = tile.halo_slices_local(side)
                box[..., sl_i, sl_j] = 0.0
        fields[tile.id] = box
    return grid, layout, g, fields


def test_halo_exchange_matches_restriction():
    grid, layout, g, fields = halo_fixture()
    w = World(layout.n_tiles, 1)
    interiors = {t.id: fields[t.id][..., t.owned_slices_local()[0],
                                    t.owned_slices_local()[1]].copy()
                 for t in layout.tiles}
    halo_exchange(create_inter(w, 0), layout, fields)
    for tile in layout.tiles:
        want = restrict(g, tile)
        for side in SIDES:
            if tile.neighbors.get(side) is None:
                continue
            sl_i, sl_j = tile.halo_slices_local(side)
            np.testing.assert_array_equal(fields[tile.id][..., sl_i, sl_j],
                                          want[..., sl_i, sl_j])
        oi, oj = tile.owned_slices_local()
        np.testing.assert_array_equal(fields[tile.id][..., oi, oj],
                                      interiors[tile.id])


def test_halo_exchange_single_tile_noop():
    grid = Grid(nx=8, ny=8, dt=0.05, n_steps=1)
    layout = build_tiles(grid, 1, 1, halo=1)
    w = World(1, 1)
    f = {0: np.arange(64.0).reshape(8, 8)}
    before = f[0].copy()
    halo_exchange(create_inter(w, 0), layout, f)
    np.testing.assert_array_equal(f[0], before)
    assert w.log == []


def test_halo_exchange_shape_rejection():
    grid, layout, g, fields = halo_fixture()
    fields[0] = fields[0][..., :-1, :]
    w = World(layout.n_tiles, 1)
    with pytest.raises(ValueError, match="does not match box"):
        halo_exchange(create_inter(w, 0), layout, fields)


def test_exchange_log_deterministic():
    logs = []
    for _ in range(2):
        grid, layout, g, fields = halo_fixture(seed=3)
        w = World(layout.n_tiles, 1)
        halo_exchange(create_inter(w, 0), layout, fields,
                      tag=("halo", 40))
        logs.append(list(w.log))
    assert logs[0] == logs[1]
    assert len(logs[0]) > 0
    assert {row[3][0] for row in logs[0]} == {("halo", 40)}


def _reference_exchange(comm, layout, fields, window, tag):
    """The exchange as a plain loop: every strip sent by side, then tile
    id, and received in the same order."""
    world = comm.world
    for side in SIDES:
        for tile in layout.tiles:
            nb = tile.neighbors.get(side)
            if nb is None:
                continue
            neighbor = layout.tile(nb)
            si, sj = tile.halo_slices[side]
            strip = fields[nb][..., si.start - neighbor.bi0:
                               si.stop - neighbor.bi0,
                               sj.start - neighbor.bj0:
                               sj.stop - neighbor.bj0]
            comm.isend(world.rank_of(nb, window),
                       world.rank_of(tile.id, window), (tag, side), strip)
    for side in SIDES:
        for tile in layout.tiles:
            nb = tile.neighbors.get(side)
            if nb is None:
                continue
            sl_i, sl_j = tile.halo_slices_local(side)
            fields[tile.id][..., sl_i, sl_j] = comm.recv(
                world.rank_of(tile.id, window), world.rank_of(nb, window),
                (tag, side))


@pytest.mark.parametrize("ti,tj", [(2, 4), (3, 3), (1, 1)])
def test_halo_exchange_plan_matches_reference_loop(ti, tj):
    """The exchange plan build_tiles precomputes writes the same strips
    and logs the same (step, src, dst, tag, bytes) rows as the plain
    side-then-tile loop."""
    grid = Grid(nx=16, ny=16, dt=0.05, n_steps=1)
    layout = build_tiles(grid, ti, tj, halo=2)
    rng = np.random.default_rng(5)
    fields = {t.id: rng.standard_normal((3,) + t.box_shape)
              for t in layout.tiles}
    ref = {tid: f.copy() for tid, f in fields.items()}
    worlds = World(layout.n_tiles, 2), World(layout.n_tiles, 2)
    halo_exchange(create_inter(worlds[0], 1), layout, fields, window=1,
                  tag=("ras", 3))
    _reference_exchange(create_inter(worlds[1], 1), layout, ref, 1,
                        ("ras", 3))
    for tid in fields:
        np.testing.assert_array_equal(fields[tid], ref[tid])
    assert worlds[0].log == worlds[1].log
    assert len(worlds[0].log) == sum(len(t.neighbors) for t in layout.tiles)
