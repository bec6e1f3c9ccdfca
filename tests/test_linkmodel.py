from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cellsched as cs
from cellsched.linkmodel import Direction, ProblemBatch, best_index, evaluate_stacked
from helpers import hand_problem


@pytest.mark.parametrize(
    "n, m, expected",
    [(1, 1, 2), (2, 2, 16), (3, 2, 64), (4, 5, 10000)],
)
def test_schedule_count(n, m, expected):
    assert cs.schedule_count(n, m) == expected
    assert len(cs.enumerate_schedules(n, m)) == expected


def test_enumeration_order_and_directions():
    scheds = cs.enumerate_schedules(1, 1)
    assert scheds[0].choices == ((0, Direction.DOWNLINK),)
    assert scheds[1].choices == ((0, Direction.UPLINK),)
    assert [s.flat_index for s in scheds] == [0, 1]


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 3), (4, 5)])
def test_flat_index_round_trip_exhaustive(n, m):
    for k in range(cs.schedule_count(n, m)):
        s = cs.Schedule.from_flat(k, n, m)
        assert s.flat_index == k
        assert cs.Schedule.from_choices(s.choices, m).flat_index == k


def test_from_flat_range_check():
    with pytest.raises(ValueError):
        cs.Schedule.from_flat(16, 2, 2)
    with pytest.raises(ValueError):
        cs.Schedule.from_flat(-1, 2, 2)


def test_enumerate_overflow_guard():
    with pytest.raises(ValueError):
        cs.enumerate_schedules(40, 10)


def test_build_link_problem_all_downlink_caps():
    topo = cs.generate_topology(cs.SystemConfig(), seed=4)
    sched = cs.Schedule.from_choices([(0, Direction.DOWNLINK)] * 4, 5)
    prob = cs.build_link_problem(topo, sched)
    assert np.allclose(prob.p_max_w, 0.251188643150958, rtol=1e-12)
    assert np.all(prob.directions == 1)
    # downlink receivers are UEs
    assert np.allclose(prob.noise_w, 3.162277660168379e-13, rtol=1e-12)


def test_build_link_problem_hand_two_cell():
    # Hand-built 2-cell, 1-user topology with recognizable gains.
    cfg = cs.SystemConfig(n_cells=2, users_per_cell=1)
    k = 4  # nodes: BS0, BS1, UE0, UE1
    gains = np.zeros((k, k))
    pairs = {
        (0, 1): 1e-9,  # BS-BS
        (0, 2): 1e-6,  # BS0 -> its UE
        (0, 3): 1e-8,  # BS0 -> other UE
        (1, 2): 2e-8,
        (1, 3): 2e-6,
        (2, 3): 5e-9,  # UE-UE
    }
    for (a, b), g in pairs.items():
        gains[a, b] = gains[b, a] = g
    nodes = []
    for c in range(2):
        nodes.append(
            cs.Node(c, cs.NodeKind.BS, (50.0 * c, 0.0), c,
                    cfg.max_power_w(cs.NodeKind.BS), cfg.bs_noise_figure_db)
        )
    for i in range(2):
        nodes.append(
            cs.Node(2 + i, cs.NodeKind.UE, (50.0 * i, 20.0), i,
                    cfg.max_power_w(cs.NodeKind.UE), cfg.ue_noise_figure_db)
        )
    weights = np.array([0.9, 0.8, 0.7, 0.6])  # UE0 dl/ul, UE1 dl/ul
    topo = cs.Topology(config=cfg, nodes=tuple(nodes), gains=gains,
                       weights=weights, seed=0)

    # cell 0 downlink, cell 1 uplink
    sched = cs.Schedule.from_choices(
        [(0, Direction.DOWNLINK), (0, Direction.UPLINK)], 1
    )
    prob = cs.build_link_problem(topo, sched)
    # link 0: BS0 -> UE0; link 1: UE1 -> BS1
    assert prob.gains[0, 0] == 1e-6
    assert prob.gains[1, 1] == 2e-6
    assert prob.gains[0, 1] == 5e-9  # tx of link 1 (UE1) into rx of link 0 (UE0)
    assert prob.gains[1, 0] == 1e-9  # tx of link 0 (BS0) into rx of link 1 (BS1)
    assert prob.weights[0] == 0.9 and prob.weights[1] == 0.6
    assert prob.directions[0] == 1 and prob.directions[1] == 0
    # uplink receiver is a BS (higher noise figure)
    assert prob.noise_w[1] == pytest.approx(6.3096e-13, rel=1e-4)
    assert prob.noise_w[0] == pytest.approx(3.1623e-13, rel=1e-4)
    assert prob.p_max_w[0] == pytest.approx(0.2512, abs=1e-4)
    assert prob.p_max_w[1] == pytest.approx(0.1995, abs=1e-4)


def test_build_link_problem_single_cell():
    cfg = cs.SystemConfig(n_cells=1, users_per_cell=1)
    topo = cs.generate_topology(cfg, seed=1)
    prob = cs.build_link_problem(topo, cs.Schedule.from_flat(0, 1, 1))
    assert prob.gains.shape == (1, 1)
    assert prob.gains[0, 0] > 0


def test_evaluate_single_link_unit_sinr():
    prob = hand_problem([[1.0]], [1.0], [0.5], [2.0])
    alloc = cs.evaluate(prob, np.array([0.5]))
    assert alloc.sinr[0] == pytest.approx(1.0, rel=1e-12)
    assert alloc.rate_bps[0] == pytest.approx(1.0, rel=1e-12)  # W=1, log2(2)=1


def test_evaluate_cap_binds():
    prob = hand_problem([[1.0]], [1.0], [1e-6], [1.0])
    alloc = cs.evaluate(prob, np.array([1.0]))
    assert alloc.sinr[0] == pytest.approx(1e6, rel=1e-9)
    assert alloc.rate_bps[0] == pytest.approx(7.0, rel=1e-12)  # capped below 19.9


def test_evaluate_symmetric_two_link():
    prob = hand_problem([[1.0, 0.1], [0.1, 1.0]], [1.0, 1.0], [0.1, 0.1], [1.0, 1.0])
    alloc = cs.evaluate(prob, np.array([1.0, 1.0]))
    assert np.allclose(alloc.sinr, 5.0, rtol=1e-12)
    assert alloc.wsr_bps == pytest.approx(2.0 * np.log2(6.0), rel=1e-12)


def test_evaluate_box_violation_raises():
    prob = hand_problem([[1.0]], [1.0], [0.1], [1.0])
    with pytest.raises(ValueError):
        cs.evaluate(prob, np.array([1.5]))
    with pytest.raises(ValueError):
        cs.evaluate(prob, np.array([-0.5]))


@settings(max_examples=60)
@given(
    scale=st.floats(min_value=1e-6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_sinr_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 2.0, (3, 3))
    noise = rng.uniform(0.01, 1.0, 3)
    p = rng.uniform(0.01, 1.0, 3)
    prob_a = hand_problem(g, [1.0, 0.5, 0.2], noise, np.ones(3))
    prob_b = hand_problem(g, [1.0, 0.5, 0.2], noise * scale, np.full(3, scale))
    a = cs.evaluate(prob_a, p)
    b = cs.evaluate(prob_b, p * scale)
    assert np.allclose(a.sinr, b.sinr, rtol=1e-12)
    assert a.wsr_bps == pytest.approx(b.wsr_bps, rel=1e-12)


@settings(max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rate_cap_never_exceeded(seed):
    rng = np.random.default_rng(seed)
    prob = hand_problem(
        rng.uniform(1e-4, 1e2, (2, 2)), rng.uniform(0, 1, 2),
        rng.uniform(1e-9, 1e-3, 2), np.ones(2),
    )
    alloc = cs.evaluate(prob, rng.uniform(0, 1, 2))
    assert np.all(alloc.rate_bps / prob.bandwidth_hz <= 7.0 + 1e-12)


def test_single_link_monotone_below_cap():
    prob = hand_problem([[1.0]], [1.0], [1.0], [10.0])
    powers = np.linspace(0.1, 10.0, 25)
    wsrs = [cs.evaluate(prob, np.array([p])).wsr_bps for p in powers]
    assert all(b > a for a, b in zip(wsrs, wsrs[1:]))


def test_evaluate_batch_matches_scalar():
    rng = np.random.default_rng(0)
    probs = [
        hand_problem(rng.uniform(0.1, 2.0, (2, 2)), rng.uniform(0, 1, 2),
                     rng.uniform(0.01, 1, 2), np.ones(2))
        for _ in range(7)
    ]
    powers = rng.uniform(0, 1, (7, 2))
    wsr, sinr, rate = evaluate_stacked(ProblemBatch.stack(probs), powers)
    for i, prob in enumerate(probs):
        ref = cs.evaluate(prob, powers[i])
        assert wsr[i] == pytest.approx(ref.wsr_bps, rel=1e-12)
        assert np.allclose(sinr[i], ref.sinr, rtol=1e-12)


def test_full_power_alloc():
    prob = hand_problem([[1.0]], [1.0], [0.5], [2.0])
    assert cs.evaluate(prob, prob.p_max_w).powers_w[0] == 2.0


def test_best_schedule_by():
    flat = np.array([s.flat_index for s in cs.enumerate_schedules(1, 2)])  # 4 schedules
    values = flat.astype(float)
    best = best_index(values, flat)
    assert flat[best] == 3 and values[best] == 3.0
    assert flat[best_index(np.ones(4), flat)] == 0  # tie -> lowest index
    assert flat[best_index(-values, flat)] == 0
    # rows out of flat order (top-k candidates): a tie still takes the lowest flat index
    assert best_index(np.array([1.0, 2.0, 2.0, 0.5]), np.array([0, 9, 3, 1])) == 2
    with pytest.raises(ValueError):
        best_index(np.array([]), np.array([], dtype=int))


def test_link_problem_validation():
    with pytest.raises(ValueError):
        hand_problem([[0.0]], [1.0], [0.1], [1.0])  # zero diagonal
    with pytest.raises(ValueError):
        hand_problem([[1.0]], [1.0], [0.0], [1.0])  # zero noise
    with pytest.raises(ValueError):
        hand_problem([[1.0]], [2.0], [0.1], [1.0])  # weight > 1
    with pytest.raises(ValueError):
        hand_problem([[1.0, -0.1], [0.1, 1.0]], [1, 1], [0.1, 0.1], [1, 1])


def _loop_link_problem(topo, sched):
    """Reference: resolve a schedule cell by cell through the topology's nodes."""
    cfg = topo.config
    tx, rx, weights, directions, noise, p_max = [], [], [], [], [], []
    for c, (slot, direction) in enumerate(sched.choices):
        bs, ue = topo.bs_node(c), topo.ue_node(c, slot)
        ue_i = topo.ue_index(c, slot)
        down = direction == Direction.DOWNLINK
        t, r = (bs, ue) if down else (ue, bs)
        tx.append(t.id)
        rx.append(r.id)
        weights.append(topo.weights[2 * ue_i + (0 if down else 1)])
        directions.append(1 if down else 0)
        noise.append(cs.noise_power_w(cfg, r.kind))
        p_max.append(t.max_power_w)
    gains = np.array([[topo.gains[tx[j], rx[i]] for j in range(len(tx))] for i in range(len(rx))])
    return gains, np.array(weights), np.array(directions), np.array(noise), np.array(p_max)


@pytest.mark.parametrize("n, m", [(2, 2), (4, 1), (4, 5)])
def test_problem_batch_bitwise_equals_build_link_problem(n, m):
    topo = cs.generate_topology(cs.SystemConfig(n_cells=n, users_per_cell=m), seed=11)
    batch = cs.problem_batch(topo)
    scheds = cs.enumerate_schedules(n, m)
    assert len(batch) == len(scheds)
    assert np.array_equal(batch.flat_index, [s.flat_index for s in scheds])
    fields = ("gains", "weights", "directions", "noise_w", "p_max_w")
    for i, sched in enumerate(scheds):
        row, one = batch[i], cs.build_link_problem(topo, sched)
        for name, ref in zip(fields, _loop_link_problem(topo, sched)):
            assert np.array_equal(getattr(row, name), ref), (i, name)
            assert np.array_equal(getattr(one, name), ref), (i, name)
            assert getattr(row, name).dtype == getattr(one, name).dtype
        assert (row.bandwidth_hz, row.se_cap_bps_hz) == (one.bandwidth_hz, one.se_cap_bps_hz)


def test_problem_batch_subset_rows():
    topo = cs.generate_topology(cs.SystemConfig(), seed=2)
    full = cs.problem_batch(topo)
    picked = [9999, 0, 4321, 17]
    sub = cs.problem_batch(topo, picked)
    assert np.array_equal(sub.flat_index, picked)
    for name in ("gains", "weights", "directions", "noise_w", "p_max_w"):
        assert np.array_equal(getattr(sub, name), getattr(full, name)[picked])
    for bad in ([10000], [-1], [[1, 2]]):
        with pytest.raises(ValueError):
            cs.problem_batch(topo, bad)


def test_evaluate_stacked_rows_independent_of_batch():
    topo = cs.generate_topology(cs.SystemConfig(), seed=6)
    full = cs.problem_batch(topo)
    rng = np.random.default_rng(1)
    powers = rng.uniform(0.0, 1.0, (len(full), 4)) * full.p_max_w
    wsr, sinr, rate = evaluate_stacked(full, powers)
    for picked in ([5], [5, 700], list(range(0, 10000, 997))):
        w, s, r = evaluate_stacked(cs.problem_batch(topo, picked), powers[picked])
        assert np.array_equal(w, wsr[picked])
        assert np.array_equal(s, sinr[picked]) and np.array_equal(r, rate[picked])


def _relabelled(topo, cell_of, slot_of):
    """The same drop with new cell c holding old cell ``cell_of[c]`` and, in
    every cell, new slot k holding old slot ``slot_of[k]``."""
    cfg = topo.config
    n, m = cfg.n_cells, cfg.users_per_cell
    old_ue = [cell_of[c] * m + slot_of[k] for c in range(n) for k in range(m)]
    old_node = list(cell_of) + [n + u for u in old_ue]
    nodes = tuple(
        replace(topo.nodes[o], id=new, cell=new if new < n else (new - n) // m)
        for new, o in enumerate(old_node)
    )
    weights = np.array([topo.weights[2 * u + d] for u in old_ue for d in (0, 1)])
    gains = topo.gains[np.ix_(old_node, old_node)].copy()
    return cs.Topology(config=cfg, nodes=nodes, gains=gains, weights=weights, seed=topo.seed)


def _full_power_wsr(topo):
    batch = cs.problem_batch(topo)
    return evaluate_stacked(batch, batch.p_max_w)[0]


@pytest.mark.parametrize("cell_of, slot_of", [
    ((2, 0, 3, 1), (0, 1, 2, 3, 4)),  # relabel the cells
    ((0, 1, 2, 3), (0, 3, 2, 1, 4)),  # swap user slots 1 and 3 in every cell
])
def test_relabelling_permutes_schedules_and_keeps_wsr(cell_of, slot_of):
    cfg = cs.SystemConfig()
    topo = cs.generate_topology(cfg, seed=21)
    moved = _relabelled(topo, cell_of, slot_of)
    base = 2 * cfg.users_per_cell
    digits = (np.arange(10000)[:, None] // base ** np.arange(4)) % base
    # new cell c of a schedule runs the old cell cell_of[c]'s link with the
    # slot relabelled: old slot slot_of[k] is new slot k.
    new_slot = np.argsort(slot_of)
    moved_digits = digits[:, list(cell_of)]
    moved_digits = 2 * new_slot[moved_digits // 2] + moved_digits % 2
    moved_flat = moved_digits @ base ** np.arange(4)
    assert np.array_equal(np.sort(moved_flat), np.arange(10000))
    wsr, wsr_moved = _full_power_wsr(topo), _full_power_wsr(moved)
    # links are summed in another order, so allow round-off only
    assert np.allclose(wsr_moved[moved_flat], wsr, rtol=1e-12, atol=0.0)
    assert wsr_moved.max() == pytest.approx(wsr.max(), rel=1e-12)
