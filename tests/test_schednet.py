import numpy as np
import pytest

import cellsched as cs
from cellsched import powernet, schednet
from cellsched.nncore import Activation, TrainConfig
from cellsched.schednet import (
    SchedDataset,
    SchedNet,
    default_sched_spec,
    encode_topology,
    h_block_width,
    init_sched_net,
    make_sched_dataset,
    predict_values,
    top_k_schedules,
    train_sched_net,
)


def desk_topos(count=8, base_seed=0):
    cfg = cs.SystemConfig(n_cells=2, users_per_cell=2, area_side_m=60.0)
    return [cs.generate_topology(cfg, seed=base_seed + i) for i in range(count)]


@pytest.fixture(scope="module")
def tiny_power_net():
    topos = desk_topos(8)
    train, val = powernet.make_power_dataset(topos, cs.GpConfig(), val_fraction=0.2)
    net, _ = powernet.train_power_net(
        train, val, TrainConfig(epochs=5, batch_size=32, shuffle_seed=0), init_seed=0
    )
    return net


@pytest.fixture(scope="module")
def tiny_sched(tiny_power_net):
    topos = desk_topos(12, base_seed=100)
    train, val = make_sched_dataset(topos, tiny_power_net, val_fraction=0.25)
    net, report = train_sched_net(
        train, val, 2, 2,
        TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, shuffle_seed=1),
        init_seed=1,
    )
    return net, report, topos


def test_default_sched_spec_reference_scale():
    spec = default_sched_spec(4, 5)
    widths = {b.name: b.width for b in spec.blocks}
    assert widths == {"h": 600, "w": 40}
    assert (4 + 4 * 5) ** 2 == 576 <= 600  # real pairs fit inside the block
    assert [l.width for l in spec.trunk] == [800, 800, 1200]
    assert spec.output.width == 10000
    assert spec.output.activation == Activation.LINEAR


def test_default_sched_spec_desk_scale():
    spec = default_sched_spec(2, 2)
    widths = {b.name: b.width for b in spec.blocks}
    assert widths == {"h": 600, "w": 8}  # (2+4)^2 = 36 padded into the 600 block
    assert spec.output.width == 16


def test_h_block_width_grows_past_reference():
    assert h_block_width(4, 5) == 600
    assert h_block_width(5, 5) == 900  # 30 nodes -> 900 pairs


def test_encode_topology_layout():
    topo = desk_topos(1, base_seed=7)[0]
    stats = powernet.GainStats(-90.0, 12.0)
    enc = encode_topology(topo, stats)
    assert set(enc) == {"h", "w"}
    k = topo.config.n_nodes
    assert enc["h"].shape == (600,)
    assert np.array_equal(enc["h"][k * k :], np.zeros(600 - k * k))
    std = enc["h"][: k * k].reshape(k, k)
    assert np.array_equal(np.diag(std), np.zeros(k))
    off = ~np.eye(k, dtype=bool)
    expected = (10.0 * np.log10(topo.gains[off]) + 90.0) / 12.0
    assert np.allclose(std[off], expected, rtol=1e-12)
    assert np.array_equal(enc["w"], topo.weights)
    enc2 = encode_topology(topo, stats)
    assert np.array_equal(enc["h"], enc2["h"])


def test_make_sched_dataset_shapes_and_targets(tiny_power_net):
    topos = desk_topos(6, base_seed=50)
    train, val = make_sched_dataset(topos, tiny_power_net, val_fraction=0.2)
    assert train.n_samples == 4 and val.n_samples == 2
    assert train.target.shape == (4, 16)
    assert train.target_std > 0
    # definitional: de-normalized target == evaluated WSR of predicted powers
    raw = train.target[0] * train.target_std + train.target_mean
    expected = schednet.schedule_wsr_targets(topos[0], tiny_power_net)
    assert np.allclose(raw, expected, rtol=1e-12)
    # train/val statistics shared, split disjoint by topology
    assert val.target_mean == train.target_mean
    assert val.stats == train.stats


def test_sched_dataset_save_load(tiny_power_net, tmp_path):
    topos = desk_topos(4, base_seed=60)
    train, _ = make_sched_dataset(topos, tiny_power_net, val_fraction=0.25)
    path = tmp_path / "sched.npz"
    train.save(path)
    back = SchedDataset.load(path)
    assert np.array_equal(back.h, train.h)
    assert np.array_equal(back.target, train.target)
    assert back.target_mean == train.target_mean


def test_predict_values_shape_and_determinism(tiny_sched):
    net, _, topos = tiny_sched
    v1 = predict_values(net, topos[0])
    v2 = predict_values(net, topos[0])
    assert v1.shape == (16,)
    assert np.array_equal(v1, v2)


def test_denormalization_preserves_ordering(tiny_sched):
    net, _, topos = tiny_sched
    from cellsched import nncore

    raw = nncore.forward(net.model, encode_topology(topos[1], net.stats))
    denorm = predict_values(net, topos[1])
    assert np.array_equal(np.argsort(raw, kind="stable"),
                          np.argsort(denorm, kind="stable"))


def test_top_k_basics(tiny_sched):
    net, _, topos = tiny_sched
    values = predict_values(net, topos[2])
    top1 = top_k_schedules(net, topos[2], 1)
    assert len(top1) == 1
    assert top1[0].flat_index == int(np.argmax(values))
    top_all = top_k_schedules(net, topos[2], 16)
    assert sorted(s.flat_index for s in top_all) == list(range(16))
    got = [s.flat_index for s in top_k_schedules(net, topos[2], 5)]
    assert got == [s.flat_index for s in top_all[:5]]
    with pytest.raises(ValueError):
        top_k_schedules(net, topos[2], 0)
    with pytest.raises(ValueError):
        top_k_schedules(net, topos[2], 17)


def test_top_k_tie_breaks_by_flat_index():
    stats = powernet.GainStats(-90.0, 12.0)
    net = init_sched_net(2, 2, stats, init_seed=0)
    for key in net.model.params:
        net.model.params[key][...] = 0.0  # constant (all-zero) outputs: full tie
    topo = desk_topos(1, base_seed=3)[0]
    top = top_k_schedules(net, topo, 5)
    assert [s.flat_index for s in top] == [0, 1, 2, 3, 4]


def test_sched_net_save_load(tiny_sched, tmp_path):
    net, _, topos = tiny_sched
    path = tmp_path / "sched_model.npz"
    net.save(path)
    back = SchedNet.load(path)
    assert back.n_cells == 2 and back.users_per_cell == 2
    assert back.target_mean == net.target_mean
    assert np.array_equal(predict_values(back, topos[0]), predict_values(net, topos[0]))


def test_topology_mismatch_raises(tiny_sched):
    net, _, _ = tiny_sched
    other = cs.generate_topology(cs.SystemConfig(n_cells=1, users_per_cell=1), seed=0)
    with pytest.raises(ValueError):
        predict_values(net, other)


def test_schedule_space_guard():
    with pytest.raises(ValueError):
        default_sched_spec(30, 10)


def test_reference_scale_model_forward():
    # Full-size network (inputs 600+40, trunk 800/800/1200, output 10000):
    # constructible and usable on one reference-scale topology.
    topo = cs.generate_topology(cs.SystemConfig(), seed=0)
    stats = powernet.GainStats(-100.0, 15.0)
    net = init_sched_net(4, 5, stats, init_seed=0)
    values = predict_values(net, topo)
    assert values.shape == (10000,)
    assert np.all(np.isfinite(values))
    top = top_k_schedules(net, topo, 5)
    assert len({s.flat_index for s in top}) == 5


def test_trained_top1_rank_quality(desk_pipeline):
    # For most validation topologies the predicted-best schedule should rank
    # inside the top quarter of the true (power-net-evaluated) WSR ordering.
    hits = 0
    topos = desk_pipeline.sched_val_topologies[:100]
    for topo in topos:
        true_wsr = schednet.schedule_wsr_targets(topo, desk_pipeline.power_net)
        top1 = top_k_schedules(desk_pipeline.sched_net, topo, 1)[0]
        rank = int(np.sum(true_wsr > true_wsr[top1.flat_index]))
        if rank < len(true_wsr) / 4:
            hits += 1
    assert hits >= 0.8 * len(topos)
