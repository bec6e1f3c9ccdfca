import numpy as np
import pytest

import cellsched as cs
from cellsched import harness, powernet
from cellsched.linkmodel import ProblemBatch, evaluate_stacked
from cellsched.nncore import Activation, MlpModel, TrainConfig
from cellsched.powernet import (
    FORWARD_CHUNK,
    GainStats,
    PowerNet,
    encode_batch,
    gains_to_db,
    init_power_net,
    make_power_dataset,
    predict_fractions,
    train_power_net,
)
from helpers import hand_problem


def predict_powers(net, problem):
    """The power net's allocation for one problem, evaluated."""
    frac = predict_fractions(net, [problem])[0]
    return cs.evaluate(problem, np.clip(frac, 0.0, 1.0) * problem.p_max_w)


def row_wsr(net, problem):
    """WSR of the power net's allocation for one problem, evaluated as a
    one-row batch (the arithmetic every batched decision uses)."""
    batch = ProblemBatch.stack([problem])
    frac = predict_fractions(net, batch)
    return float(evaluate_stacked(batch, np.clip(frac, 0.0, 1.0) * batch.p_max_w)[0][0])


def desk_topos(n, m=2, count=10, base_seed=0, area=60.0):
    cfg = cs.SystemConfig(n_cells=n, users_per_cell=m, area_side_m=area)
    return [cs.generate_topology(cfg, seed=base_seed + i) for i in range(count)]


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_power_dataset(desk_topos(2, count=10), cs.GpConfig(), val_fraction=0.2)


@pytest.fixture(scope="module")
def tiny_net(tiny_dataset):
    train_set, val_set = tiny_dataset
    net, report = train_power_net(
        train_set, val_set,
        TrainConfig(epochs=8, batch_size=32, learning_rate=1e-3, shuffle_seed=0),
        init_seed=0,
    )
    return net, report


@pytest.mark.parametrize("n_links", [1, 2, 4])
def test_default_power_spec_widths(n_links):
    spec = powernet.default_power_spec(n_links)
    widths = {b.name: b.width for b in spec.blocks}
    assert widths == {"g": n_links**2, "w": n_links, "u": n_links}
    assert [b.layers[0].width for b in spec.blocks] == [64, 32, 32]
    assert [l.width for l in spec.trunk] == [256, 128, 64]
    assert spec.output.width == n_links
    assert spec.output.activation == Activation.SIGMOID


def test_encode_passthrough_and_standardization():
    prob = hand_problem([[1e-8, 1e-10], [1e-9, 1e-7]], [0.3, 0.9], [1e-13, 1e-13],
                        [0.25, 0.2], directions=[1, 0])
    stats = GainStats(mean_db=-85.0, std_db=10.0)
    enc = {k: v[0] for k, v in encode_batch(ProblemBatch.stack([prob]), stats).items()}
    assert np.array_equal(enc["w"], [0.3, 0.9])
    assert np.array_equal(enc["u"], [1.0, 0.0])
    expected = (10.0 * np.log10(prob.gains).ravel() + 85.0) / 10.0
    assert np.allclose(enc["g"], expected, rtol=1e-12)


def test_encode_degenerate_uniform_gains_zero():
    g = np.full((2, 2), 1e-8)
    prob = hand_problem(g, [0.5, 0.5], [1e-13, 1e-13], [0.25, 0.25])
    stats = GainStats.fit(10.0 * np.log10(g.ravel()))
    assert stats.std_db == 1.0  # zero-variance guard
    enc = encode_batch(ProblemBatch.stack([prob]), stats)
    assert np.array_equal(enc["g"][0], np.zeros(4))


def test_make_dataset_counts_and_split(tiny_dataset):
    train_set, val_set = tiny_dataset
    assert train_set.n_samples == 8 * 16
    assert val_set.n_samples == 2 * 16
    assert set(train_set.topo_ids) == set(range(8))
    assert set(val_set.topo_ids) == {8, 9}
    assert np.all((train_set.target >= 0.0) & (train_set.target <= 1.0))
    assert train_set.n_dropped == 0
    assert train_set.stats == val_set.stats


def test_make_dataset_bad_gp_config_raises_at_once():
    # A dict is not a GpConfig: the error surfaces here, not as an empty dataset.
    with pytest.raises(AttributeError):
        make_power_dataset(desk_topos(2, count=3), {"outer_tol": 1e-4})


def test_make_dataset_counts_solver_rejections_by_reason():
    gp = cs.GpConfig(init=cs.PowerInit.GIVEN)  # no p0: the solver rejects every problem
    with pytest.raises(ValueError) as err:
        make_power_dataset(desk_topos(2, count=3), gp, val_fraction=0.34)
    assert str(err.value) == (
        "no training rows left; rows dropped by reason: "
        "{'solver rejected the problem: init=GIVEN requires p0': 48}"
    )


def test_make_dataset_rejects_mixed_shapes_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(powernet, "wsr_maximize", lambda *a: calls.append(a))
    topos = desk_topos(2, count=2) + desk_topos(2, m=1, count=1)
    with pytest.raises(ValueError, match="must share n_cells and users_per_cell"):
        make_power_dataset(topos, cs.GpConfig(), val_fraction=0.34)
    assert calls == []


def _reference_power_dataset(topologies, gp_config, n_train):
    """The per-schedule labelling loop: one ``LinkProblem`` per schedule,
    dB gains per row, statistics over the stacked training rows."""
    raw_g, rows_w, rows_u, rows_t, ids = [], [], [], [], []
    for ti, topo in enumerate(topologies):
        cfg = topo.config
        for sched in cs.enumerate_schedules(cfg.n_cells, cfg.users_per_cell):
            problem = cs.build_link_problem(topo, sched)
            res = cs.wsr_maximize(problem, gp_config)
            raw_g.append(gains_to_db(problem.gains).ravel())
            rows_w.append(problem.weights)
            rows_u.append(problem.directions.astype(float))
            rows_t.append(np.clip(res.alloc.powers_w / problem.p_max_w, 0.0, 1.0))
            ids.append(ti)
    raw_g, ids = np.asarray(raw_g), np.asarray(ids)
    is_train = ids < n_train
    stats = GainStats.fit(raw_g[is_train])
    return stats, [
        {"g": stats.standardize_db(raw_g[mask]), "w": np.asarray(rows_w)[mask],
         "u": np.asarray(rows_u)[mask], "target": np.asarray(rows_t)[mask],
         "topo_ids": ids[mask]}
        for mask in (is_train, ~is_train)
    ]


@pytest.mark.parametrize("n, m, area, count, n_train", [(2, 2, 60.0, 3, 2), (4, 1, 120.0, 2, 1)])
def test_make_dataset_bitwise_equals_reference_loop(n, m, area, count, n_train):
    topos = desk_topos(n, m=m, count=count, base_seed=300, area=area)
    gp = cs.GpConfig()
    datasets = make_power_dataset(topos, gp, val_fraction=(count - n_train) / count)
    stats, reference = _reference_power_dataset(topos, gp, n_train)
    for ds, ref in zip(datasets, reference):
        assert ds.stats == stats and ds.n_dropped == 0
        for name, want in ref.items():
            got = getattr(ds, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # a training row is the encoding of the same problem in a prediction batch
        for ti in set(ds.topo_ids):
            enc = encode_batch(cs.problem_batch(topos[ti]), stats)
            rows = ds.topo_ids == ti
            for name in ("g", "w", "u"):
                assert np.array_equal(getattr(ds, name)[rows], enc[name]), name


def test_dataset_save_load(tiny_dataset, tmp_path):
    train_set, _ = tiny_dataset
    path = tmp_path / "d.npz"
    train_set.save(path)
    back = powernet.PowerDataset.load(path)
    assert np.array_equal(back.g, train_set.g)
    assert np.array_equal(back.target, train_set.target)
    assert back.stats == train_set.stats
    assert (back.n_dropped, back.drop_reasons) == (train_set.n_dropped, train_set.drop_reasons)


def test_dataset_load_without_drop_reasons(tiny_dataset, tmp_path):
    # files saved before reasons were kept hold only the total
    train_set, _ = tiny_dataset
    for n_dropped, reasons in ((3, {"unknown": 3}), (0, {})):
        path = tmp_path / f"old{n_dropped}.npz"
        np.savez(
            path, g=train_set.g, w=train_set.w, u=train_set.u, target=train_set.target,
            topo_ids=train_set.topo_ids,
            stats=np.array([train_set.stats.mean_db, train_set.stats.std_db]),
            n_dropped=np.array([n_dropped]),
        )
        back = powernet.PowerDataset.load(path)
        assert (back.n_dropped, back.drop_reasons) == (n_dropped, reasons)


def test_untrained_zero_net_predicts_half_power():
    stats = GainStats(-80.0, 5.0)
    net = PowerNet(
        model=MlpModel(powernet.default_power_spec(2), init_seed=0, init=False),
        stats=stats,
        n_links=2,
    )
    prob = hand_problem([[1e-8, 1e-10], [1e-10, 1e-8]], [1.0, 1.0], [1e-13, 1e-13],
                        [0.25, 0.2])
    alloc = predict_powers(net, prob)
    assert np.allclose(alloc.powers_w, [0.125, 0.1], rtol=1e-12)  # sigmoid(0)=0.5


def test_predictions_respect_power_box(tiny_net):
    net, _ = tiny_net
    for seed in range(60, 70):
        topo = desk_topos(2, count=1, base_seed=seed)[0]
        for sched in cs.enumerate_schedules(2, 2)[:4]:
            prob = cs.build_link_problem(topo, sched)
            alloc = predict_powers(net, prob)
            assert np.all(alloc.powers_w >= 0.0)
            assert np.all(alloc.powers_w <= prob.p_max_w)


def test_batching_invariance_bitwise(tiny_net):
    net, _ = tiny_net
    topo = desk_topos(2, count=1, base_seed=99)[0]
    probs = [cs.build_link_problem(topo, s) for s in cs.enumerate_schedules(2, 2)]
    batch = predict_fractions(net, probs)
    loop = np.vstack([predict_fractions(net, [p]) for p in probs])
    assert np.array_equal(batch, loop)


def test_fast_path_agrees_to_roundoff(tiny_net):
    # The batch built from the topology and the list of single problems go
    # through the same chunked forward: they agree exactly.
    net, _ = tiny_net
    topo = desk_topos(2, count=1, base_seed=98)[0]
    probs = [cs.build_link_problem(topo, s) for s in cs.enumerate_schedules(2, 2)]
    row = predict_fractions(net, probs)
    fast = predict_fractions(net, cs.problem_batch(topo))
    assert np.array_equal(row, fast)


def _row_position_invariance(net, problems):
    """Every problem's prediction alone equals its prediction at every
    position of batches of 1, 2, C and C+1 rows."""
    alone = np.vstack([predict_fractions(net, [p]) for p in problems])
    fillers = problems[::-1]
    for size in (1, 2, FORWARD_CHUNK, FORWARD_CHUNK + 1):
        for k, target in enumerate(problems[:3]):
            for pos in range(size):
                rows = [fillers[(k + j) % len(fillers)] for j in range(size)]
                rows[pos] = target
                got = predict_fractions(net, ProblemBatch.stack(rows))
                assert np.array_equal(got[pos], alone[k]), (size, pos)
                assert got.shape == (size, net.n_links)


def test_prediction_row_invariant_to_position_and_batch_desk(tiny_net):
    net, _ = tiny_net
    topo = desk_topos(2, count=1, base_seed=97)[0]
    _row_position_invariance(net, [cs.build_link_problem(topo, s) for s in cs.enumerate_schedules(2, 2)])


def test_prediction_row_invariant_to_position_and_batch_reference():
    topo = cs.generate_topology(cs.SystemConfig(), seed=3)
    batch = cs.problem_batch(topo, list(range(0, 10000, 499)))
    net = init_power_net(4, GainStats(-100.0, 15.0), init_seed=0)
    _row_position_invariance(net, [batch[i] for i in range(len(batch))])
    # a row of the full 10 000-row batch equals the row predicted alone
    full = predict_fractions(net, cs.problem_batch(topo))
    alone = np.vstack([predict_fractions(net, [batch[i]]) for i in range(len(batch))])
    assert np.array_equal(full[batch.flat_index], alone)


def _max_dnn(net, topo):
    run = harness.run_method(harness.MAX_DNN, topo, harness.ModelBundle(power=net))
    return run.schedule, run.alloc


def test_max_dnn_schedule_single_cell(tiny_net):
    # N=1: picks the better of the two schedules by evaluated WSR.
    topos = desk_topos(1, m=1, count=1, base_seed=5)
    cfg = topos[0].config
    train = make_power_dataset(desk_topos(1, m=1, count=6, base_seed=10),
                               cs.GpConfig(), val_fraction=0.2)
    net, _ = train_power_net(train[0], train[1], TrainConfig(epochs=2, batch_size=16),
                             init_seed=0)
    sched, alloc = _max_dnn(net, topos[0])
    scheds = cs.enumerate_schedules(1, 1)
    evals = []
    for s in scheds:
        prob = cs.build_link_problem(topos[0], s)
        evals.append(row_wsr(net, prob))
    assert sched.flat_index == int(np.argmax(evals))
    assert alloc.wsr_bps == pytest.approx(max(evals), rel=1e-12)


def test_max_dnn_matches_schedule_loop(tiny_net):
    net, _ = tiny_net
    topo = desk_topos(2, count=1, base_seed=55)[0]
    sched, alloc = _max_dnn(net, topo)
    evals = []
    for s in cs.enumerate_schedules(2, 2):
        prob = cs.build_link_problem(topo, s)
        evals.append(row_wsr(net, prob))
    assert alloc.wsr_bps == max(evals)  # bit-identical row paths
    assert sched.flat_index == int(np.argmax(evals))
    # and against the scalar evaluation path, which shares no code with the batch
    prob = cs.build_link_problem(topo, sched)
    scalar = cs.evaluate(prob, np.clip(predict_fractions(net, [prob])[0], 0.0, 1.0) * prob.p_max_w)
    assert alloc.wsr_bps == pytest.approx(scalar.wsr_bps, rel=1e-12)
    assert np.array_equal(alloc.powers_w, scalar.powers_w)


def test_training_reduces_validation_mse(tiny_net):
    _, report = tiny_net
    assert report.val_mse[-1] < report.val_mse[0]


def test_model_mismatch_raises(tiny_net):
    net, _ = tiny_net
    prob = hand_problem([[1.0]], [1.0], [0.1], [1.0])
    with pytest.raises(ValueError):
        predict_fractions(net, [prob])


def test_power_net_save_load(tiny_net, tmp_path):
    net, _ = tiny_net
    path = tmp_path / "power.npz"
    net.save(path)
    back = PowerNet.load(path)
    assert back.n_links == net.n_links
    assert back.stats == net.stats
    topo = desk_topos(2, count=1, base_seed=77)[0]
    probs = [cs.build_link_problem(topo, s) for s in cs.enumerate_schedules(2, 2)[:3]]
    assert np.array_equal(predict_fractions(back, probs), predict_fractions(net, probs))


def test_power_net_load_rejects_other_kind(tmp_path, tiny_net):
    from cellsched import nncore

    net, _ = tiny_net
    path = tmp_path / "other.npz"
    nncore.save_model(net.model, path, extra_meta={"kind": "something"})
    with pytest.raises(nncore.ModelFormatError):
        PowerNet.load(path)


def test_gain_stats_fit_guard():
    stats = GainStats.fit(np.full(10, -80.0))
    assert stats.std_db == 1.0
    stats = GainStats.fit(np.array([-90.0, -70.0]))
    assert stats.mean_db == -80.0 and stats.std_db == 10.0


def test_reference_scale_forward():
    # Four-link network on a reference-scale drop: box holds, outputs finite.
    topo = cs.generate_topology(cs.SystemConfig(), seed=1)
    net = init_power_net(4, GainStats(-100.0, 15.0), init_seed=0)
    sched = cs.enumerate_schedules(4, 5)[1234]
    prob = cs.build_link_problem(topo, sched)
    alloc = predict_powers(net, prob)
    assert alloc.powers_w.shape == (4,)
    assert np.all(alloc.powers_w <= prob.p_max_w)
    assert np.isfinite(alloc.wsr_bps)
