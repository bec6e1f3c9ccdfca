import csv
import json
import time

import numpy as np
import pytest

import cellsched as cs
from cellsched import harness, powernet, schednet
from cellsched.harness import (
    DQN_DNN,
    DQN_GP,
    EXHAUSTIVE_GP,
    GREEDY_GP,
    GREEDY_MP,
    MAX_DNN,
    RANDOM_GP,
    MethodId,
    MethodKind,
    ModelBundle,
    benchmark,
    dqn_dnn_k,
    export,
    greedy_schedule,
    parse_method,
    run_method,
)
from cellsched.nncore import TrainConfig


def desk_cfg():
    return cs.SystemConfig(n_cells=2, users_per_cell=2, area_side_m=60.0)


@pytest.fixture(scope="module")
def small_models():
    cfg = desk_cfg()
    topos = [cs.generate_topology(cfg, seed=i) for i in range(10)]
    p_train, p_val = powernet.make_power_dataset(topos, cs.GpConfig(), val_fraction=0.2)
    pnet, _ = powernet.train_power_net(
        p_train, p_val, TrainConfig(epochs=6, batch_size=32, shuffle_seed=0), init_seed=0
    )
    s_train, s_val = schednet.make_sched_dataset(topos, pnet, val_fraction=0.2)
    snet, _ = schednet.train_sched_net(
        s_train, s_val, 2, 2, TrainConfig(epochs=3, batch_size=4, shuffle_seed=1),
        init_seed=1,
    )
    return ModelBundle(power=pnet, sched=snet)


def test_parse_method_labels():
    assert parse_method("exhaustive-gp") == EXHAUSTIVE_GP
    assert parse_method("Max-DNN") == MAX_DNN
    assert parse_method("dqn_dnn_5") == dqn_dnn_k(5)
    assert parse_method("DQN-DNN") == DQN_DNN
    with pytest.raises(ValueError):
        parse_method("what")
    assert dqn_dnn_k(5).label == "DQN-DNN-5"
    with pytest.raises(ValueError):
        MethodId(MethodKind.DQN_DNN_K, k=0)


def test_greedy_schedule_picks_max_weight():
    topo = cs.generate_topology(cs.SystemConfig(n_cells=1, users_per_cell=3), seed=2)
    sched = greedy_schedule(topo)
    slot, direction = sched.choices[0]
    picked = topo.weights[2 * topo.ue_index(0, slot) + int(direction)]
    assert picked == topo.weights.max()


def test_greedy_mp_single_cell_full_power():
    cfg = cs.SystemConfig(n_cells=1, users_per_cell=2)
    topo = cs.generate_topology(cfg, seed=5)
    run = run_method(GREEDY_MP, topo)
    slot, direction = run.schedule.choices[0]
    assert topo.weights[2 * topo.ue_index(0, slot) + int(direction)] == topo.weights.max()
    prob = cs.build_link_problem(topo, run.schedule)
    assert np.array_equal(run.alloc.powers_w, prob.p_max_w)


def test_missing_models_raise():
    topo = cs.generate_topology(desk_cfg(), seed=0)
    with pytest.raises(ValueError):
        run_method(MAX_DNN, topo)
    with pytest.raises(ValueError):
        run_method(DQN_GP, topo)


def test_dqn_dnn_k1_equals_dqn_dnn(small_models):
    topo = cs.generate_topology(desk_cfg(), seed=33)
    a = run_method(DQN_DNN, topo, small_models)
    b = run_method(dqn_dnn_k(1), topo, small_models)
    assert a.schedule.flat_index == b.schedule.flat_index
    assert np.array_equal(a.alloc.powers_w, b.alloc.powers_w)


def test_exhaustive_dominates_single_schedule_gp_methods(small_models):
    gp_cfg = cs.GpConfig()
    rng = np.random.default_rng(0)
    for seed in range(40, 45):
        topo = cs.generate_topology(desk_cfg(), seed=seed)
        exh = run_method(EXHAUSTIVE_GP, topo, small_models, gp_cfg)
        for method in (GREEDY_GP, RANDOM_GP, DQN_GP):
            other = run_method(method, topo, small_models, gp_cfg, rng=rng)
            assert exh.alloc.wsr_bps >= other.alloc.wsr_bps * (1.0 - 1e-6)


def test_superset_rule_exact(small_models):
    for seed in range(50, 56):
        topo = cs.generate_topology(desk_cfg(), seed=seed)
        w1 = run_method(dqn_dnn_k(1), topo, small_models).alloc.wsr_bps
        w3 = run_method(dqn_dnn_k(3), topo, small_models).alloc.wsr_bps
        w5 = run_method(dqn_dnn_k(5), topo, small_models).alloc.wsr_bps
        assert w5 >= w3 >= w1


def test_gp_iters_recorded(small_models):
    topo = cs.generate_topology(desk_cfg(), seed=60)
    exh = run_method(EXHAUSTIVE_GP, topo, small_models, cs.GpConfig())
    assert len(exh.gp_iters) == 16
    one = run_method(GREEDY_GP, topo, small_models, cs.GpConfig())
    assert len(one.gp_iters) == 1
    dnn = run_method(MAX_DNN, topo, small_models)
    assert dnn.gp_iters == []


def test_benchmark_paired_and_deterministic(small_models):
    methods = [EXHAUSTIVE_GP, MAX_DNN, GREEDY_MP, RANDOM_GP]
    a = benchmark(methods, 4, desk_cfg(), seed=9, gp_config=cs.GpConfig(),
                  models=small_models)
    b = benchmark(methods, 4, desk_cfg(), seed=9, gp_config=cs.GpConfig(),
                  models=small_models)
    assert a.topology_seeds == [9, 10, 11, 12]
    for label in ("Exhaustive-GP", "Max-DNN", "Greedy-MP", "Random-GP"):
        wa = [r.wsr_bps for r in a.records[label]]
        wb = [r.wsr_bps for r in b.records[label]]
        assert wa == wb
        seeds = [r.topology_seed for r in a.records[label]]
        assert seeds == a.topology_seeds  # every method sees the same drops


def test_benchmark_summary_loss_reference(small_models):
    report = benchmark([EXHAUSTIVE_GP, GREEDY_MP], 3, desk_cfg(), seed=21,
                       gp_config=cs.GpConfig(), models=small_models)
    by_label = {s.label: s for s in report.summary}
    assert by_label["Exhaustive-GP"].pct_loss == 0.0
    assert by_label["Greedy-MP"].pct_loss >= 0.0


def test_random_gp_uses_dedicated_stream(small_models):
    # with and without RANDOM_GP in the set, other methods' results match
    m_all = benchmark([GREEDY_GP, RANDOM_GP], 3, desk_cfg(), seed=13,
                      gp_config=cs.GpConfig(), models=small_models)
    m_sub = benchmark([GREEDY_GP], 3, desk_cfg(), seed=13,
                      gp_config=cs.GpConfig(), models=small_models)
    assert [r.wsr_bps for r in m_all.records["Greedy-GP"]] == [
        r.wsr_bps for r in m_sub.records["Greedy-GP"]
    ]


def test_export_files(small_models, tmp_path):
    methods = [EXHAUSTIVE_GP, MAX_DNN, GREEDY_GP, RANDOM_GP]
    report = benchmark(methods, 5, desk_cfg(), seed=3, gp_config=cs.GpConfig(),
                       models=small_models)
    files = export(report, tmp_path)
    names = {f.name for f in files}
    assert "summary.csv" in names and "manifest.json" in names
    assert "gp_iterations.csv" in names

    with open(tmp_path / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["method"] for r in rows] == [m.label for m in methods]
    ref = [r for r in rows if r["method"] == "Exhaustive-GP"][0]
    assert float(ref["mwsr_loss_pct"]) == 0.0

    with open(tmp_path / "cdf_exhaustive_gp.csv") as f:
        cdf_rows = list(csv.DictReader(f))
    assert len(cdf_rows) == 5  # one row per topology
    assert float(cdf_rows[-1]["cdf"]) == 1.0
    wsrs = [float(r["wsr_mbps"]) for r in cdf_rows]
    assert wsrs == sorted(wsrs)

    with open(tmp_path / "gp_iterations.csv") as f:
        iter_rows = list(csv.DictReader(f))
    assert {r["method"] for r in iter_rows} == {"Exhaustive-GP", "Greedy-GP", "Random-GP"}

    with open(tmp_path / "manifest.json") as f:
        manifest = json.load(f)
    assert manifest["base_seed"] == 3
    assert manifest["topology_seeds"] == [3, 4, 5, 6, 7]
    assert manifest["config"]["n_cells"] == 2
    assert "config_hash" in manifest and "version" in manifest


def test_timing_positive(small_models):
    topo = cs.generate_topology(desk_cfg(), seed=70)
    for method in (EXHAUSTIVE_GP, MAX_DNN, GREEDY_MP):
        run = run_method(method, topo, small_models, cs.GpConfig())
        assert run.time_s > 0.0


def test_time_s_includes_problem_construction():
    # At 4 x 5, building the 10 000 link problems is a large share of a
    # Max-DNN decision; time_s must account for it, not just the forward pass.
    topo = cs.generate_topology(cs.SystemConfig(), seed=8)
    stats = powernet.GainStats.fit(powernet.gains_to_db(topo.gains[topo.gains > 0]))
    models = ModelBundle(power=powernet.init_power_net(4, stats, init_seed=1))
    run_method(MAX_DNN, topo, models)  # warm the schedule tables
    for _ in range(3):
        t0 = time.perf_counter()
        run = run_method(MAX_DNN, topo, models)
        wall = time.perf_counter() - t0
        assert run.time_s >= 0.5 * wall


def test_max_dnn_dominates_dqn_dnn_5_exactly(small_models):
    for seed in range(80, 90):
        topo = cs.generate_topology(desk_cfg(), seed=seed)
        best = run_method(MAX_DNN, topo, small_models)
        d5 = run_method(dqn_dnn_k(5), topo, small_models)
        assert best.alloc.wsr_bps >= d5.alloc.wsr_bps
        # the same bits for a shared schedule: DQN-DNN-5's pick, valued as
        # Max-DNN values every schedule
        targets = schednet.schedule_wsr_targets(topo, small_models.power)
        assert targets[d5.schedule.flat_index] == d5.alloc.wsr_bps
        assert targets[best.schedule.flat_index] == best.alloc.wsr_bps


def _with(topo, **arrays):
    return cs.Topology(
        config=topo.config, nodes=topo.nodes, seed=topo.seed,
        gains=arrays.get("gains", topo.gains), weights=arrays.get("weights", topo.weights),
    )


@pytest.mark.parametrize("bad", ["negative gain", "nan gain", "weight above 1"])
def test_invalid_topology_raises_on_batched_paths(small_models, bad):
    topo = cs.generate_topology(desk_cfg(), seed=71)
    if bad == "negative gain":
        topo = _with(topo, gains=-topo.gains)
    elif bad == "nan gain":
        topo = _with(topo, gains=np.where(topo.gains > 0, np.nan, 0.0))
    else:
        topo = _with(topo, weights=np.full_like(topo.weights, 1.5))
    for method in (MAX_DNN, dqn_dnn_k(5), GREEDY_MP):
        with pytest.raises(ValueError):
            run_method(method, topo, small_models)
    with pytest.raises(ValueError):
        schednet.schedule_wsr_targets(topo, small_models.power)


def test_single_schedule_methods_at_large_n():
    # 10^9 schedules: a single decision must not touch the whole schedule space
    cfg = cs.SystemConfig(n_cells=9, users_per_cell=5, area_side_m=300.0)
    topo = cs.generate_topology(cfg, seed=3)
    for method in (GREEDY_GP, RANDOM_GP, GREEDY_MP):
        run = run_method(method, topo, rng=np.random.default_rng(0))
        assert run.alloc.powers_w.shape == (9,) and run.alloc.wsr_bps > 0.0
    sched = greedy_schedule(topo)
    row = cs.problem_batch(topo, [sched.flat_index])[0]
    one = cs.build_link_problem(topo, sched)
    for name in ("gains", "weights", "directions", "noise_w", "p_max_w"):
        assert np.array_equal(getattr(row, name), getattr(one, name))


def test_iteration_count_echo(desk_pipeline):
    # Schedules picked by the value network should need fewer GP rounds than
    # random ones (they sit closer to the full-power optimum basin).
    recs = desk_pipeline.report.records
    dqn_iters = np.mean([r.gp_mean_iters for r in recs["DQN-GP"]])
    rand_iters = np.mean([r.gp_mean_iters for r in recs["Random-GP"]])
    assert dqn_iters <= rand_iters
