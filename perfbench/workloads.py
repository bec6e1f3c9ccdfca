"""The workloads and the pipeline every one of them runs.

Each workload runs the same five phases at its own scale: GP-label drops
(``make_power_dataset``), train the power net, build schedule targets
(``make_sched_dataset``), train the schedule net, and decide held-out drops
one at a time with the harness methods. The timed phase covers one pass of
that fixed, seed-determined work (``run_s``); after it, rounds of decisions
on fresh drops repeat until the run's seconds are spent, which only adds
latency samples and checked operations.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import cellsched as cs
from cellsched import harness, powernet, schednet
from cellsched.nncore import TrainConfig

import checker

DESK = cs.SystemConfig(n_cells=2, users_per_cell=2, area_side_m=60.0)
MID = cs.SystemConfig(n_cells=4, users_per_cell=2)
REF = cs.SystemConfig()
REF_LINKS = cs.SystemConfig(n_cells=4, users_per_cell=1)

# Labels use the default GP; decisions use the tight profile the acceptance
# suite benchmarks with, so every GP-based method solves the same problem
# the same way and Exhaustive-GP >= DQN-GP / Greedy-GP / Random-GP holds exactly.
GP_LABEL = cs.GpConfig()
GP_DECIDE = cs.GpConfig(outer_tol=1e-5, inner_grad_tol=1e-7, inner_max_iters=400)

# The methods of the gated latencies (plus DQN-DNN, which the DQN-DNN-5
# ordering check needs); they alone run in the rounds after the first pass.
DQN_FILL = (harness.DQN_GP, harness.DQN_DNN, harness.dqn_dnn_k(5))
ALL_DENSE = (harness.MAX_DNN, harness.DQN_GP, harness.DQN_DNN, harness.dqn_dnn_k(5),
             harness.GREEDY_GP, harness.GREEDY_MP, harness.RANDOM_GP)
NO_MAX_DNN = tuple(m for m in ALL_DENSE if m != harness.MAX_DNN)

SETUP_REPEATS = 3
# Drop-seed offsets inside one workload seed's block of a million seeds.
LABEL_SEEDS, SCHED_SEEDS, DECIDE_SEEDS, WARM_SEED = 0, 200_000, 400_000, 900_000


@dataclass(frozen=True)
class Workload:
    label_config: cs.SystemConfig  # drops GP-labelled for the power net
    config: cs.SystemConfig  # drops for schedule targets and decisions
    n_label: int
    label_val_fraction: float
    power_epochs: int
    n_sched: int
    sched_epochs: int
    sched_batch: int
    n_decide: int
    dense: tuple  # methods run on every held-out drop
    sparse: tuple  # methods run on the first n_sparse held-out drops only
    n_sparse: int
    fill: tuple = (harness.MAX_DNN,) + DQN_FILL  # methods of the rounds after the first pass


# Phase sizes keep each timed phase at a second or more, so that a short
# stall on a shared machine does not set a whole figure.
WORKLOADS = {
    "desk-pipeline": Workload(
        label_config=DESK, config=DESK, n_label=300, label_val_fraction=0.1,
        power_epochs=60, n_sched=800, sched_epochs=12, sched_batch=64,
        n_decide=200, dense=(harness.EXHAUSTIVE_GP,) + ALL_DENSE, sparse=(), n_sparse=0,
    ),
    # Labelling a 4x5 drop means 10 000 GP solves, so the reference power
    # net is labelled on 4x1 drops of the same square: their 16 link
    # problems each have the same 4 links, drawn the same way, and many
    # small drops average out the drop-to-drop spread in GP cost.
    "ref-decide": Workload(
        label_config=REF_LINKS, config=REF, n_label=128, label_val_fraction=0.25,
        power_epochs=50, n_sched=4, sched_epochs=3, sched_batch=8,
        n_decide=60, dense=NO_MAX_DNN, sparse=(harness.MAX_DNN,), n_sparse=8,
        fill=DQN_FILL,
    ),
    # Not in BENCHMARK.json: GP-labelling 4x2 drops (256 schedules each) is
    # the batch an Exhaustive-GP decision solves at 4 links, but the GP cost
    # of a drop varies too much for the few drops a run can afford; its
    # labelling rate spread 32 % over five seeds.
    "mid-oracle": Workload(
        label_config=MID, config=MID, n_label=4, label_val_fraction=0.25,
        power_epochs=100, n_sched=80, sched_epochs=15, sched_batch=16,
        n_decide=60, dense=ALL_DENSE, sparse=(), n_sparse=0,
    ),
}


def method_key(method) -> str:
    return method.label.lower().replace("-", "_")


@dataclass
class Inputs:
    label: list
    sched: list
    decide: list


def _setup(w: Workload, seed: int) -> Inputs:
    """Generate every drop, build untrained nets and warm every method up once."""
    base = seed * 1_000_000
    inputs = Inputs(
        label=[cs.generate_topology(w.label_config, base + LABEL_SEEDS + i) for i in range(w.n_label)],
        sched=[cs.generate_topology(w.config, base + SCHED_SEEDS + i) for i in range(w.n_sched)],
        decide=[cs.generate_topology(w.config, base + DECIDE_SEEDS + i) for i in range(w.n_decide)],
    )
    warm = cs.generate_topology(w.config, base + WARM_SEED)
    stats = powernet.GainStats.fit(powernet.gains_to_db(warm.gains[warm.gains > 0]))
    models = harness.ModelBundle(
        power=powernet.init_power_net(w.config.n_cells, stats, init_seed=1),
        sched=schednet.init_sched_net(w.config.n_cells, w.config.users_per_cell, stats, init_seed=2),
    )
    rng = np.random.default_rng(0)
    # Exhaustive-GP runs nothing the other GP methods and Max-DNN do not warm.
    for method in w.dense + w.sparse:
        if method != harness.EXHAUSTIVE_GP:
            harness.run_method(method, warm, models, GP_DECIDE, rng=rng)
    return inputs


def run(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """Run one workload; returns metrics, op counts and the extra figures."""
    w = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = _setup(w, seed)
        setups.append(time.perf_counter() - t)

    ops = {"attempted": 0, "failed": 0}
    failures: list[str] = []

    def check(fn, *args) -> None:
        ops["attempted"] += 1
        try:
            fn(*args)
        except checker.CheckError as exc:
            ops["failed"] += 1
            failures.append(str(exc))

    m: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(setups), "s")}
    extra: dict[str, tuple[float, str]] = {}
    t0 = time.perf_counter()

    # 1. GP labels for the power net.
    t = time.perf_counter()
    p_train, p_val = powernet.make_power_dataset(inputs.label, GP_LABEL, val_fraction=w.label_val_fraction)
    label_s = time.perf_counter() - t
    n_rows = len(inputs.label) * cs.schedule_count(w.label_config.n_cells, w.label_config.users_per_cell)
    m["label_rows_per_s"] = (n_rows / label_s, "rows/s")
    ops["attempted"] += p_train.n_dropped
    ops["failed"] += p_train.n_dropped
    for ds in (p_train, p_val):
        g_db = ds.g * ds.stats.std_db + ds.stats.mean_db
        for k in range(ds.n_samples):
            check(checker.check_label_row, w.label_config, g_db[k], ds.w[k], ds.u[k], ds.target[k])

    # 2. Power net.
    t = time.perf_counter()
    power_net, p_report = powernet.train_power_net(
        p_train, p_val,
        TrainConfig(epochs=w.power_epochs, batch_size=256, learning_rate=1e-3, shuffle_seed=1),
        init_seed=1,
    )
    train_s = time.perf_counter() - t
    m["power_train_samples_per_s"] = (p_train.n_samples * p_report.epochs_run / train_s, "samples/s")
    extra["power_val_mse"] = (min(p_report.val_mse), "1")
    check(checker.check_training, "power-net", p_report)

    # 3. Schedule targets.
    t = time.perf_counter()
    s_train, s_val = schednet.make_sched_dataset(inputs.sched, power_net, val_fraction=0.1)
    targets_s = time.perf_counter() - t
    n_targets = len(inputs.sched) * cs.schedule_count(w.config.n_cells, w.config.users_per_cell)
    m["sched_targets_per_s"] = (n_targets / targets_s, "schedules/s")

    # 4. Schedule net.
    t = time.perf_counter()
    sched_net, s_report = schednet.train_sched_net(
        s_train, s_val, w.config.n_cells, w.config.users_per_cell,
        TrainConfig(epochs=w.sched_epochs, batch_size=w.sched_batch, learning_rate=1e-3, shuffle_seed=2),
        init_seed=2,
    )
    train_s = time.perf_counter() - t
    m["sched_train_samples_per_s"] = (s_train.n_samples * s_report.epochs_run / train_s, "samples/s")
    check(checker.check_training, "schedule-net", s_report)

    # 5. Decisions, one at a time (closed loop, one caller).
    models = harness.ModelBundle(power=power_net, sched=sched_net)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    methods = w.dense + w.sparse
    latency = {method_key(x): [] for x in methods}
    first_wsr = {method_key(x): [] for x in methods}

    def decide(topo, chosen, record_wsr: bool) -> None:
        runs = {}
        for method in chosen:
            t = time.perf_counter()
            r = harness.run_method(method, topo, models, GP_DECIDE, rng=rng)
            latency[method_key(method)].append(time.perf_counter() - t)
            runs[method.label] = r
            if record_wsr:
                first_wsr[method_key(method)].append(r.alloc.wsr_bps)
        for r in runs.values():
            check(checker.check_decision, topo, r.schedule, r.alloc)
        check(checker.check_orderings, topo, runs)

    for i, topo in enumerate(inputs.decide):
        decide(topo, w.dense + (w.sparse if i < w.n_sparse else ()), True)
    m["run_s"] = (time.perf_counter() - t0, "s")

    # Extra rounds on fresh drops: GP cost spreads over two decades from
    # drop to drop, so a steady median needs many distinct drops.
    if tracer is not None:
        tracer.recording = False
    next_seed = seed * 1_000_000 + DECIDE_SEEDS + w.n_decide
    while time.perf_counter() - t0 < seconds:
        decide(cs.generate_topology(w.config, next_seed), w.fill, False)
        next_seed += 1

    for key in ("max_dnn", "dqn_gp", "dqn_dnn_5"):
        m[f"{key}.p50_ms"] = (statistics.median(latency[key]) * 1e3, "ms")
    m["dqn_dnn_5.wsr_mbps"] = (float(np.mean(first_wsr["dqn_dnn_5"])) / 1e6, "Mbit/s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    oracle = first_wsr.get("exhaustive_gp")
    for key, lat in latency.items():
        extra[f"{key}.p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        extra[f"{key}.n"] = (float(len(lat)), "count")
        wsr = first_wsr[key]
        extra[f"{key}.wsr_mbps"] = (float(np.mean(wsr)) / 1e6, "Mbit/s")
        if oracle and key != "exhaustive_gp":
            n = len(oracle)
            loss = 100.0 * (1.0 - float(np.mean(wsr[:n])) / float(np.mean(oracle)))
            extra[f"{key}.loss_vs_exhaustive_pct"] = (loss, "%")
    extra["dqn_dnn_5.p95_ms"] = (float(np.percentile(latency["dqn_dnn_5"], 95)) * 1e3, "ms")
    extra["power_net.epochs"] = (float(p_report.epochs_run), "count")
    extra["sched_net.epochs"] = (float(s_report.epochs_run), "count")
    extra["sched_val_mse"] = (min(s_report.val_mse), "1")
    return {"metrics": m, "extra": extra, "attempted": ops["attempted"],
            "failed": ops["failed"], "failures": failures[:20]}
