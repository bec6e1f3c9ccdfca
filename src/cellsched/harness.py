"""Head-to-head method comparison: WSR, decision time, GP iteration counts.

Every method maps a topology to (schedule, power allocation). The benchmark
runs all requested methods over the same topology sequence (paired
comparison) and exports mean-WSR / mean-time summaries, per-method empirical
CDF samples, and GP outer-iteration statistics.

Timing covers everything a method does to decide on a given topology:
schedule selection, link-problem construction, GP solves, network encoding
and forward passes, and the WSR evaluations it chooses by. Only topology
generation is excluded.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .gp import GpConfig, wsr_maximize
from .linkmodel import (
    Direction,
    PowerAlloc,
    ProblemBatch,
    Schedule,
    best_index,
    build_link_problem,
    evaluate_stacked,
    problem_batch,
    schedule_count,
)
from .powernet import PowerNet, predict_fractions
from .schednet import SchedNet, top_k_schedules
from .topo import SystemConfig, Topology, generate_topology


class MethodKind(str, Enum):
    EXHAUSTIVE_GP = "EXHAUSTIVE_GP"
    MAX_DNN = "MAX_DNN"
    DQN_GP = "DQN_GP"
    DQN_DNN = "DQN_DNN"
    DQN_DNN_K = "DQN_DNN_K"
    GREEDY_GP = "GREEDY_GP"
    GREEDY_MP = "GREEDY_MP"
    RANDOM_GP = "RANDOM_GP"


@dataclass(frozen=True)
class MethodId:
    kind: MethodKind
    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def label(self) -> str:
        names = {
            MethodKind.EXHAUSTIVE_GP: "Exhaustive-GP",
            MethodKind.MAX_DNN: "Max-DNN",
            MethodKind.DQN_GP: "DQN-GP",
            MethodKind.DQN_DNN: "DQN-DNN",
            MethodKind.GREEDY_GP: "Greedy-GP",
            MethodKind.GREEDY_MP: "Greedy-MP",
            MethodKind.RANDOM_GP: "Random-GP",
        }
        if self.kind == MethodKind.DQN_DNN_K:
            return f"DQN-DNN-{self.k}"
        return names[self.kind]

    @property
    def needs_power_net(self) -> bool:
        return self.kind in (MethodKind.MAX_DNN, MethodKind.DQN_DNN, MethodKind.DQN_DNN_K)

    @property
    def needs_sched_net(self) -> bool:
        return self.kind in (MethodKind.DQN_GP, MethodKind.DQN_DNN, MethodKind.DQN_DNN_K)


EXHAUSTIVE_GP = MethodId(MethodKind.EXHAUSTIVE_GP)
MAX_DNN = MethodId(MethodKind.MAX_DNN)
DQN_GP = MethodId(MethodKind.DQN_GP)
DQN_DNN = MethodId(MethodKind.DQN_DNN)
GREEDY_GP = MethodId(MethodKind.GREEDY_GP)
GREEDY_MP = MethodId(MethodKind.GREEDY_MP)
RANDOM_GP = MethodId(MethodKind.RANDOM_GP)


def dqn_dnn_k(k: int) -> MethodId:
    return MethodId(MethodKind.DQN_DNN_K, k=k)


def parse_method(label: str) -> MethodId:
    """Parse a CLI label like "exhaustive-gp" or "dqn-dnn-5"."""
    norm = label.strip().lower().replace("_", "-")
    fixed = {
        "exhaustive-gp": EXHAUSTIVE_GP,
        "max-dnn": MAX_DNN,
        "dqn-gp": DQN_GP,
        "dqn-dnn": DQN_DNN,
        "greedy-gp": GREEDY_GP,
        "greedy-mp": GREEDY_MP,
        "random-gp": RANDOM_GP,
    }
    if norm in fixed:
        return fixed[norm]
    if norm.startswith("dqn-dnn-"):
        return dqn_dnn_k(int(norm.rsplit("-", 1)[1]))
    raise ValueError(f"unknown method: {label}")


@dataclass
class ModelBundle:
    power: PowerNet | None = None
    sched: SchedNet | None = None


@dataclass
class MethodRun:
    """One method's outcome on one topology."""

    schedule: Schedule
    alloc: PowerAlloc
    time_s: float
    gp_iters: list[int] = field(default_factory=list)


def greedy_schedule(topology: Topology) -> Schedule:
    """Per cell, the (user, direction) with the highest weight; ties take the
    lowest choice index (user slot, downlink before uplink)."""
    cfg = topology.config
    m = cfg.users_per_cell
    choices = []
    for c in range(cfg.n_cells):
        best_val = -1.0
        best = (0, Direction.DOWNLINK)
        for slot in range(m):
            ue_i = topology.ue_index(c, slot)
            for direction in (Direction.DOWNLINK, Direction.UPLINK):
                wgt = topology.weights[2 * ue_i + int(direction)]
                if wgt > best_val:
                    best_val = wgt
                    best = (slot, direction)
        choices.append(best)
    return Schedule.from_choices(choices, m)


def run_method(
    method: MethodId,
    topology: Topology,
    models: ModelBundle | None = None,
    gp_config: GpConfig | None = None,
    rng: np.random.Generator | None = None,
) -> MethodRun:
    """Run one method on one topology; ``rng`` feeds RANDOM_GP only."""
    models = models or ModelBundle()
    if method.needs_power_net and models.power is None:
        raise ValueError(f"{method.label} requires a power-allocation model")
    if method.needs_sched_net and models.sched is None:
        raise ValueError(f"{method.label} requires a schedule-value model")
    t0 = time.perf_counter()
    schedule, alloc, gp_iters = _decide(method, topology, models, gp_config, rng)
    return MethodRun(schedule, alloc, time.perf_counter() - t0, gp_iters)


def _decide(
    method: MethodId,
    topology: Topology,
    models: ModelBundle,
    gp_config: GpConfig | None,
    rng: np.random.Generator | None,
) -> tuple[Schedule, PowerAlloc, list[int]]:
    cfg = topology.config
    kind = method.kind

    if kind == MethodKind.EXHAUSTIVE_GP:
        batch = problem_batch(topology)
        results = [wsr_maximize(batch[i], gp_config) for i in range(len(batch))]
        best = best_index([r.alloc.wsr_bps for r in results], batch.flat_index)
        schedule = Schedule.from_flat(int(batch.flat_index[best]), cfg.n_cells, cfg.users_per_cell)
        return schedule, results[best].alloc, [r.outer_iters for r in results]

    if kind == MethodKind.RANDOM_GP:
        if rng is None:
            rng = np.random.default_rng()
        total = schedule_count(cfg.n_cells, cfg.users_per_cell)
        schedule = Schedule.from_flat(int(rng.integers(total)), cfg.n_cells, cfg.users_per_cell)
        return _gp_on(schedule, topology, gp_config)

    if kind in (MethodKind.GREEDY_GP, MethodKind.GREEDY_MP):
        schedule = greedy_schedule(topology)
        if kind == MethodKind.GREEDY_GP:
            return _gp_on(schedule, topology, gp_config)
        batch = problem_batch(topology, [schedule.flat_index])
        return _best_row(batch, batch.p_max_w, cfg.users_per_cell)

    if kind == MethodKind.MAX_DNN:
        batch = problem_batch(topology)
    else:
        k = method.k if kind == MethodKind.DQN_DNN_K else 1
        candidates = top_k_schedules(models.sched, topology, k)
        if kind == MethodKind.DQN_GP:
            return _gp_on(candidates[0], topology, gp_config)
        batch = problem_batch(topology, [s.flat_index for s in candidates])
    fractions = predict_fractions(models.power, batch)
    return _best_row(batch, np.clip(fractions, 0.0, 1.0) * batch.p_max_w, cfg.users_per_cell)


def _gp_on(
    schedule: Schedule, topology: Topology, gp_config: GpConfig | None
) -> tuple[Schedule, PowerAlloc, list[int]]:
    res = wsr_maximize(build_link_problem(topology, schedule), gp_config)
    return schedule, res.alloc, [res.outer_iters]


def _best_row(
    batch: ProblemBatch, powers_w: np.ndarray, users_per_cell: int
) -> tuple[Schedule, PowerAlloc, list[int]]:
    """Evaluate one power row per problem and keep the best problem."""
    wsr, sinr, rate = evaluate_stacked(batch, powers_w)
    i = best_index(wsr, batch.flat_index)
    schedule = Schedule.from_flat(int(batch.flat_index[i]), batch.n_links, users_per_cell)
    alloc = PowerAlloc(
        powers_w=powers_w[i].copy(), sinr=sinr[i].copy(),
        rate_bps=rate[i].copy(), wsr_bps=float(wsr[i]),
    )
    return schedule, alloc, []


@dataclass
class MethodRecord:
    topology_seed: int
    wsr_bps: float
    time_s: float
    gp_mean_iters: float  # NaN when the method runs no GP


@dataclass
class SummaryRow:
    label: str
    mean_wsr_bps: float
    mean_time_s: float
    pct_loss: float  # vs EXHAUSTIVE_GP; NaN when the reference is absent
    gp_mean_iters: float


@dataclass
class RunReport:
    methods: list[MethodId]
    topology_seeds: list[int]
    records: dict[str, list[MethodRecord]]
    summary: list[SummaryRow]
    base_seed: int
    config: SystemConfig

    def cdf_samples(self, label: str) -> np.ndarray:
        return np.sort([r.wsr_bps for r in self.records[label]])


def benchmark(
    methods: Sequence[MethodId],
    n_topologies: int,
    config: SystemConfig,
    seed: int = 0,
    gp_config: GpConfig | None = None,
    models: ModelBundle | None = None,
    topologies: Sequence[Topology] | None = None,
) -> RunReport:
    """Paired comparison: every method sees the identical topology sequence.

    Topology i uses seed ``seed + i`` (or the supplied prebuilt topologies);
    RANDOM_GP draws from its own dedicated stream so the other methods'
    results are unaffected by its presence.
    """
    if n_topologies < 1:
        raise ValueError("n_topologies must be >= 1")
    if topologies is None:
        topologies = [generate_topology(config, seed + i) for i in range(n_topologies)]
    else:
        topologies = list(topologies)[:n_topologies]
    random_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    _warm_up(methods, topologies[0], models, gp_config)

    records: dict[str, list[MethodRecord]] = {m.label: [] for m in methods}
    for topo in topologies:
        for method in methods:
            run = run_method(method, topo, models, gp_config, rng=random_rng)
            records[method.label].append(
                MethodRecord(
                    topology_seed=topo.seed,
                    wsr_bps=run.alloc.wsr_bps,
                    time_s=run.time_s,
                    gp_mean_iters=float(np.mean(run.gp_iters)) if run.gp_iters else float("nan"),
                )
            )

    ref_label = EXHAUSTIVE_GP.label
    ref_mean = (
        float(np.mean([r.wsr_bps for r in records[ref_label]]))
        if ref_label in records
        else float("nan")
    )
    summary = []
    for method in methods:
        rs = records[method.label]
        mean_wsr = float(np.mean([r.wsr_bps for r in rs]))
        iters = [r.gp_mean_iters for r in rs if not np.isnan(r.gp_mean_iters)]
        summary.append(
            SummaryRow(
                label=method.label,
                mean_wsr_bps=mean_wsr,
                mean_time_s=float(np.mean([r.time_s for r in rs])),
                pct_loss=100.0 * (ref_mean - mean_wsr) / ref_mean
                if np.isfinite(ref_mean)
                else float("nan"),
                gp_mean_iters=float(np.mean(iters)) if iters else float("nan"),
            )
        )
    return RunReport(
        methods=list(methods),
        topology_seeds=[t.seed for t in topologies],
        records=records,
        summary=summary,
        base_seed=seed,
        config=config,
    )


def _warm_up(
    methods: Sequence[MethodId],
    topology: Topology,
    models: ModelBundle | None,
    gp_config: GpConfig | None,
) -> None:
    """One untimed pass per method so timed runs see warm caches and threads."""
    rng = np.random.default_rng(0)
    for method in methods:
        run_method(method, topology, models, gp_config, rng=rng)


def _config_hash(config: SystemConfig) -> str:
    from dataclasses import asdict

    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def export(report: RunReport, out_dir) -> list[Path]:
    """Write summary.csv, per-method CDF CSVs, gp_iterations.csv, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "summary.csv"
    with open(path, "w") as f:
        f.write("method,mean_wsr_mbps,mean_cpu_time_s,mwsr_loss_pct\n")
        for row in report.summary:
            f.write(
                f"{row.label},{row.mean_wsr_bps / 1e6:.6f},"
                f"{row.mean_time_s:.6e},{row.pct_loss:.4f}\n"
            )
    written.append(path)

    for method in report.methods:
        samples = report.cdf_samples(method.label)
        n = samples.size
        path = out / f"cdf_{method.label.lower().replace('-', '_')}.csv"
        with open(path, "w") as f:
            f.write("wsr_mbps,cdf\n")
            for i, v in enumerate(samples):
                f.write(f"{v / 1e6:.6f},{(i + 1) / n:.6f}\n")
        written.append(path)

    path = out / "gp_iterations.csv"
    with open(path, "w") as f:
        f.write("method,mean_gp_outer_iters\n")
        for row in report.summary:
            if np.isfinite(row.gp_mean_iters):
                f.write(f"{row.label},{row.gp_mean_iters:.4f}\n")
    written.append(path)

    from dataclasses import asdict

    path = out / "manifest.json"
    with open(path, "w") as f:
        json.dump(
            {
                "version": __version__,
                "base_seed": report.base_seed,
                "topology_seeds": report.topology_seeds,
                "methods": [m.label for m in report.methods],
                "config": asdict(report.config),
                "config_hash": _config_hash(report.config),
            },
            f,
            indent=2,
        )
    written.append(path)
    return written
