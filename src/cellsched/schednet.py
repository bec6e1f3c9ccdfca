"""Schedule-value network: regress per-schedule WSR and pick top-k candidates.

The whole topology (every pairwise gain plus all link weights) is encoded
into two fixed-width blocks and the network emits one value per schedule in
flat-index order. Targets are the WSRs the power network actually achieves,
so the selector is matched to the allocator it will be paired with. Targets
are standardized for training and predictions de-standardized on the way
out; the ordering is unaffected (positive affine map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nncore
from .linkmodel import Schedule, evaluate_stacked, problem_batch, schedule_count
from .nncore import Activation, BlockSpec, LayerSpec, MlpModel, MlpSpec, TrainConfig
from .powernet import GainStats, PowerNet, gains_to_db, predict_fractions
from .topo import Topology, train_split_size

# Reference input width for the pairwise-gains block; (N + N*M)^2 real values
# are zero-padded up to it (24 nodes -> 576 of 600 at reference scale).
H_BLOCK_MIN_WIDTH = 600

# Keep the dense output layer within sane memory bounds.
MAX_OUTPUT_WIDTH = 2**20


def h_block_width(n_cells: int, users_per_cell: int) -> int:
    n_nodes = n_cells * (1 + users_per_cell)
    return max(H_BLOCK_MIN_WIDTH, n_nodes * n_nodes)


def default_sched_spec(n_cells: int, users_per_cell: int) -> MlpSpec:
    """Blocks H and W feed straight into a 800/800/1200 trunk; linear output.

    Reproduces the reference architecture exactly at 4 cells x 5 users
    (inputs 600 + 40, output 10000).
    """
    if n_cells < 1 or users_per_cell < 1:
        raise ValueError("counts must be >= 1")
    n_out = schedule_count(n_cells, users_per_cell)
    if n_out > MAX_OUTPUT_WIDTH:
        raise ValueError(f"schedule space too large for one output layer: {n_out}")
    return MlpSpec(
        blocks=(
            BlockSpec("h", h_block_width(n_cells, users_per_cell)),
            BlockSpec("w", 2 * n_cells * users_per_cell),
        ),
        trunk=(
            LayerSpec(800, Activation.RELU),
            LayerSpec(800, Activation.RELU),
            LayerSpec(1200, Activation.RELU),
        ),
        output=LayerSpec(n_out, Activation.LINEAR),
    )


def encode_topology(topology: Topology, stats: GainStats) -> dict[str, np.ndarray]:
    """The net's input blocks: ``h`` the gain table (dB-standardized, zero
    diagonal, zero-padded to ``h_block_width``) and ``w`` all 2*N*M weights."""
    k = topology.config.n_nodes
    g_db = gains_to_db(topology.gains)
    std = stats.standardize_db(g_db)
    np.fill_diagonal(std, 0.0)
    width = h_block_width(topology.config.n_cells, topology.config.users_per_cell)
    h = np.zeros(width)
    h[: k * k] = std.ravel()
    return {"h": h, "w": topology.weights.astype(float)}


@dataclass
class SchedDataset:
    h: np.ndarray  # (S, h_width)
    w: np.ndarray  # (S, 2NM)
    target: np.ndarray  # (S, (2M)^N) standardized
    stats: GainStats
    target_mean: float
    target_std: float

    @property
    def n_samples(self) -> int:
        return self.target.shape[0]

    def inputs(self) -> dict[str, np.ndarray]:
        return {"h": self.h, "w": self.w}

    def save(self, path) -> None:
        np.savez(
            path,
            h=self.h, w=self.w, target=self.target,
            stats=np.array([self.stats.mean_db, self.stats.std_db]),
            target_norm=np.array([self.target_mean, self.target_std]),
        )

    @staticmethod
    def load(path) -> "SchedDataset":
        with np.load(path) as d:
            return SchedDataset(
                h=d["h"], w=d["w"], target=d["target"],
                stats=GainStats(float(d["stats"][0]), float(d["stats"][1])),
                target_mean=float(d["target_norm"][0]),
                target_std=float(d["target_norm"][1]),
            )


def schedule_wsr_targets(topology: Topology, power_net: PowerNet) -> np.ndarray:
    """Raw WSR (bit/s) achieved by the power network for every schedule."""
    batch = problem_batch(topology)
    fractions = predict_fractions(power_net, batch)
    wsr, _, _ = evaluate_stacked(batch, np.clip(fractions, 0.0, 1.0) * batch.p_max_w)
    return wsr


def make_sched_dataset(
    topologies: Sequence[Topology],
    power_net: PowerNet,
    val_fraction: float = 0.1,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[SchedDataset, SchedDataset]:
    """One sample per topology; targets standardized over the training corpus."""
    n_train = train_split_size(topologies, val_fraction)

    # Gain statistics come from the training topologies' off-diagonal gains.
    train_db = []
    for topo in topologies[:n_train]:
        g_db = gains_to_db(topo.gains)
        mask = ~np.eye(topo.config.n_nodes, dtype=bool)
        train_db.append(g_db[mask])
    stats = GainStats.fit(np.concatenate(train_db))

    rows_h, rows_w, rows_t = [], [], []
    for ti, topo in enumerate(topologies):
        enc = encode_topology(topo, stats)
        rows_h.append(enc["h"])
        rows_w.append(enc["w"])
        rows_t.append(schedule_wsr_targets(topo, power_net))
        if progress is not None:
            progress(ti + 1, len(topologies))

    targets = np.asarray(rows_t)
    t_mean = float(np.mean(targets[:n_train]))
    t_std = float(np.std(targets[:n_train]))
    if t_std <= 1e-12:
        t_std = 1.0
    targets = (targets - t_mean) / t_std

    def subset(sl: slice) -> SchedDataset:
        return SchedDataset(
            h=np.asarray(rows_h)[sl],
            w=np.asarray(rows_w)[sl],
            target=targets[sl],
            stats=stats,
            target_mean=t_mean,
            target_std=t_std,
        )

    return subset(slice(0, n_train)), subset(slice(n_train, len(topologies)))


@dataclass
class SchedNet:
    """Trained schedule-value network with input/target statistics."""

    model: MlpModel
    stats: GainStats
    target_mean: float
    target_std: float
    n_cells: int
    users_per_cell: int

    def save(self, path) -> None:
        nncore.save_model(
            self.model,
            path,
            extra_meta={
                "kind": "schednet",
                "n_cells": self.n_cells,
                "users_per_cell": self.users_per_cell,
            },
            extra_arrays={
                "gain_stats": np.array([self.stats.mean_db, self.stats.std_db]),
                "target_norm": np.array([self.target_mean, self.target_std]),
            },
        )

    @staticmethod
    def load(path) -> "SchedNet":
        model, meta, extras = nncore.load_model(path)
        if meta.get("kind") != "schednet":
            raise nncore.ModelFormatError(f"{path} is not a schedule network")
        s = extras["gain_stats"]
        tn = extras["target_norm"]
        return SchedNet(
            model=model,
            stats=GainStats(float(s[0]), float(s[1])),
            target_mean=float(tn[0]),
            target_std=float(tn[1]),
            n_cells=int(meta["n_cells"]),
            users_per_cell=int(meta["users_per_cell"]),
        )


def init_sched_net(
    n_cells: int,
    users_per_cell: int,
    stats: GainStats,
    target_mean: float = 0.0,
    target_std: float = 1.0,
    init_seed: int = 0,
) -> SchedNet:
    return SchedNet(
        model=MlpModel(default_sched_spec(n_cells, users_per_cell), init_seed=init_seed),
        stats=stats,
        target_mean=target_mean,
        target_std=target_std,
        n_cells=n_cells,
        users_per_cell=users_per_cell,
    )


def train_sched_net(
    train_set: SchedDataset,
    val_set: SchedDataset,
    n_cells: int,
    users_per_cell: int,
    config: TrainConfig | None = None,
    init_seed: int = 0,
) -> tuple[SchedNet, nncore.TrainReport]:
    net = init_sched_net(
        n_cells,
        users_per_cell,
        train_set.stats,
        train_set.target_mean,
        train_set.target_std,
        init_seed,
    )
    report = nncore.train(
        net.model,
        (train_set.inputs(), train_set.target),
        config or TrainConfig(),
        (val_set.inputs(), val_set.target),
    )
    return net, report


def _check_topology(net: SchedNet, topology: Topology) -> None:
    cfg = topology.config
    if cfg.n_cells != net.n_cells or cfg.users_per_cell != net.users_per_cell:
        raise ValueError(
            f"model was built for N={net.n_cells}, M={net.users_per_cell}; "
            f"topology has N={cfg.n_cells}, M={cfg.users_per_cell}"
        )


def predict_values(net: SchedNet, topology: Topology) -> np.ndarray:
    """Estimated WSR (bit/s) for every schedule, indexed by flat index."""
    _check_topology(net, topology)
    raw = nncore.forward(net.model, encode_topology(topology, net.stats))
    return raw * net.target_std + net.target_mean


def top_k_schedules(net: SchedNet, topology: Topology, k: int) -> list[Schedule]:
    """The k schedules with the highest predicted value, best first.

    Ties break toward the lower flat index. k=1 is the plain argmax selection.
    """
    _check_topology(net, topology)
    total = schedule_count(net.n_cells, net.users_per_cell)
    if not 1 <= k <= total:
        raise ValueError(f"k must lie in [1, {total}], got {k}")
    values = predict_values(net, topology)
    order = np.lexsort((np.arange(total), -values))[:k]
    return [Schedule.from_flat(int(i), net.n_cells, net.users_per_cell) for i in order]
