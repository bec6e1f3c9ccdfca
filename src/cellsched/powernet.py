"""Power-allocation network: learn per-link power fractions from GP labels.

A link problem is encoded as three blocks — the gain matrix (dB-standardized),
the link weights, and the up/downlink flags — and the network regresses the
GP-optimal powers divided by their caps, so every output lives in [0, 1].

``predict_fractions`` is the one prediction path. It runs the network on
chunks of exactly ``FORWARD_CHUNK`` rows, zero-padding the last one: BLAS
matmul is not row-stable across matrix heights, but at a fixed height each
row's prediction is the same bits at any position in a batch of any size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nncore
from .gp import GpConfig, wsr_maximize
from .linkmodel import LinkProblem, ProblemBatch, problem_batch
from .nncore import Activation, BlockSpec, LayerSpec, MlpModel, MlpSpec, TrainConfig
from .topo import Topology, train_split_size

_DB_FLOOR = 1e-30  # linear-gain floor before taking logs

# Rows per power-net forward pass. Larger chunks cost a short batch (a
# DQN-DNN-k decision predicts k rows) more padding; 16 keeps that small.
FORWARD_CHUNK = 16


@dataclass(frozen=True)
class GainStats:
    """Corpus mean/std of gains in dB, used to standardize network inputs."""

    mean_db: float
    std_db: float

    @staticmethod
    def fit(gains_db: np.ndarray) -> "GainStats":
        std = float(np.std(gains_db))
        return GainStats(mean_db=float(np.mean(gains_db)), std_db=std if std > 1e-12 else 1.0)

    def standardize_db(self, gains_db: np.ndarray) -> np.ndarray:
        return (gains_db - self.mean_db) / self.std_db


def gains_to_db(gains_linear: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(gains_linear, _DB_FLOOR))


def default_power_spec(n_links: int) -> MlpSpec:
    """Input blocks G->64, w->32, u->32; trunk 256/128/64; sigmoid output.

    Matches the reference four-link architecture exactly at n_links=4; other
    sizes scale only the input and output widths.
    """
    if n_links < 1:
        raise ValueError("n_links must be >= 1")
    return MlpSpec(
        blocks=(
            BlockSpec("g", n_links * n_links, (LayerSpec(64, Activation.RELU),)),
            BlockSpec("w", n_links, (LayerSpec(32, Activation.RELU),)),
            BlockSpec("u", n_links, (LayerSpec(32, Activation.RELU),)),
        ),
        trunk=(
            LayerSpec(256, Activation.RELU),
            LayerSpec(128, Activation.RELU),
            LayerSpec(64, Activation.RELU),
        ),
        output=LayerSpec(n_links, Activation.SIGMOID),
    )


def encode_batch(batch: ProblemBatch, stats: GainStats) -> dict[str, np.ndarray]:
    """The net's input blocks, one row per problem of the batch: ``g`` the
    standardized dB gains (row-major), ``w`` the weights, ``u`` the link
    directions (1 = downlink). Deterministic given the corpus statistics;
    each row depends only on its own problem.
    """
    return {
        "g": stats.standardize_db(gains_to_db(batch.gains)).reshape(len(batch), -1),
        "w": batch.weights,
        "u": batch.directions.astype(float),
    }


@dataclass
class PowerDataset:
    """Columnar encoding of (problem, GP label) rows plus split bookkeeping."""

    g: np.ndarray  # (S, N*N) standardized dB
    w: np.ndarray  # (S, N)
    u: np.ndarray  # (S, N)
    target: np.ndarray  # (S, N)
    topo_ids: np.ndarray  # (S,)
    stats: GainStats
    drop_reasons: dict[str, int] = field(default_factory=dict)  # reason -> rows

    @property
    def n_samples(self) -> int:
        return self.target.shape[0]

    @property
    def n_dropped(self) -> int:
        return sum(self.drop_reasons.values())

    def inputs(self) -> dict[str, np.ndarray]:
        return {"g": self.g, "w": self.w, "u": self.u}

    def save(self, path) -> None:
        np.savez(
            path,
            g=self.g, w=self.w, u=self.u, target=self.target,
            topo_ids=self.topo_ids,
            stats=np.array([self.stats.mean_db, self.stats.std_db]),
            drop_reasons=np.array(json.dumps(self.drop_reasons)),
        )

    @staticmethod
    def load(path) -> "PowerDataset":
        with np.load(path) as d:
            return PowerDataset(
                g=d["g"], w=d["w"], u=d["u"], target=d["target"],
                topo_ids=d["topo_ids"],
                stats=GainStats(float(d["stats"][0]), float(d["stats"][1])),
                drop_reasons=_load_drop_reasons(d),
            )


def _load_drop_reasons(d) -> dict[str, int]:
    """Dropped-row counts by reason; files written before reasons were kept
    hold only a total, read as reason "unknown"."""
    if "drop_reasons" in d:
        return json.loads(str(d["drop_reasons"]))
    n_dropped = int(d["n_dropped"][0])
    return {"unknown": n_dropped} if n_dropped else {}


def make_power_dataset(
    topologies: Sequence[Topology],
    gp_config: GpConfig | None = None,
    val_fraction: float = 0.1,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[PowerDataset, PowerDataset]:
    """Label every (topology, schedule) pair with a GP solve.

    The split is by topology (see ``train_split_size``) and the gain
    statistics are fitted on the training rows only. A row is dropped, and
    counted under its reason, when the GP rejects its problem with a
    ``ValueError`` or returns non-finite powers; any other error propagates.
    Raises ``ValueError``, naming the drop reasons, when either split is left
    without rows.
    """
    n_train = train_split_size(topologies, val_fraction)
    drop_reasons: dict[str, int] = {}

    def drop(reason: str) -> None:
        drop_reasons[reason] = drop_reasons.get(reason, 0) + 1

    labelled = []  # per topology: its batch, kept row positions, their targets
    for ti, topo in enumerate(topologies):
        batch = problem_batch(topo)
        keep, targets = [], []
        for i in range(len(batch)):
            problem = batch[i]
            try:
                res = wsr_maximize(problem, gp_config)
            except ValueError as exc:
                drop(f"solver rejected the problem: {exc}")
                continue
            frac = res.alloc.powers_w / problem.p_max_w
            if not np.all(np.isfinite(frac)):
                drop("non-finite power fractions")
                continue
            keep.append(i)
            targets.append(np.clip(frac, 0.0, 1.0))
        labelled.append((batch, keep, targets))
        if progress is not None:
            progress(ti + 1, len(topologies))

    for name, part in (("training", labelled[:n_train]), ("validation", labelled[n_train:])):
        if not any(keep for _, keep, _ in part):
            raise ValueError(f"no {name} rows left; rows dropped by reason: {drop_reasons}")
    stats = GainStats.fit(np.concatenate([
        gains_to_db(batch.gains).reshape(len(batch), -1)[keep]
        for batch, keep, _ in labelled[:n_train]
    ]))

    def subset(part: list, first_id: int) -> PowerDataset:
        blocks: dict[str, list[np.ndarray]] = {"g": [], "w": [], "u": []}
        for batch, keep, _ in part:
            for name, x in encode_batch(batch, stats).items():
                blocks[name].append(x[keep])
        return PowerDataset(
            **{name: np.concatenate(xs) for name, xs in blocks.items()},
            target=np.asarray([t for _, _, targets in part for t in targets]),
            topo_ids=np.repeat(np.arange(first_id, first_id + len(part)),
                               [len(keep) for _, keep, _ in part]),
            stats=stats,
            drop_reasons=dict(drop_reasons),
        )

    return subset(labelled[:n_train], 0), subset(labelled[n_train:], n_train)


@dataclass
class PowerNet:
    """Trained power-allocation network plus its input statistics."""

    model: MlpModel
    stats: GainStats
    n_links: int

    def save(self, path) -> None:
        nncore.save_model(
            self.model,
            path,
            extra_meta={"kind": "powernet", "n_links": self.n_links},
            extra_arrays={"gain_stats": np.array([self.stats.mean_db, self.stats.std_db])},
        )

    @staticmethod
    def load(path) -> "PowerNet":
        model, meta, extras = nncore.load_model(path)
        if meta.get("kind") != "powernet":
            raise nncore.ModelFormatError(f"{path} is not a power network")
        s = extras["gain_stats"]
        return PowerNet(
            model=model,
            stats=GainStats(float(s[0]), float(s[1])),
            n_links=int(meta["n_links"]),
        )


def init_power_net(n_links: int, stats: GainStats, init_seed: int = 0) -> PowerNet:
    return PowerNet(
        model=MlpModel(default_power_spec(n_links), init_seed=init_seed),
        stats=stats,
        n_links=n_links,
    )


def train_power_net(
    train_set: PowerDataset,
    val_set: PowerDataset,
    config: TrainConfig | None = None,
    init_seed: int = 0,
) -> tuple[PowerNet, nncore.TrainReport]:
    n_links = int(np.sqrt(train_set.g.shape[1]))
    net = init_power_net(n_links, train_set.stats, init_seed)
    report = nncore.train(
        net.model,
        (train_set.inputs(), train_set.target),
        config or TrainConfig(),
        (val_set.inputs(), val_set.target),
    )
    return net, report


def predict_fractions(
    net: PowerNet, problems: ProblemBatch | Sequence[LinkProblem]
) -> np.ndarray:
    """Predicted power fractions, one row per problem.

    Each row is the same bits whatever the batch and position it comes in
    (see ``FORWARD_CHUNK``).
    """
    batch = problems if isinstance(problems, ProblemBatch) else ProblemBatch.stack(problems)
    if batch.n_links != net.n_links:
        raise ValueError(
            f"model expects {net.n_links} links, problems have {batch.n_links}"
        )
    s = len(batch)
    padded = -(-s // FORWARD_CHUNK) * FORWARD_CHUNK
    inputs = {}
    for name, x in encode_batch(batch, net.stats).items():
        inputs[name] = np.zeros((padded, x.shape[1]))
        inputs[name][:s] = x
    out = np.empty((padded, net.n_links))
    for start in range(0, padded, FORWARD_CHUNK):
        chunk = slice(start, start + FORWARD_CHUNK)
        out[chunk] = nncore.forward(net.model, {k: v[chunk] for k, v in inputs.items()})
    return out[:s]
