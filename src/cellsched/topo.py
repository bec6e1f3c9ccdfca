"""Random small-cell topologies and pairwise channel gains.

One "drop" = N base stations in a square area, M users per cell placed in an
annulus around their serving BS, plus a full table of linear power gains
between every ordered node pair (path loss + log-normal shadowing, block
fading). Per-link scheduling weights are drawn uniform [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import Sequence

import numpy as np

TOPOLOGY_FORMAT_VERSION = 1


class GeometryInfeasibleError(RuntimeError):
    """Raised when rejection sampling cannot satisfy the geometric constraints."""


class NodeKind(str, Enum):
    BS = "BS"
    UE = "UE"


class PathLossKind(str, Enum):
    BS_UE_LOS = "BS_UE_LOS"
    BS_UE_NLOS = "BS_UE_NLOS"
    UE_UE = "UE_UE"
    BS_BS = "BS_BS"


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters. Defaults give 4 cells of 5 users in a 120 m square."""

    n_cells: int = 4
    users_per_cell: int = 5
    area_side_m: float = 120.0
    bs_min_sep_m: float = 40.0
    ue_min_dist_m: float = 10.0
    ue_max_dist_m: float = 40.0
    bandwidth_hz: float = 10e6
    bs_max_power_dbm: float = 24.0
    ue_max_power_dbm: float = 23.0
    bs_noise_figure_db: float = 12.0
    ue_noise_figure_db: float = 9.0
    noise_density_dbm_hz: float = -174.0  # thermal floor; the source gives only NFs
    se_cap_bps_hz: float = 7.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cells < 1 or self.users_per_cell < 1:
            raise ValueError("n_cells and users_per_cell must be >= 1")
        if not (0 < self.ue_min_dist_m < self.ue_max_dist_m):
            raise ValueError("need 0 < ue_min_dist_m < ue_max_dist_m")
        if self.area_side_m <= 0 or self.bs_min_sep_m <= 0:
            raise ValueError("distances must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def n_nodes(self) -> int:
        return self.n_cells * (1 + self.users_per_cell)

    @property
    def n_ues(self) -> int:
        return self.n_cells * self.users_per_cell

    def max_power_w(self, kind: NodeKind) -> float:
        dbm = self.bs_max_power_dbm if kind == NodeKind.BS else self.ue_max_power_dbm
        return dbm_to_w(dbm)


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    position: tuple[float, float]
    cell: int
    max_power_w: float
    noise_figure_db: float


@dataclass(frozen=True)
class Topology:
    """One drop: nodes (BSs first, then UEs grouped by cell), gains, weights.

    ``gains[a, b]`` is the linear power gain from transmitter node ``a`` to
    receiver node ``b``; the diagonal is 0 by convention. ``weights[2*i]`` and
    ``weights[2*i + 1]`` are the downlink / uplink weights of UE ``i`` (UE
    indices follow node order, i.e. node ``n_cells + i``).
    """

    config: SystemConfig
    nodes: tuple[Node, ...]
    gains: np.ndarray
    weights: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        self.gains.setflags(write=False)
        self.weights.setflags(write=False)

    def bs_node(self, cell: int) -> Node:
        return self.nodes[cell]

    def ue_node(self, cell: int, slot: int) -> Node:
        m = self.config.users_per_cell
        return self.nodes[self.config.n_cells + cell * m + slot]

    def ue_index(self, cell: int, slot: int) -> int:
        """Global UE index (0-based, node id minus n_cells)."""
        return cell * self.config.users_per_cell + slot


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def path_loss_db(kind: PathLossKind, distance_m: float) -> float:
    """Path loss in dB for one link type at the given distance.

    BS-UE formulas take the distance in kilometers; the far UE-UE branch is
    the one formula stated over meters. BS-BS reuses the BS-UE NLOS law.
    """
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    r_km = distance_m / 1000.0
    if kind == PathLossKind.BS_UE_LOS:
        return 103.8 + 20.9 * math.log10(r_km)
    if kind in (PathLossKind.BS_UE_NLOS, PathLossKind.BS_BS):
        return 145.4 + 37.5 * math.log10(r_km)
    if kind == PathLossKind.UE_UE:
        if distance_m <= 50.0:
            return 98.45 + 20.0 * math.log10(r_km)
        return 55.78 + 40.0 * math.log10(distance_m)
    raise ValueError(f"unknown path loss kind: {kind}")


def los_probability(distance_m: float) -> float:
    """LOS probability for a BS-UE link (pico outdoor model), clamped to [0, 1]."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    r = distance_m
    p = 0.5 - min(0.5, 5.0 * math.exp(-156.0 / r)) + min(0.5, 5.0 * math.exp(-r / 30.0))
    return min(1.0, max(0.0, p))


def gain_linear(pl_db: float, shadow_db: float) -> float:
    """Linear power gain 10^(-(PL + shadow)/10)."""
    return 10.0 ** (-(pl_db + shadow_db) / 10.0)


# Shadowing standard deviations (dB) per link type; LOS BS-UE is tighter.
SHADOW_STD_LOS_DB = 3.0
SHADOW_STD_NLOS_DB = 4.0


def channel_gain_linear(
    tx: Node, rx: Node, shadow_db: float, los: bool = False
) -> float:
    """Linear gain between two nodes given a shadowing draw (and LOS flag for BS-UE)."""
    if tx.id == rx.id:
        raise ValueError("tx and rx must differ")
    d = math.dist(tx.position, rx.position)
    kinds = {tx.kind, rx.kind}
    if kinds == {NodeKind.BS, NodeKind.UE}:
        kind = PathLossKind.BS_UE_LOS if los else PathLossKind.BS_UE_NLOS
    elif kinds == {NodeKind.UE}:
        kind = PathLossKind.UE_UE
    else:
        kind = PathLossKind.BS_BS
    return gain_linear(path_loss_db(kind, d), shadow_db)


def noise_power_w(config: SystemConfig, receiver_kind: NodeKind) -> float:
    """Receiver thermal noise power in watts over the system bandwidth."""
    nf = (
        config.bs_noise_figure_db
        if receiver_kind == NodeKind.BS
        else config.ue_noise_figure_db
    )
    dbm = config.noise_density_dbm_hz + 10.0 * math.log10(config.bandwidth_hz) + nf
    return dbm_to_w(dbm)


def _place_bs(
    config: SystemConfig, rng: np.random.Generator, budget: list[int]
) -> np.ndarray | None:
    """Sequential rejection sampling of BS positions; None if a placement stalls."""
    pos = np.empty((config.n_cells, 2))
    placed = 0
    while placed < config.n_cells:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        cand = rng.uniform(0.0, config.area_side_m, size=2)
        if placed == 0 or np.all(
            np.hypot(*(pos[:placed] - cand).T) >= config.bs_min_sep_m
        ):
            pos[placed] = cand
            placed += 1
    return pos


def _draw_drop(
    config: SystemConfig, rng: np.random.Generator, budget: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One candidate drop: positions, gains, and the strongest-BS association.

    Returns None if the drop must be rejected (association unbalances the
    cells or moves a UE outside its serving annulus).
    """
    n, m = config.n_cells, config.users_per_cell
    bs_pos = _place_bs(config, rng, budget)
    if bs_pos is None:
        return None

    # UEs born uniformly (by area) in the annulus of their parent BS.
    radii = np.sqrt(
        rng.uniform(config.ue_min_dist_m**2, config.ue_max_dist_m**2, size=n * m)
    )
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n * m)
    parent = np.repeat(np.arange(n), m)
    ue_pos = bs_pos[parent] + np.stack(
        [radii * np.cos(angles), radii * np.sin(angles)], axis=1
    )

    positions = np.vstack([bs_pos, ue_pos])
    k = n + n * m
    dists = np.hypot(
        positions[:, 0][:, None] - positions[:, 0][None, :],
        positions[:, 1][:, None] - positions[:, 1][None, :],
    )

    # Block fading: one PL + shadowing realization per unordered pair
    # (reciprocal links share it). LOS/NLOS decided once per BS-UE pair.
    gains = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            a_is_bs = a < n
            b_is_bs = b < n
            if a_is_bs and b_is_bs:
                kind, sigma = PathLossKind.BS_BS, SHADOW_STD_NLOS_DB
            elif not a_is_bs and not b_is_bs:
                kind, sigma = PathLossKind.UE_UE, SHADOW_STD_NLOS_DB
            else:
                los = rng.uniform() < los_probability(dists[a, b])
                kind = PathLossKind.BS_UE_LOS if los else PathLossKind.BS_UE_NLOS
                sigma = SHADOW_STD_LOS_DB if los else SHADOW_STD_NLOS_DB
            shadow = rng.normal(0.0, sigma)
            g = gain_linear(path_loss_db(kind, dists[a, b]), shadow)
            gains[a, b] = g
            gains[b, a] = g

    # Strongest-gain association; reject drops that unbalance the cells or
    # strand a UE outside the serving annulus.
    ue_to_bs = gains[n:, :n]
    assoc = np.argmax(ue_to_bs, axis=1)
    if np.any(np.bincount(assoc, minlength=n) != m):
        return None
    serve_d = dists[n + np.arange(n * m), assoc]
    if np.any(serve_d < config.ue_min_dist_m) or np.any(
        serve_d > config.ue_max_dist_m
    ):
        return None

    # Regroup UEs by serving cell (stable within a cell) and permute gains.
    order = np.lexsort((np.arange(n * m), assoc))
    perm = np.concatenate([np.arange(n), n + order])
    return positions[perm], gains[np.ix_(perm, perm)], assoc[order]


def generate_topology(
    config: SystemConfig, seed: int | None = None, max_attempts: int = 10_000
) -> Topology:
    """Generate one random drop; deterministic for a fixed seed.

    Raises GeometryInfeasibleError if the constraints cannot be met within
    ``max_attempts`` rejection-sampling attempts.
    """
    if seed is None:
        seed = config.rng_seed
    rng = np.random.default_rng(seed)
    budget = [max_attempts]
    drop = None
    for _ in range(max_attempts):
        drop = _draw_drop(config, rng, budget)
        if drop is not None:
            break
        if budget[0] <= 0:
            break
    if drop is None:
        raise GeometryInfeasibleError(
            f"geometry infeasible: no valid drop in {max_attempts} attempts "
            f"(n_cells={config.n_cells}, area={config.area_side_m} m, "
            f"bs_min_sep={config.bs_min_sep_m} m)"
        )
    positions, gains, assoc = drop

    n, m = config.n_cells, config.users_per_cell
    weights = rng.uniform(0.0, 1.0, size=2 * n * m)

    nodes = [
        Node(
            id=c,
            kind=NodeKind.BS,
            position=(float(positions[c, 0]), float(positions[c, 1])),
            cell=c,
            max_power_w=config.max_power_w(NodeKind.BS),
            noise_figure_db=config.bs_noise_figure_db,
        )
        for c in range(n)
    ]
    for i in range(n * m):
        nodes.append(
            Node(
                id=n + i,
                kind=NodeKind.UE,
                position=(float(positions[n + i, 0]), float(positions[n + i, 1])),
                cell=int(assoc[i]),
                max_power_w=config.max_power_w(NodeKind.UE),
                noise_figure_db=config.ue_noise_figure_db,
            )
        )
    return Topology(
        config=config, nodes=tuple(nodes), gains=gains, weights=weights, seed=seed
    )


def train_split_size(topologies: Sequence[Topology], val_fraction: float) -> int:
    """Topologies in the training split of a dataset built from ``topologies``.

    The last ceil(val_fraction * n) topologies (at least one) validate and
    the rest train. Raises ``ValueError`` unless there are at least 2
    topologies, at least one trains, and all share n_cells and users_per_cell.
    """
    if len(topologies) < 2:
        raise ValueError("need at least 2 topologies to split train/validation")
    n_val = max(1, int(np.ceil(val_fraction * len(topologies))))
    n_train = len(topologies) - n_val
    if n_train < 1:
        raise ValueError("val_fraction leaves no training topologies")
    shapes = {(t.config.n_cells, t.config.users_per_cell) for t in topologies}
    if len(shapes) > 1:
        raise ValueError("all topologies must share n_cells and users_per_cell")
    return n_train


def topology_to_dict(topology: Topology) -> dict:
    """JSON-ready dict: config, nodes, row-major linear gains, weights."""
    return {
        "format_version": TOPOLOGY_FORMAT_VERSION,
        "seed": topology.seed,
        "config": asdict(topology.config),
        "nodes": [
            {
                "id": nd.id,
                "kind": nd.kind.value,
                "position": list(nd.position),
                "cell": nd.cell,
                "max_power_w": nd.max_power_w,
                "noise_figure_db": nd.noise_figure_db,
            }
            for nd in topology.nodes
        ],
        "gains": topology.gains.ravel().tolist(),
        "weights": topology.weights.tolist(),
    }


def topology_from_dict(data: dict) -> Topology:
    if data.get("format_version") != TOPOLOGY_FORMAT_VERSION:
        raise ValueError(f"unsupported topology format: {data.get('format_version')}")
    config = SystemConfig(**data["config"])
    k = config.n_nodes
    gains = np.asarray(data["gains"], dtype=float).reshape(k, k)
    weights = np.asarray(data["weights"], dtype=float)
    nodes = tuple(
        Node(
            id=nd["id"],
            kind=NodeKind(nd["kind"]),
            position=(nd["position"][0], nd["position"][1]),
            cell=nd["cell"],
            max_power_w=nd["max_power_w"],
            noise_figure_db=nd["noise_figure_db"],
        )
        for nd in data["nodes"]
    )
    return Topology(
        config=config, nodes=nodes, gains=gains, weights=weights, seed=data["seed"]
    )


def save_topology(topology: Topology, path) -> None:
    with open(path, "w") as f:
        json.dump(topology_to_dict(topology), f)


def load_topology(path) -> Topology:
    with open(path) as f:
        return topology_from_dict(json.load(f))
