"""Schedule space, per-schedule link problems, and SINR / weighted sum-rate.

A schedule activates exactly one link per cell: a (user slot, direction)
choice. With N cells and M users per cell there are (2M)^N schedules; each
induces an N-link power-allocation problem. ``problem_batch`` builds the
problems of many schedules at once, as a ``ProblemBatch`` of stacked arrays;
``build_link_problem`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .topo import NodeKind, Topology, noise_power_w

# Refuse to materialize schedule spaces past this size.
MAX_SCHEDULE_COUNT = 2**31 - 1


class Direction(IntEnum):
    DOWNLINK = 0
    UPLINK = 1


@dataclass(frozen=True)
class Schedule:
    """One (user slot, direction) choice per cell plus its flat index."""

    choices: tuple[tuple[int, Direction], ...]
    flat_index: int

    @staticmethod
    def from_choices(
        choices: Sequence[tuple[int, Direction]], users_per_cell: int
    ) -> "Schedule":
        base = 2 * users_per_cell
        flat = 0
        for c, (slot, direction) in enumerate(choices):
            if not 0 <= slot < users_per_cell:
                raise ValueError(f"user slot {slot} out of range for M={users_per_cell}")
            flat += (2 * slot + int(direction)) * base**c
        return Schedule(
            choices=tuple((s, Direction(d)) for s, d in choices), flat_index=flat
        )

    @staticmethod
    def from_flat(flat_index: int, n_cells: int, users_per_cell: int) -> "Schedule":
        base = 2 * users_per_cell
        total = base**n_cells
        if not 0 <= flat_index < total:
            raise ValueError(f"flat_index {flat_index} out of range [0, {total})")
        rem = flat_index
        choices = []
        for _ in range(n_cells):
            digit = rem % base
            rem //= base
            choices.append((digit // 2, Direction(digit % 2)))
        return Schedule(choices=tuple(choices), flat_index=flat_index)


def schedule_count(n_cells: int, users_per_cell: int) -> int:
    return (2 * users_per_cell) ** n_cells


def enumerate_schedules(n_cells: int, users_per_cell: int) -> list[Schedule]:
    """All (2M)^N schedules in ascending flat-index order."""
    if n_cells < 1 or users_per_cell < 1:
        raise ValueError("n_cells and users_per_cell must be >= 1")
    total = schedule_count(n_cells, users_per_cell)
    if total > MAX_SCHEDULE_COUNT:
        raise ValueError(
            f"schedule space too large to enumerate: (2*{users_per_cell})^{n_cells}"
            f" = {total} > {MAX_SCHEDULE_COUNT}"
        )
    return [Schedule.from_flat(k, n_cells, users_per_cell) for k in range(total)]


def _check_problems(
    gains: np.ndarray, weights: np.ndarray, noise_w: np.ndarray, p_max_w: np.ndarray
) -> None:
    """Validate one link problem, or a stack of them along the leading axes."""
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")
    if not (gains.diagonal(0, -2, -1) > 0).all():
        raise ValueError("diagonal (signal) gains must be positive")
    if (gains < 0).any():
        raise ValueError("gains must be non-negative")
    if not ((noise_w > 0).all() and (p_max_w > 0).all()):
        raise ValueError("noise and power caps must be positive")
    if not ((weights >= 0) & (weights <= 1)).all():
        raise ValueError("weights must lie in [0, 1]")


@dataclass(frozen=True)
class LinkProblem:
    """The N active links induced by one schedule.

    ``gains[i, j]`` is the linear gain from the transmitter of link j to the
    receiver of link i; ``directions[i]`` is 1 for downlink and 0 for uplink.
    """

    gains: np.ndarray
    weights: np.ndarray
    directions: np.ndarray
    noise_w: np.ndarray
    p_max_w: np.ndarray
    bandwidth_hz: float
    se_cap_bps_hz: float = 7.0

    def __post_init__(self) -> None:
        g = self.gains
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gains must be a square matrix")
        _check_problems(g, self.weights, self.noise_w, self.p_max_w)
        for arr in (self.gains, self.weights, self.directions, self.noise_w, self.p_max_w):
            arr.setflags(write=False)

    @property
    def n_links(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class PowerAlloc:
    """Per-link powers with the resulting SINR, capped rate, and WSR."""

    powers_w: np.ndarray
    sinr: np.ndarray
    rate_bps: np.ndarray
    wsr_bps: float

    def __post_init__(self) -> None:
        for arr in (self.powers_w, self.sinr, self.rate_bps):
            arr.setflags(write=False)


@dataclass(frozen=True)
class ProblemBatch:
    """S link problems of N links each, stacked as arrays; ``batch[i]`` is
    problem i as a ``LinkProblem``. Every row is validated as a ``LinkProblem``
    is, once for the whole stack.

    ``flat_index[i]`` is the flat index of the schedule that induced row i
    (or the row number, for a batch stacked from bare problems).
    """

    gains: np.ndarray  # (S, N, N)
    weights: np.ndarray  # (S, N)
    directions: np.ndarray  # (S, N), 1 = downlink
    noise_w: np.ndarray  # (S, N)
    p_max_w: np.ndarray  # (S, N)
    flat_index: np.ndarray  # (S,)
    bandwidth_hz: float
    se_cap_bps_hz: float

    def __post_init__(self) -> None:
        g = self.gains
        if g.ndim != 3 or g.shape[1] != g.shape[2]:
            raise ValueError("gains must be a stack of square matrices")
        _check_problems(g, self.weights, self.noise_w, self.p_max_w)

    def __len__(self) -> int:
        return self.gains.shape[0]

    @property
    def n_links(self) -> int:
        return self.gains.shape[-1]

    def __getitem__(self, i: int) -> LinkProblem:
        return LinkProblem(
            gains=self.gains[i],
            weights=self.weights[i],
            directions=self.directions[i],
            noise_w=self.noise_w[i],
            p_max_w=self.p_max_w[i],
            bandwidth_hz=self.bandwidth_hz,
            se_cap_bps_hz=self.se_cap_bps_hz,
        )

    @staticmethod
    def stack(problems: Sequence[LinkProblem]) -> "ProblemBatch":
        if not problems:
            raise ValueError("no problems to stack")
        return ProblemBatch(
            gains=np.stack([p.gains for p in problems]),
            weights=np.stack([p.weights for p in problems]),
            directions=np.stack([p.directions for p in problems]),
            noise_w=np.stack([p.noise_w for p in problems]),
            p_max_w=np.stack([p.p_max_w for p in problems]),
            flat_index=np.arange(len(problems)),
            bandwidth_hz=problems[0].bandwidth_hz,
            se_cap_bps_hz=problems[0].se_cap_bps_hz,
        )


def _flat_digits(flat: np.ndarray, n_cells: int, users_per_cell: int) -> np.ndarray:
    """(S, N) schedule digits ``2 * slot + direction`` of the given flat indices."""
    base = 2 * users_per_cell
    digits = np.empty((len(flat), n_cells), dtype=np.intp)
    rem = flat
    for c in range(n_cells):
        rem, digits[:, c] = np.divmod(rem, base)
    return digits


Links = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _schedule_links(digits: np.ndarray, users_per_cell: int) -> Links:
    """Tx node, rx node, weight index and downlink flag of every cell's link,
    each (S, N), for rows of (S, N) schedule digits.

    Nodes are BSs first, then UEs grouped by cell.
    """
    n_cells = digits.shape[1]
    slot, uplink = np.divmod(digits, 2)
    bs = np.arange(n_cells)
    ue = bs * users_per_cell + slot
    ue_node = n_cells + ue
    hop = uplink * (ue_node - bs)  # an uplink runs from the UE to the BS
    return bs + hop, ue_node - hop, 2 * ue + uplink, 1 - uplink


@lru_cache(maxsize=4)
def _all_schedule_links(n_cells: int, users_per_cell: int) -> Links:
    """``_schedule_links`` of every schedule in flat-index order; depends only
    on (N, M)."""
    total = schedule_count(n_cells, users_per_cell)
    if total > MAX_SCHEDULE_COUNT:
        raise ValueError(f"schedule space too large to batch: {total}")
    links = _schedule_links(_flat_digits(np.arange(total), n_cells, users_per_cell), users_per_cell)
    for arr in links:
        arr.setflags(write=False)
    return links


def _gather(topology: Topology, links: Links) -> dict[str, np.ndarray]:
    """Stacked link-problem arrays of the schedules whose links are ``links``."""
    cfg = topology.config
    tx, rx, w_idx, downlink = links
    p_max = np.array([node.max_power_w for node in topology.nodes])
    # receiver noise by downlink flag: uplink links end at a BS
    noise = np.array([noise_power_w(cfg, NodeKind.BS), noise_power_w(cfg, NodeKind.UE)])
    return {
        # gains[s, i, j]: from the tx of link j to the rx of link i
        "gains": topology.gains[tx[:, None, :], rx[:, :, None]],
        "weights": topology.weights[w_idx],
        "directions": downlink,
        "noise_w": noise[downlink],
        "p_max_w": p_max[tx],
    }


def problem_batch(
    topology: Topology, flat_index: Sequence[int] | np.ndarray | None = None
) -> ProblemBatch:
    """The link problems of the given schedules (all, in flat order, by default).

    Raises ``ValueError`` if the topology yields an invalid problem (see
    ``LinkProblem``).
    """
    cfg = topology.config
    n, m = cfg.n_cells, cfg.users_per_cell
    if flat_index is None:
        links = _all_schedule_links(n, m)
        flat = np.arange(len(links[0]))
    else:
        total = schedule_count(n, m)
        flat = np.asarray(flat_index, dtype=np.intp)
        if flat.ndim != 1 or np.any(flat < 0) or (
            total <= np.iinfo(np.intp).max and np.any(flat >= total)
        ):
            raise ValueError(f"flat indices must be a 1-D array in [0, {total})")
        links = _schedule_links(_flat_digits(flat, n, m), m)
    return ProblemBatch(
        **_gather(topology, links),
        flat_index=flat,
        bandwidth_hz=cfg.bandwidth_hz,
        se_cap_bps_hz=cfg.se_cap_bps_hz,
    )


def build_link_problem(topology: Topology, schedule: Schedule) -> LinkProblem:
    """Resolve a schedule against a topology into its N-link problem."""
    cfg = topology.config
    n, m = cfg.n_cells, cfg.users_per_cell
    if len(schedule.choices) != n:
        raise ValueError(
            f"schedule has {len(schedule.choices)} cells, topology has {n}"
        )
    digits = []
    for slot, direction in schedule.choices:
        if not 0 <= slot < m:
            raise ValueError(f"user slot {slot} out of range for M={m}")
        digits.append(2 * slot + int(direction))
    arrays = _gather(topology, _schedule_links(np.array([digits]), m))
    return LinkProblem(
        **{name: a[0] for name, a in arrays.items()},
        bandwidth_hz=cfg.bandwidth_hz,
        se_cap_bps_hz=cfg.se_cap_bps_hz,
    )


def evaluate(problem: LinkProblem, powers_w: np.ndarray) -> PowerAlloc:
    """SINR, capped per-link rate, and WSR at the given transmit powers.

    Powers must satisfy the box 0 <= p <= p_max (tiny float slack allowed).
    """
    p = np.asarray(powers_w, dtype=float)
    if p.shape != (problem.n_links,):
        raise ValueError(f"expected {problem.n_links} powers, got shape {p.shape}")
    slack = 1e-9 * problem.p_max_w
    if np.any(p < -slack) or np.any(p > problem.p_max_w + slack):
        raise ValueError("powers violate the box constraint [0, p_max]")
    p = np.clip(p, 0.0, problem.p_max_w)
    g = problem.gains
    signal = np.diag(g) * p
    interference = g @ p - signal
    sinr = signal / (interference + problem.noise_w)
    se = np.minimum(np.log2(1.0 + sinr), problem.se_cap_bps_hz)
    rate = problem.bandwidth_hz * se
    wsr = float(problem.weights @ rate)
    return PowerAlloc(powers_w=p, sinr=sinr, rate_bps=rate, wsr_bps=wsr)


def evaluate_stacked(
    batch: ProblemBatch, powers_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized evaluation of one (S, N) power row per problem of a batch.

    Returns (wsr_bps, sinr, rate_bps); powers are clipped into the box. Each
    row's result depends only on that row, so a problem evaluates to the same
    bits in any batch; it may differ from scalar ``evaluate`` in the last bits.
    """
    n = batch.n_links
    p = np.clip(np.asarray(powers_w, dtype=float), 0.0, batch.p_max_w)
    gains = batch.gains
    diag = gains[:, np.arange(n), np.arange(n)]
    signal = diag * p
    interference = (gains * p[:, None, :]).sum(axis=2) - signal
    sinr = signal / (interference + batch.noise_w)
    se = np.minimum(np.log2(1.0 + sinr), batch.se_cap_bps_hz)
    rate = batch.bandwidth_hz * se
    wsr = (batch.weights * rate).sum(axis=1)
    return wsr, sinr, rate


def best_index(values: np.ndarray, flat_index: np.ndarray) -> int:
    """Position of the largest value; ties go to the lowest flat index."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("no schedules to compare")
    ties = np.flatnonzero(values == values.max())
    return int(ties[np.argmin(np.asarray(flat_index)[ties])])
