"""Independent evaluator for the benchmark's output checks.

Everything here is recomputed from a topology's raw gain table, its weight
vector and its configuration, in plain Python loops. Nothing is imported
from ``cellsched.linkmodel`` or ``cellsched.gp``, so a fault in the
program's own evaluation cannot hide itself from these checks.
"""

from __future__ import annotations

import math

# Relative tolerance when a recomputed WSR is compared with the program's.
WSR_RTOL = 1e-9
# Max-DNN (batched forward) against DQN-DNN-k (row-by-row forward): the two
# paths agree to float round-off, so the ordering allows this relative slack.
ROUND_OFF_RTOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent evaluation."""


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_w(config, receiver_is_bs: bool) -> float:
    """Thermal noise: density + 10 log10(bandwidth) + the receiver's noise figure."""
    nf = config.bs_noise_figure_db if receiver_is_bs else config.ue_noise_figure_db
    return _dbm_to_w(config.noise_density_dbm_hz + 10.0 * math.log10(config.bandwidth_hz) + nf)


def links(topology, choices):
    """Per cell: (tx node, rx node, weight, noise, p_max) for one schedule.

    Node order is BSs first, then UEs grouped by cell; weight ``2u`` is UE
    ``u``'s downlink weight and ``2u + 1`` its uplink weight.
    """
    cfg = topology.config
    out = []
    for cell, (slot, direction) in enumerate(choices):
        ue = cell * cfg.users_per_cell + slot
        bs_node, ue_node = cell, cfg.n_cells + ue
        if int(direction) == 0:  # downlink: BS -> UE
            out.append((bs_node, ue_node, float(topology.weights[2 * ue]),
                        noise_w(cfg, False), _dbm_to_w(cfg.bs_max_power_dbm)))
        else:  # uplink: UE -> BS
            out.append((ue_node, bs_node, float(topology.weights[2 * ue + 1]),
                        noise_w(cfg, True), _dbm_to_w(cfg.ue_max_power_dbm)))
    return out


def wsr_bps(topology, choices, powers, capped: bool = True) -> float:
    """Weighted sum rate of one schedule at the given powers.

    ``capped`` applies the per-link spectral-efficiency cap, as reported
    WSRs do; the GP maximises the uncapped sum.
    """
    cfg = topology.config
    ls = links(topology, choices)
    total = 0.0
    for i, (_, rx, weight, noise, _) in enumerate(ls):
        signal = float(topology.gains[ls[i][0], rx]) * float(powers[i])
        interference = sum(
            float(topology.gains[tx_j, rx]) * float(powers[j])
            for j, (tx_j, *_rest) in enumerate(ls) if j != i
        )
        se = math.log2(1.0 + signal / (interference + noise))
        if capped:
            se = min(se, cfg.se_cap_bps_hz)
        total += weight * cfg.bandwidth_hz * se
    return total


def flat_index(choices, users_per_cell: int) -> int:
    base = 2 * users_per_cell
    return sum((2 * slot + int(d)) * base**c for c, (slot, d) in enumerate(choices))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_decision(topology, schedule, alloc) -> None:
    """Recompute a decision's WSR and check its powers lie in [0, p_max]."""
    cfg = topology.config
    if len(schedule.choices) != cfg.n_cells:
        raise CheckError(f"schedule has {len(schedule.choices)} cells, expected {cfg.n_cells}")
    if flat_index(schedule.choices, cfg.users_per_cell) != schedule.flat_index:
        raise CheckError(f"schedule {schedule.choices} does not have flat index {schedule.flat_index}")
    for (_, _, _, _, p_max), p in zip(links(topology, schedule.choices), alloc.powers_w):
        if not 0.0 <= float(p) <= p_max:
            raise CheckError(f"power {p} W outside [0, {p_max}] W")
    ours = wsr_bps(topology, schedule.choices, alloc.powers_w)
    if not _close(ours, alloc.wsr_bps, WSR_RTOL):
        raise CheckError(f"reported WSR {alloc.wsr_bps!r} bit/s, recomputed {ours!r} bit/s")


def check_orderings(topology, runs: dict) -> None:
    """The method properties on one drop; ``runs`` maps labels to MethodRuns."""
    wsr = {label: run.alloc.wsr_bps for label, run in runs.items()}
    if "Exhaustive-GP" in wsr:
        for other in ("DQN-GP", "Greedy-GP", "Random-GP"):
            if other in wsr and wsr[other] > wsr["Exhaustive-GP"]:
                raise CheckError(f"{other} {wsr[other]} beats Exhaustive-GP {wsr['Exhaustive-GP']}")
    if "DQN-DNN-5" in wsr and "DQN-DNN" in wsr and wsr["DQN-DNN"] > wsr["DQN-DNN-5"]:
        raise CheckError(f"DQN-DNN {wsr['DQN-DNN']} beats DQN-DNN-5 {wsr['DQN-DNN-5']}")
    if "Max-DNN" in wsr and "DQN-DNN-5" in wsr and (
        wsr["DQN-DNN-5"] > wsr["Max-DNN"] * (1.0 + ROUND_OFF_RTOL)
    ):
        raise CheckError(f"DQN-DNN-5 {wsr['DQN-DNN-5']} beats Max-DNN {wsr['Max-DNN']}")
    if "Greedy-GP" in runs and "Greedy-MP" in runs:
        gp, mp = runs["Greedy-GP"], runs["Greedy-MP"]
        if gp.schedule.choices != mp.schedule.choices:
            raise CheckError("Greedy-GP and Greedy-MP chose different schedules")
        ours_gp = wsr_bps(topology, gp.schedule.choices, gp.alloc.powers_w, capped=False)
        ours_mp = wsr_bps(topology, mp.schedule.choices, mp.alloc.powers_w, capped=False)
        if ours_gp < ours_mp * (1.0 - WSR_RTOL):
            raise CheckError(f"Greedy-GP uncapped WSR {ours_gp} below full power {ours_mp}")


def check_label_row(config, g_db, weights, downlink, fractions) -> None:
    """A GP-labelled row: uncapped WSR at the label must reach full power's.

    The row's gains come back from its standardized-dB encoding; uplink
    links are sent by a UE to a BS, downlink links by a BS to a UE.
    """
    n = len(weights)
    gains = [[10.0 ** (g_db[i * n + j] / 10.0) for j in range(n)] for i in range(n)]
    p_max = [_dbm_to_w(config.bs_max_power_dbm if d else config.ue_max_power_dbm) for d in downlink]
    noise = [noise_w(config, not d) for d in downlink]

    def uncapped(powers):
        total = 0.0
        for i in range(n):
            interference = sum(gains[i][j] * powers[j] for j in range(n) if j != i)
            total += weights[i] * math.log2(1.0 + gains[i][i] * powers[i] / (interference + noise[i]))
        return total

    for f in fractions:
        if not 0.0 <= float(f) <= 1.0:
            raise CheckError(f"label fraction {f} outside [0, 1]")
    at_label = uncapped([float(f) * p for f, p in zip(fractions, p_max)])
    at_full = uncapped(p_max)
    if at_label < at_full * (1.0 - WSR_RTOL):
        raise CheckError(f"GP label reaches {at_label}, below full power's {at_full}")


def check_training(kind: str, report) -> None:
    """Training must end with a validation MSE below its epoch-0 value."""
    if not report.val_mse or min(report.val_mse[1:], default=math.inf) >= report.val_mse[0]:
        raise CheckError(f"{kind} training did not lower validation MSE: {report.val_mse}")
