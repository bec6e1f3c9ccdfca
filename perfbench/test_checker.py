"""The independent checker agrees with the program and catches wrong outputs.

    PYTHONPATH=src python3 -m pytest perfbench/test_checker.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cellsched as cs  # noqa: E402
from cellsched import harness  # noqa: E402
from cellsched.gp import GpConfig  # noqa: E402

import checker  # noqa: E402

SCALES = [cs.SystemConfig(n_cells=2, users_per_cell=2, area_side_m=60.0),
          cs.SystemConfig(n_cells=4, users_per_cell=2), cs.SystemConfig()]


def _random_cases(n_cases=30):
    rng = np.random.default_rng(7)
    for k in range(n_cases):
        cfg = SCALES[k % len(SCALES)]
        topo = cs.generate_topology(cfg, seed=500 + k)
        total = cs.schedule_count(cfg.n_cells, cfg.users_per_cell)
        sched = cs.Schedule.from_flat(int(rng.integers(total)), cfg.n_cells, cfg.users_per_cell)
        problem = cs.build_link_problem(topo, sched)
        powers = rng.uniform(0.0, 1.0, problem.n_links) * problem.p_max_w
        yield topo, sched, problem, powers


def test_checker_agrees_with_linkmodel_evaluate():
    for topo, sched, problem, powers in _random_cases():
        alloc = cs.evaluate(problem, powers)
        checker.check_decision(topo, sched, alloc)
        ours = checker.wsr_bps(topo, sched.choices, powers)
        assert ours == pytest.approx(alloc.wsr_bps, rel=1e-12)


def test_checker_rejects_a_perturbed_power_vector():
    rejected = 0
    for topo, sched, problem, powers in _random_cases():
        alloc = cs.evaluate(problem, powers)
        bent = powers.copy()
        bent[0] *= 0.5
        if cs.evaluate(problem, bent).wsr_bps == pytest.approx(alloc.wsr_bps, rel=1e-6):
            continue  # every rate the change touches sits at the cap
        wrong = cs.PowerAlloc(powers_w=bent, sinr=alloc.sinr, rate_bps=alloc.rate_bps,
                              wsr_bps=alloc.wsr_bps)
        with pytest.raises(checker.CheckError):
            checker.check_decision(topo, sched, wrong)
        rejected += 1
    assert rejected >= 20


def test_checker_rejects_power_above_cap_and_wrong_schedule():
    topo, sched, problem, powers = next(_random_cases(1))
    over = problem.p_max_w * 1.01
    alloc = cs.PowerAlloc(powers_w=over, sinr=over, rate_bps=over,
                          wsr_bps=checker.wsr_bps(topo, sched.choices, over))
    with pytest.raises(checker.CheckError, match="outside"):
        checker.check_decision(topo, sched, alloc)
    good = cs.evaluate(problem, powers)
    other = cs.Schedule(choices=sched.choices, flat_index=sched.flat_index + 1)
    with pytest.raises(checker.CheckError, match="flat index"):
        checker.check_decision(topo, other, good)


def test_label_row_check_accepts_gp_and_rejects_a_worse_label():
    cfg = SCALES[1]
    topo = cs.generate_topology(cfg, seed=3)
    sched = cs.Schedule.from_flat(17, cfg.n_cells, cfg.users_per_cell)
    problem = cs.build_link_problem(topo, sched)
    res = cs.wsr_maximize(problem, GpConfig())
    g_db = (10.0 * np.log10(problem.gains)).ravel()
    frac = res.alloc.powers_w / problem.p_max_w
    checker.check_label_row(cfg, g_db, problem.weights, problem.directions, frac)
    full = checker.wsr_bps(topo, sched.choices, problem.p_max_w, capped=False)
    at_gp = checker.wsr_bps(topo, sched.choices, res.alloc.powers_w, capped=False)
    if at_gp > full * (1 + 1e-6):
        # A label that keeps only the weakest link on loses to full power.
        worst = np.full(problem.n_links, 1e-9)
        worst[int(np.argmin(problem.weights))] = 1.0
        with pytest.raises(checker.CheckError):
            checker.check_label_row(cfg, g_db, problem.weights, problem.directions, worst)


def test_orderings_hold_on_a_desk_drop_and_catch_a_swap():
    cfg = SCALES[0]
    topo = cs.generate_topology(cfg, seed=11)
    gp = GpConfig(outer_tol=1e-5, inner_grad_tol=1e-7, inner_max_iters=400)
    runs = {m.label: harness.run_method(m, topo, gp_config=gp, rng=np.random.default_rng(0))
            for m in (harness.EXHAUSTIVE_GP, harness.GREEDY_GP, harness.GREEDY_MP,
                      harness.RANDOM_GP)}
    checker.check_orderings(topo, runs)
    swapped = dict(runs)
    swapped["Exhaustive-GP"], swapped["Random-GP"] = runs["Random-GP"], runs["Exhaustive-GP"]
    if runs["Random-GP"].alloc.wsr_bps < runs["Exhaustive-GP"].alloc.wsr_bps:
        with pytest.raises(checker.CheckError):
            checker.check_orderings(topo, swapped)
