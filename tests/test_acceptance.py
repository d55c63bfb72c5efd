"""End-to-end acceptance checks.

Each check prints one ``ACCEPTANCE n: PASS/FAIL (...)`` line (run pytest
with ``-s`` to see them) and asserts the same condition, so the printed
verdict and the suite verdict always agree. This file holds checks 1-8,
10, 12, 13 and 16. Checks 10, 12 and 16 (``slow``) are each one
``mission.run_grid`` call, over config arms and seeds, plus a statistic
of the run records it returns. Check 10 (about 20 s) gates the belief
gap under packet loss: over four ``drop_prob`` arms and seeds 0-4, it
must rise strictly with ``drop_prob``. Check 12 (about 45 s) gates the
team's reward under loss: over seeds 0-9 of 20-step terminal missions,
the mean final reward at ``drop_prob`` 0.9 keeps at least 85% of drop
0's, and the paired mean of final(0.9) - final(0.99) is positive; a
slow-channel arm (30 s slots) is reported beside it. Check 16 (about
12 s) gates the risk as a forecast: over 20 arms, draws 0-19 of the
lake of ``configs/gp-draw.json`` flown by the lawnmower at seed 0, the
pooled belief's realized cost over its summed risk lies in [0.8, 1.25].
Check 13 gates the decentralisation guarantee: sequential greedy keeps at
least half of the joint optimum of 2 and 3 vehicles at horizon 1, and
it prints how far the summed marginals sit from the joint reward. Check 11
(byte-identical logs on repeated runs) is
``tests/test_mission.py::TestDeterminism::test_identical_runs_write_identical_bytes``;
check 9 (the 20-seed planner comparison) is not written yet. Checks 1,
2 and 4 exercise the reference oracles in ``tests/reference.py``;
check 3 measures the batched closed form the planner runs against one
of them, quadrature.
"""

import dataclasses
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from isobath.cli import load_config
from isobath.comms import (
    MAX_PACKET_BYTES,
    Packet,
    decode_packet,
    encode_packet,
    measurement_capacity,
)
from isobath.coordination import JointPlanSnapshot, plan_with_predecessors
from isobath.errors import DecodeError
from isobath.gp import Belief, DataSet, KernelSpec, Sample
from isobath.mission import (
    MissionConfig,
    global_data,
    run_grid,
    run_mission,
    write_jsonl,
)
from isobath.motion import ACTION_SET, AgentState, MotionParams, rollout
from isobath.planner import (
    EpisodeEvaluator,
    PlanConfig,
    PlanContext,
    plan_episode,
    plan_locations,
)
from isobath.risk import (
    LossParams,
    bayes_risk_batch,
    expected_bayes_risk_closed_batch,
)
from isobath.environment import OperationalArea, eval_grid
from reference import (
    VarianceReduction,
    benefit_of_search,
    expected_bayes_risk_quadrature,
    expected_benefit_of_search,
    joint_reward,
    mu_star,
    vectorized_sample_locations,
)


GP_DRAW_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gp-draw.json"


def verdict(n: int, ok: bool, detail: str) -> str:
    """Print the acceptance line; returns the detail for assert messages."""
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return detail


# ---------------------------------------------------------------------------
# 1. Empty new data earns exactly zero benefit.


def test_acceptance_1_empty_benefit_is_exactly_zero():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    nonzero = 0
    for _ in range(1000):
        kernel = KernelSpec(
            length_scale=rng.uniform(20.0, 80.0),
            signal_variance=rng.uniform(1.0, 30.0),
            noise_std=rng.uniform(0.05, 1.0),
        )
        level = rng.uniform(5.0, 25.0)
        loss = LossParams(level, rng.uniform(1.0, 15.0), rng.uniform(1.0, 15.0))
        prior_mean = rng.uniform(5.0, 25.0)
        data = DataSet(min_spacing=rng.uniform(5.0, 25.0))
        for _ in range(int(rng.integers(0, 11))):
            data.insert(
                Sample(tuple(rng.uniform(0.0, 300.0, 2)), float(rng.normal(level, 3.0)))
            )
        pts = rng.uniform(0.0, 300.0, (int(rng.integers(5, 26)), 2))
        value = benefit_of_search(data, [], pts, kernel, loss, prior_mean=prior_mean)
        if value != 0.0:
            nonzero += 1
    wall = time.perf_counter() - t0
    ok = nonzero == 0 and wall < 10.0
    detail = f"1000 instances, {nonzero} nonzero, {wall:.1f}s < 10s"
    assert verdict(1, ok, detail) and ok


# ---------------------------------------------------------------------------
# 2. Expected benefit is never meaningfully negative.


def test_acceptance_2_expected_benefit_nonnegative():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    level = 15.0
    worst = np.inf
    for _ in range(10_000):
        dmu = rng.uniform(-6.0, 6.0)
        sigma_mu = 10.0 ** rng.uniform(-1.5, 0.8)
        sigma_q = 10.0 ** rng.uniform(-1.5, 0.8)
        ratio = 10.0 ** rng.uniform(-1.0, 1.0)
        c2 = 20.0 / (1.0 + ratio)
        loss = LossParams(level, 20.0 - c2, c2)

        # Realize the requested decomposition with a one-point belief: an
        # empty data set gives prior variance s_mu^2 + s_q^2 at the eval
        # point, and one planned measurement at distance d leaves exactly
        # s_q^2 behind.
        s2f = sigma_mu**2 + sigma_q**2
        s2n = min(0.25, 0.5 * sigma_q**2 * s2f / sigma_mu**2)
        ell = 40.0
        ratio_k = sigma_mu**2 * (s2f + s2n) / (s2f * s2f)
        d = ell * math.sqrt(-math.log(ratio_k))
        kernel = KernelSpec(ell, s2f, math.sqrt(s2n))
        value = expected_benefit_of_search(
            DataSet(min_spacing=1.0),
            [(0.0, d)],
            [(0.0, 0.0)],
            kernel,
            loss,
            prior_mean=level + dmu,
        )
        worst = min(worst, value)
    wall = time.perf_counter() - t0
    ok = worst >= -1e-6 and wall < 60.0
    detail = f"10000 instances, min benefit {worst:.3e} >= -1e-6, {wall:.1f}s < 60s"
    assert verdict(2, ok, detail) and ok


# ---------------------------------------------------------------------------
# 3. The planner's closed-form expected risk agrees with quadrature and
# Monte Carlo.


def test_acceptance_3_closed_form_fidelity():
    t0 = time.perf_counter()
    level = 15.0
    cells = [
        (dmu, s_mu, s_q, costs)
        for dmu in np.linspace(-5.0, 5.0, 15)
        for s_mu in (1e-8, 1e-7, 0.1, 0.5, 1.0, 2.0)
        for s_q in (0.1, 0.5, 1.0, 2.0)
        for costs in ((5.0, 15.0), (10.0, 10.0), (15.0, 5.0))
    ]
    assert len(cells) == 1080
    # The batch evaluator the planner runs, one call per cost pair; it has
    # no quadrature fallback, so a breakdown shows here. The planner feeds
    # it mean variances down to rounding residue, hence the tiny s_mu.
    closed_vals = np.empty(len(cells))
    for costs in {cell[3] for cell in cells}:
        ks = [k for k, cell in enumerate(cells) if cell[3] == costs]
        dmu, s_mu, s_q = np.array([cells[k][:3] for k in ks]).T
        closed_vals[ks] = expected_bayes_risk_closed_batch(
            level + dmu, s_mu**2, s_q**2, LossParams(level, *costs)
        )
    quad_vals = np.array([
        expected_bayes_risk_quadrature(
            VarianceReduction(level + dmu, s_mu**2, s_q**2), LossParams(level, c1, c2)
        )
        for dmu, s_mu, s_q, (c1, c2) in cells
    ])
    worst = float(np.abs(closed_vals - quad_vals).max())

    # Monte Carlo bridge on 20 sampled cells, 1e5 draws each.
    rng = np.random.default_rng(20260816)
    n = 100_000
    mc_ok = True
    worst_z = 0.0
    for idx in rng.choice(len(cells), size=20, replace=False):
        dmu, s_mu, s_q, (c1, c2) = cells[idx]
        loss = LossParams(level, c1, c2)
        draws = rng.normal(level + dmu, s_mu, size=n)
        risks = bayes_risk_batch(draws, np.full(n, s_q**2), loss)
        est = float(risks.mean())
        se = float(risks.std(ddof=1)) / math.sqrt(n)
        # Degenerate cells (every draw declares identically) have zero
        # sample spread; an absolute floor keeps the bridge meaningful.
        band = 3.0 * se + 1e-9
        for val in (closed_vals[idx], quad_vals[idx]):
            worst_z = max(worst_z, abs(val - est) / (band / 3.0))
            mc_ok = mc_ok and abs(val - est) <= band
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and mc_ok and wall < 300.0
    detail = (
        f"1080 cells, max |closed-quad| {worst:.2e} <= 1e-8, "
        f"MC worst z {worst_z:.2f} <= 3, {wall:.1f}s < 300s"
    )
    assert verdict(3, ok, detail) and ok


# ---------------------------------------------------------------------------
# 4. The declaration flip point satisfies its defining identity.


def test_acceptance_4_declaration_threshold_identity():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    level = 15.0
    worst = 0.0
    for _ in range(100):
        sigma = 10.0 ** rng.uniform(-2.0, 1.0)
        c1, c2 = rng.uniform(0.5, 20.0, 2)
        loss = LossParams(level, c1, c2)
        m = mu_star(sigma, loss)
        p = float(ndtr((level - m) / sigma))
        worst = max(worst, abs(p - c2 / (c1 + c2)))
    exact = all(
        mu_star(sigma, LossParams(level, c, c)) == level
        for sigma in (0.01, 0.5, 3.0)
        for c in (1.0, 10.0)
    )
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and exact and wall < 1.0
    detail = (
        f"100 random cases, max |P - c2/(c1+c2)| {worst:.1e} <= 1e-10, "
        f"equal costs exact: {exact}, {wall:.2f}s < 1s"
    )
    assert verdict(4, ok, detail) and ok


# ---------------------------------------------------------------------------
# 5. GP prediction matches a dense direct-solve oracle.


def test_acceptance_5_gp_matches_dense_oracle():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        kernel = KernelSpec(
            length_scale=rng.uniform(20.0, 80.0),
            signal_variance=rng.uniform(1.0, 30.0),
            noise_std=rng.uniform(0.05, 1.0),
        )
        prior_mean = rng.uniform(5.0, 25.0)
        data = DataSet(min_spacing=1.0)
        for _ in range(int(rng.integers(0, 51))):
            data.insert(
                Sample(tuple(rng.uniform(0.0, 400.0, 2)), float(rng.normal(15.0, 3.0)))
            )
        queries = rng.uniform(0.0, 400.0, (15, 2))
        got_mean, got_var = Belief(kernel, prior_mean, data).predict_arrays(queries)

        X = data.locations
        y = data.values
        if len(data) == 0:
            want_mean = np.full(15, prior_mean)
            want_var = np.full(15, kernel.signal_variance)
        else:
            d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
            K = kernel.signal_variance * np.exp(-d2 / (2 * kernel.length_scale**2))
            K[np.diag_indices_from(K)] += kernel.noise_std**2
            q2 = ((queries[:, None, :] - X[None, :, :]) ** 2).sum(-1)
            ks = kernel.signal_variance * np.exp(-q2 / (2 * kernel.length_scale**2))
            alpha = np.linalg.solve(K, y - prior_mean)
            want_mean = prior_mean + ks @ alpha
            want_var = kernel.signal_variance - np.einsum(
                "ij,ji->i", ks, np.linalg.solve(K, ks.T)
            )
        for gm, gv, m, v in zip(got_mean, got_var, want_mean, want_var):
            worst = max(worst, abs(gm - m) / max(1.0, abs(m)))
            worst = max(worst, abs(gv - v) / max(1.0, abs(v)))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 30.0
    detail = f"200 cases |D|<=50, worst relative error {worst:.1e} <= 1e-8, {wall:.1f}s < 30s"
    assert verdict(5, ok, detail) and ok


# ---------------------------------------------------------------------------
# 6. Packet codec: round-trips, fuzz safety, size budget.


def test_acceptance_6_codec_round_trip_and_fuzz():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    n = 100_000

    mismatches = 0
    oversized = 0
    agents = rng.integers(0, 256, n)
    epochs = rng.integers(0, 256, n)
    poses = rng.uniform(-10_000.0, 10_000.0, (n, 3))
    n_actions = rng.integers(0, 4, n)
    tails = rng.random(n) < 0.3
    for k in range(n):
        acts = tuple(int(a) for a in rng.integers(0, len(ACTION_SET), n_actions[k]))
        cap = measurement_capacity(len(acts))
        n_meas = int(rng.integers(0, cap + 1))
        meas = tuple(
            (float(m[0]), float(m[1]), float(m[2]))
            for m in rng.uniform(-1000.0, 1000.0, (n_meas, 3))
        )
        pkt = Packet(
            int(agents[k]),
            int(epochs[k]),
            float(poses[k, 0]),
            float(poses[k, 1]),
            float(poses[k, 2]),
            acts,
            bool(tails[k]),
            meas,
        )
        raw = encode_packet(pkt)
        if len(raw) > MAX_PACKET_BYTES:
            oversized += 1
        if decode_packet(raw) != pkt:
            mismatches += 1

    panics = 0
    rejected = 0
    lengths = rng.integers(0, 300, n)
    blob = rng.integers(0, 256, int(lengths.sum()), dtype=np.uint8).tobytes()
    offset = 0
    for k in range(n):
        raw = blob[offset : offset + lengths[k]]
        offset += lengths[k]
        try:
            decode_packet(raw)
        except DecodeError:
            rejected += 1
        except Exception:
            panics += 1

    anchor = len(
        encode_packet(
            Packet(1, 1, 0.0, 0.0, 0.0, (0, 1, 2), False, ((1.0, 2.0, 3.0),) * 18)
        )
    )
    wall = time.perf_counter() - t0
    ok = (
        mismatches == 0
        and oversized == 0
        and panics == 0
        and anchor == 234
        and measurement_capacity(3) >= 18
        and wall < 60.0
    )
    detail = (
        f"1e5 round-trips ({mismatches} mismatches, {oversized} oversized), "
        f"1e5 fuzzed buffers ({panics} panics, {rejected} rejected), "
        f"3-action/18-measurement = {anchor}B == 234B, {wall:.1f}s < 60s"
    )
    assert verdict(6, ok, detail) and ok


# ---------------------------------------------------------------------------
# 7. TDMA: every vehicle broadcasts exactly once per full slot round.


def test_acceptance_7_tdma_broadcast_cadence():
    t0 = time.perf_counter()
    cfg = MissionConfig(
        variant="lawnmower",
        speeds=(1.5, 1.5, 1.5),
        starts=((0.0, 10.0, 10.0),) * 3,
        total_length=62,
        seed=5,
    )
    result = run_mission(cfg)
    round_s = cfg.slot_duration * cfg.team_size
    horizon_s = 600.0
    n_windows = int(horizon_s / round_s)
    ok = result.duration >= horizon_s
    counts = np.zeros((cfg.team_size, n_windows), dtype=int)
    for e in result.events:
        if e["kind"] == "tx" and e["t"] < horizon_s:
            counts[e["agent"], int(e["t"] // round_s)] += 1
    ok = ok and bool((counts == 1).all())
    wall = time.perf_counter() - t0
    detail = (
        f"3 vehicles, {n_windows} x {round_s:.0f}s windows over 10 min, "
        f"per-window broadcasts min {counts.min()} max {counts.max()} == 1, "
        f"{wall:.1f}s < 5s"
    )
    ok = ok and wall < 5.0
    assert verdict(7, ok, detail) and ok


# ---------------------------------------------------------------------------
# 8. Exhaustive-budget horizon-1 planning equals brute force.


def test_acceptance_8_horizon1_matches_brute_force():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    area = OperationalArea((0.0, 0.0), (300.0, 400.0))
    kernel = KernelSpec(40.0, 25.0, 0.5)
    loss = LossParams(15.0, 10.0, 10.0)
    motion = MotionParams(15.0, math.pi / 2, 1.5)
    grid = eval_grid(area, 50.0)
    mismatch = 0
    for case in range(50):
        data = DataSet(min_spacing=20.0)
        for _ in range(int(rng.integers(0, 13))):
            data.insert(
                Sample(
                    (rng.uniform(0.0, 300.0), rng.uniform(0.0, 400.0)),
                    float(rng.normal(15.0, 3.0)),
                )
            )
        base = rng.uniform((0.0, 0.0), (300.0, 400.0), (int(rng.integers(0, 6)), 2))
        start = AgentState(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(50.0, 250.0),
            rng.uniform(50.0, 350.0),
        )
        context = PlanContext(
            kernel=kernel,
            prior_mean=15.0,
            data=data,
            loss=loss,
            eval_points=grid,
            motion=motion,
            area=area,
            remaining_steps=int(rng.integers(1, 41)),
            preceding_planned=base,
        )
        config = PlanConfig(
            horizon=1,
            use_terminal_reward=False,
            mcts_iterations=40,
        )
        path = plan_episode(start, context, config, np.random.default_rng(case)).path
        evaluator = EpisodeEvaluator(context)
        brute = {
            a: evaluator.marginal(
                vectorized_sample_locations(
                    rollout(start, [a], motion), context.sensor_spacing
                )
            )[0]
            for a in range(len(ACTION_SET))
        }
        best = max(brute.values())
        if brute[path.actions[0]] != best:
            mismatch += 1
    wall = time.perf_counter() - t0
    ok = mismatch == 0 and wall < 120.0
    detail = (
        f"50 beliefs, horizon 1, exhaustive budget: {mismatch} argmax mismatches "
        f"over the 11-action set, {wall:.1f}s < 120s"
    )
    assert verdict(8, ok, detail) and ok


# ---------------------------------------------------------------------------
# 10. Beliefs drift apart as the channel drops more packets.


@pytest.mark.slow
def test_acceptance_10_belief_gap_rises_with_packet_loss():
    # The belief gap: the mean over vehicles of each vehicle's summed final
    # risk on the output grid, minus the pooled belief's. The gate, fixed
    # before the first run: its mean over seeds 0-4 rises strictly with
    # drop_prob. Terminal variant; lawnmower vehicles share one track.
    t0 = time.perf_counter()
    drops = (0.0, 0.3, 0.6, 0.9)
    base = MissionConfig(variant="terminal", total_length=20)
    grid = run_grid(base, {drop: {"drop_prob": drop} for drop in drops}, range(5))
    means = []
    for drop in drops:
        gaps = []
        for record in grid[drop]:
            final = record["final_outcome"]
            own = [vehicle["summed_risk"] for vehicle in final["vehicles"]]
            gaps.append(sum(own) / len(own) - final["pooled"]["summed_risk"])
        means.append(sum(gaps) / len(gaps))
    ok = all(lo < hi for lo, hi in itertools.pairwise(means))
    wall = time.perf_counter() - t0
    detail = (
        "terminal, 20 steps, seeds 0-4: mean belief gap "
        + " < ".join(f"{gap:.2f} (drop {drop})" for drop, gap in zip(drops, means))
        + f", rising strictly: {ok}, {wall:.1f}s"
    )
    assert verdict(10, ok, detail) and ok


# ---------------------------------------------------------------------------
# 12. The team's reward survives a lossy channel, and talking pays.


@pytest.mark.slow
def test_acceptance_12_team_reward_survives_packet_loss():
    # The paper's third claim: coordination keeps its value over slow,
    # intermittent acoustic links. The gate, fixed before the first run,
    # over seeds 0-9 of terminal h3 missions of 20 steps: the mean final
    # reward at drop_prob 0.9 is at least 0.85 times the mean at drop 0,
    # and the paired mean of final(0.9) - final(0.99) over the same seeds
    # is positive. Validation rejects drop_prob 1, so 0.99 stands for
    # silence. The slow channel, 30 s slots at drop 0.3, is reported, not
    # gated.
    t0 = time.perf_counter()
    drops = (0.0, 0.3, 0.6, 0.9, 0.99)
    arms = {f"drop {drop}": {"drop_prob": drop} for drop in drops}
    arms["slot 30 s, drop 0.3"] = {"drop_prob": 0.3, "slot_duration": 30.0}
    base = MissionConfig(variant="terminal", horizon=3, total_length=20)
    grid = run_grid(base, arms, range(10))
    finals = {
        name: [r["final_accumulated_reward"] for r in records]
        for name, records in grid.items()
    }
    mean_final = {name: sum(v) / len(v) for name, v in finals.items()}
    mean_mid = {
        name: sum(r["mid_accumulated_reward"] for r in records) / len(records)
        for name, records in grid.items()
    }
    kept = mean_final["drop 0.9"] / mean_final["drop 0.0"]
    diffs = [a - b for a, b in zip(finals["drop 0.9"], finals["drop 0.99"])]
    paired = sum(diffs) / len(diffs)
    ok = kept >= 0.85 and paired > 0
    wall = time.perf_counter() - t0
    detail = (
        f"terminal h3, 20 steps, seeds 0-9: final at drop 0.9 keeps {kept:.3f} "
        f"(>= 0.85) of drop 0's; paired mean final(0.9) - final(0.99) {paired:.2f} "
        "(> 0); mean final / mid by arm: "
        + ", ".join(f"{name} {mean_final[name]:.1f} / {mean_mid[name]:.1f}" for name in grid)
        + f"; {wall:.1f}s"
    )
    assert verdict(12, ok, detail) and ok


# ---------------------------------------------------------------------------
# 13. Sequential greedy keeps at least half of the joint optimum.


def test_acceptance_13_sequential_greedy_keeps_half_the_joint_optimum():
    # For a monotone submodular objective sequential greedy reaches at
    # least half of the joint optimum (Fisher, Nemhauser & Wolsey, 1978);
    # nobody has shown that expected Bayes-risk reduction is one, so the
    # ratio is measured. The gate, fixed before the first run: at least
    # 0.5 on every instance. An instance is the team's data and poses
    # after step k of a seeded plain mission at horizon 1; the first 2 or
    # 3 vehicles plan at horizon 1, where an 11-iteration search is
    # exhaustive, in id order, each hearing its predecessors' fresh plans.
    # Both the greedy plans and all 11^n joint tuples are scored by the
    # reference joint reward. Poses are rounded to float32, as packets
    # carry them, so a vehicle and its successors score the same plan.
    t0 = time.perf_counter()
    base = MissionConfig(variant="plain", horizon=1, mcts_iterations=11, total_length=10)
    plan = PlanConfig(horizon=1, use_terminal_reward=False, mcts_iterations=11)
    n_actions = len(ACTION_SET)
    worst, worst_gap, instances = math.inf, 0.0, 0
    for seed in (0, 1):
        cfg = dataclasses.replace(base, seed=seed)
        parts = cfg.parts
        result = run_mission(cfg)
        for k in (3, 6, 9):
            data = global_data(result, k)
            poses = {
                e["agent"]: AgentState(
                    *(float(np.float32(e[f])) for f in ("heading", "north", "east"))
                )
                for e in result.events
                if e["kind"] == "step" and e["n"] == k
            }
            for team in (2, 3):
                contexts = [
                    PlanContext(
                        kernel=parts.kernel, prior_mean=cfg.prior_mean, data=data,
                        loss=parts.loss, eval_points=parts.planning_grid,
                        motion=parts.motions[i], area=parts.area,
                        remaining_steps=cfg.total_length - k,
                        sensor_spacing=cfg.sample_spacing,
                    )
                    for i in range(team)
                ]
                snapshot = JointPlanSnapshot(cfg.total_length)
                chosen, marginal_sum = [], 0.0
                for i in range(team):
                    got = plan_with_predecessors(
                        poses[i], contexts[i], snapshot, i, plan, np.random.default_rng(i)
                    )
                    chosen.append(got.path.actions[0])
                    marginal_sum += got.value
                    pose = poses[i]
                    snapshot.update(
                        Packet(i, k, pose.heading, pose.north, pose.east, chosen[-1:])
                    )
                locs = [
                    [plan_locations(poses[i], (a,), 0, contexts[i]) for a in range(n_actions)]
                    for i in range(team)
                ]

                def score(actions):
                    return joint_reward(
                        data, [locs[i][a] for i, a in enumerate(actions)],
                        parts.planning_grid, parts.kernel, parts.loss,
                        prior_mean=cfg.prior_mean,
                    )

                greedy = score(chosen)
                best = max(map(score, itertools.product(range(n_actions), repeat=team)))
                worst = min(worst, greedy / best)
                worst_gap = max(worst_gap, abs(marginal_sum - greedy))
                instances += 1
    ok = worst >= 0.5
    wall = time.perf_counter() - t0
    detail = (
        f"{instances} instances of 2 and 3 vehicles at horizon 1: worst greedy/optimum "
        f"{worst:.4f} >= 0.5; largest |sum of marginals - joint reward| {worst_gap:.3f} "
        f"(the d_eps cut), {wall:.1f}s"
    )
    assert verdict(13, ok, detail) and ok


# ---------------------------------------------------------------------------
# 16. On lakes drawn from the belief's own prior, the risk is the cost.


@pytest.mark.slow
def test_acceptance_16_risk_forecasts_the_cost_on_lakes_from_the_prior():
    # On a lake drawn from the belief's own prior, the Bayes risk of the
    # optimal declaration is its expected cost. The gate, fixed before the
    # first run: the pooled belief's final realized cost, summed over draws
    # 0-19 of configs/gp-draw.json, over its summed risk, lies in
    # [0.8, 1.25]. Lawnmower variant, 100 steps, seed 0.
    t0 = time.perf_counter()
    base = load_config(str(GP_DRAW_CONFIG), env={})
    arms = {
        draw: {"variant": "lawnmower", "total_length": 100,
               "bathymetry_params": {**base.bathymetry_params, "draw": draw}}
        for draw in range(20)
    }
    grid = run_grid(base, arms, [0])
    pooled = [records[0]["final_outcome"]["pooled"] for records in grid.values()]
    pairs = [(p["realized_cost"], p["summed_risk"]) for p in pooled]
    ratio = sum(cost for cost, _ in pairs) / sum(risk for _, risk in pairs)
    ok = 0.8 <= ratio <= 1.25
    wall = time.perf_counter() - t0
    detail = (
        f"lawnmower, 100 steps, draws 0-19: realized cost over summed risk {ratio:.3f}, "
        "in [0.8, 1.25]: " + str(ok) + "; (cost, risk) per draw "
        + ", ".join(f"({cost:.0f}, {risk:.1f})" for cost, risk in pairs)
        + f"; {wall:.1f}s"
    )
    assert verdict(16, ok, detail) and ok
