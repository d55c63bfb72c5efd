"""End-to-end acceptance checks.

Each check prints one ``ACCEPTANCE n: PASS/FAIL (...)`` line (run pytest
with ``-s`` to see them) and asserts the same condition, so the printed
verdict and the suite verdict always agree. This file holds checks 1-8.
Check 11 (byte-identical logs on repeated runs) is
``tests/test_mission.py::TestDeterminism::test_identical_runs_write_identical_bytes``;
checks 9 and 10 (the 20-seed planner comparison and the belief gap
under packet loss) are not written yet. Checks 1, 2 and 4 exercise the
reference oracles in ``tests/reference.py``; check 3 measures the
batched closed form the planner runs against one of them, quadrature.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from isobath.comms import (
    MAX_PACKET_BYTES,
    Packet,
    decode_packet,
    encode_packet,
    measurement_capacity,
)
from isobath.errors import DecodeError
from isobath.gp import Belief, DataSet, KernelSpec, Sample
from isobath.mission import (
    MissionConfig,
    accumulated_reward_trace,
    risk_snapshot,
    run_mission,
    write_jsonl,
)
from isobath.motion import ACTION_SET, AgentState, MotionParams, rollout
from isobath.planner import EpisodeEvaluator, PlanConfig, PlanContext, plan_episode
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
    mu_star,
    vectorized_sample_locations,
)


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
