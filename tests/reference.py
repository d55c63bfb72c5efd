"""Reference oracles the tests compare the mission code against.

None of this runs in a mission. The planner scores plans with the
batched closed form (``risk.expected_bayes_risk_closed_batch``) through
low-rank updates on one factor of the data; the definitions here reach
the same quantities by independent routes, so the tests can check one
against the other:

- the scalar declaration, risk and declaration flip (``bayes_estimate``,
  ``bayes_risk``, ``mu_star``), and the risk at many points under one
  belief (``risk_field``);
- the expected post-measurement risk by adaptive quadrature and by
  Monte Carlo draws, and the planner's closed form on one element;
- the closed-form batch for any pair of costs, evaluated through both
  Owen's T terms and the normal-CDF term
  (``expected_bayes_risk_general``), where the package drops the terms
  that vanish for equal costs;
- the variance decomposition by re-factoring the GP on data plus the
  planned locations (``variance_reduction``);
- the realized and expected benefit of search, and the joint expected
  benefit of a whole team's plans (``joint_reward``);
- the measurement locations of a built path, every chord in one set of
  numpy calls (``vectorized_sample_locations``), where the package walks
  an action sequence's chords in Python floats without building the path;
- the sweep policy decided and stepped one step at a time
  (``reference_sweep``), where the package walks each straight run with
  one world-frame move;
- the beliefs a finished mission's outputs replay from its event log,
  each rebuilt from the whole log for every step asked:
  ``global_data_from_scratch`` for the team and
  ``agent_data_by_two_rules`` for one vehicle, where the mission code
  walks the log once;
- the value of every logged sample, sounded one at a time in each
  vehicle's sample order (``sensor_readings``), where the mission sounds
  a whole segment in one call;
- the per-event numerics in their plain numpy form: float32 rounding
  through a numpy scalar (``f32_by_numpy``), the Gaussian basin and
  ridge depths through ``np.sum`` of squares and a negated exponent
  (``basins_depth_by_sum``, ``ridge_depth_by_sum``), and a step's sample
  times through numpy's 2-norm (``sample_times_by_norm``), where the
  package cuts the per-call cost of each and must keep its bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from isobath.comms import _F32_OVERFLOW
from isobath.environment import synthetic_lake
from isobath.errors import EncodeError, NumericalError
from isobath.gp import (
    Belief,
    DataSet,
    KernelSpec,
    Sample,
    _chol_with_jitter,
    admissible_locations,
)
from isobath.motion import wrap_heading
from isobath.risk import (
    LossParams,
    _phi,
    bayes_risk_batch,
    expected_bayes_risk_closed_batch,
)


@dataclass(frozen=True)
class VarianceReduction:
    """Inputs to the expected-risk evaluation at one query location.

    ``mu_mu`` and ``sigma_mu_sq`` describe the distribution of the
    posterior mean at the query after the planned measurements arrive;
    ``sigma_pq_sq`` is the posterior variance once they have.
    """

    mu_mu: float
    sigma_mu_sq: float
    sigma_pq_sq: float


def _with_planned(data: DataSet, planned: np.ndarray) -> DataSet:
    """``data`` plus zero-valued samples at ``planned``, density rule bypassed.

    Only variances are read from a belief on the result: they do not
    depend on sample values, so the placeholder zeros never enter them.
    """
    out = DataSet(0.0)
    out._locs = data._locs + [tuple(p) for p in planned.tolist()]
    out._vals = data._vals + [0.0] * planned.shape[0]
    return out


def variance_reduction(
    kernel: KernelSpec,
    data: DataSet,
    planned_locations,
    query,
    prior_mean: float = 0.0,
) -> VarianceReduction:
    """Decompose predictive uncertainty at ``query`` around a planned set.

    The planned locations contribute variance only: no measurement values
    are used or invented. ``sigma_mu_sq`` is the variance explained by the
    planned measurements, ``variance(S) - variance(S + planned)``, clamped
    to zero against roundoff.
    """
    query = np.asarray(query, dtype=float).reshape(1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    means_s, vars_s = Belief(kernel, prior_mean, data).predict_arrays(query)
    if planned.shape[0] == 0:
        return VarianceReduction(float(means_s[0]), 0.0, float(vars_s[0]))
    augmented = Belief(kernel, prior_mean, _with_planned(data, planned))
    _, vars_q = augmented.predict_arrays(query)
    sigma_mu_sq = max(float(vars_s[0]) - float(vars_q[0]), 0.0)
    return VarianceReduction(float(means_s[0]), sigma_mu_sq, float(vars_q[0]))


def bayes_estimate(mean: float, variance: float, loss: LossParams) -> int:
    """Optimal declaration: 1 = safe (deep), 0 = unsafe (shallow).

    Ties go to safe. With zero variance the declaration follows the sign
    of (mean - level), ties again to safe.
    """
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    if variance <= 0:
        return 1 if mean >= loss.level else 0
    p_shallow = float(_phi((loss.level - mean) / math.sqrt(variance)))
    return 1 if c1 * p_shallow <= c2 * (1.0 - p_shallow) else 0


def bayes_risk(mean: float, variance: float, loss: LossParams) -> float:
    """Conditional Bayes risk at one location.

    Zero variance means the declaration is certain and the risk is zero.
    """
    return float(bayes_risk_batch(np.array([mean]), np.array([variance]), loss)[0])


def mu_star(sigma_pq: float, loss: LossParams) -> float:
    """Posterior-mean value at which the optimal declaration flips.

    Satisfies P(f < level | mu*, sigma_pq^2) = c2/(c1 + c2). For equal
    costs this is exactly the level; for sigma_pq = 0 it degenerates to
    the level as well.
    """
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    if sigma_pq < 0:
        raise ValueError("sigma_pq must be non-negative")
    if sigma_pq == 0:
        return loss.level
    q = (c2 - c1) / (c1 + c2)
    return loss.level - float(special.erfinv(q)) * sigma_pq * math.sqrt(2.0)


def risk_field(
    kernel: KernelSpec,
    data: DataSet,
    eval_points,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> np.ndarray:
    """Conditional Bayes risk at each of ``eval_points``, in their order,
    under the given belief."""
    means, varis = Belief(kernel, prior_mean, data).predict_arrays(eval_points)
    return bayes_risk_batch(means, varis, loss)


def expected_bayes_risk_closed(inputs, loss: LossParams) -> float:
    """Closed-form expected Bayes risk after the planned measurements.

    ``inputs`` carries (mu_mu, sigma_mu_sq, sigma_pq_sq), e.g. a
    :class:`VarianceReduction`. The value is the planner's batch
    evaluator on one element, with no fallback, so a test of this
    function tests what the planner runs.
    """
    if inputs.sigma_mu_sq < 0 or inputs.sigma_pq_sq < 0:
        raise ValueError("variances must be non-negative")
    return float(
        expected_bayes_risk_closed_batch(
            np.array([inputs.mu_mu], dtype=float),
            np.array([inputs.sigma_mu_sq], dtype=float),
            np.array([inputs.sigma_pq_sq], dtype=float),
            loss,
        )[0]
    )


def _owen_slopes(sd_mu, sd_q, s2, vq, ms, d_ms, d_l, level):
    """Owen's T arguments a1 and a2 of ``risk``'s docstring, concatenated."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.concatenate([
            sd_mu * (ms - level) / (sd_q * d_ms),
            ((level - ms) * s2 - d_l * vq) / (sd_mu * sd_q * d_l),
        ])


def expected_bayes_risk_general(mu_mu, sigma_mu_sq, sigma_pq_sq, loss: LossParams):
    """The closed-form batch as it is written for any pair of costs.

    A copy of ``risk.expected_bayes_risk_closed_batch`` from before it
    took the equal-cost reduction: every element, equal costs included,
    goes through the flip point mu*, both Owen's T terms, beta and the
    normal-CDF term, and zero heads take their limits. The package must
    return these values to the last bit, sign bits included.
    """
    mu_mu = np.asarray(mu_mu, dtype=float)
    s2mu = np.asarray(sigma_mu_sq, dtype=float)
    s2q = np.asarray(sigma_pq_sq, dtype=float)
    if not mu_mu.shape == s2mu.shape == s2q.shape:
        mu_mu, s2mu, s2q = np.broadcast_arrays(mu_mu, s2mu, s2q)
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    level = loss.level
    top = max(c1, c2)
    if (
        mu_mu.size
        and np.minimum.reduce(s2mu, axis=None) > 1e-300
        and np.minimum.reduce(s2q, axis=None) > 1e-300
    ):
        out = None
        mm, vmu, vq = mu_mu.ravel(), s2mu.ravel(), s2q.ravel()
    else:
        out = np.zeros(mu_mu.shape)
        no_spread = s2mu <= 1e-300
        if no_spread.any():
            out[no_spread] = bayes_risk_batch(mu_mu[no_spread], s2q[no_spread], loss)
        live = ~no_spread & (s2q > 1e-300)
        if not live.any():
            return np.minimum(np.maximum(out, 0.0), top)
        mm, vmu, vq = mu_mu[live], s2mu[live], s2q[live]
    sd_mu = np.sqrt(vmu)
    sd_q = np.sqrt(vq)
    s2 = vmu + vq
    flip = float(special.erfinv((c2 - c1) / (c1 + c2)))
    ms = level - flip * sd_q * math.sqrt(2.0)
    d_ms = ms - mm
    d_l = level - mm
    heads = np.concatenate([d_ms / sd_mu, d_l / np.sqrt(s2)])
    slopes = _owen_slopes(sd_mu, sd_q, s2, vq, ms, d_ms, d_l, level)
    owen = special.owens_t(heads, slopes)
    n = mm.shape[0]
    x, k = heads[:n], heads[n:]
    if np.logical_and.reduce(heads):
        t_sum = owen[:n] + owen[n:]
    else:
        zero = heads == 0.0
        owen[zero] = 0.25
        t_sum = owen[:n] + owen[n:]
        both = zero[:n] & zero[n:]
        if both.any():
            rho = sd_mu[both] / np.sqrt(s2[both])
            t_sum[both] = 0.25 + np.arcsin(rho) / (2.0 * math.pi)
    phi = special.ndtr(heads)
    beta = 0.5 * (x * k > 0.0)
    expected = (c1 + c2) * (0.5 - t_sum - beta) + 0.5 * (c2 - c1) * (phi[:n] - phi[n:])
    if out is None:
        return np.minimum(np.maximum(expected, 0.0), top).reshape(mu_mu.shape)
    out[live] = expected
    return np.minimum(np.maximum(out, 0.0), top)


def expected_bayes_risk_quadrature(
    inputs, loss: LossParams, *, epsabs: float = 1e-9
) -> float:
    """Adaptive-quadrature reference for the expected Bayes risk.

    Integrates pi(mu) r(mu, sigma_pq_sq) over the posterior-mean
    distribution, with the integration split at the declaration flip
    where the integrand has a kink. The variable is the standardised mean
    z = (mu - mu_mu)/sigma_mu, and the risk's argument is formed from
    offsets to mu_mu, never from mu itself: a node mu_mu + sigma_mu z
    would be rounded at the scale of mu_mu, which is a relative error of
    1e-7 in the node when sigma_mu is 1e-8. Raises NumericalError if the
    quadrature does not converge to the requested absolute tolerance.
    """
    mu_mu = float(inputs.mu_mu)
    s2mu = float(inputs.sigma_mu_sq)
    s2q = float(inputs.sigma_pq_sq)
    if s2mu < 0 or s2q < 0:
        raise ValueError("variances must be non-negative")
    if s2mu <= 1e-300:
        return bayes_risk(mu_mu, s2q, loss)
    if s2q == 0.0:
        return 0.0
    c1, c2 = loss.cost_deep_wrong, loss.cost_shallow_wrong
    sd_mu = math.sqrt(s2mu)
    sd_q = math.sqrt(s2q)
    to_level = loss.level - mu_mu
    to_flip = mu_star(sd_q, loss) - mu_mu

    def integrand(z):
        p_shallow = 0.5 * math.erfc(-(to_level - sd_mu * z) / (sd_q * math.sqrt(2.0)))
        pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return pdf * min(c1 * p_shallow, c2 * (1.0 - p_shallow))

    # Breakpoints at the declaration flip and bracketing the level: for
    # small residual variance the integrand is a spike of width ~sigma_pq
    # around the level that plain adaptive nodes can miss entirely.
    marks = [to_flip, to_level]
    for w in (1.0, 4.0, 20.0):
        marks += [to_level - w * sd_q, to_level + w * sd_q]
        marks += [to_flip - w * sd_q, to_flip + w * sd_q]
    points = sorted({m / sd_mu for m in marks if -12.0 < m / sd_mu < 12.0}) or None
    result = integrate.quad(
        integrand, -12.0, 12.0, points=points, epsabs=epsabs, epsrel=epsabs,
        limit=200, full_output=1,
    )
    if len(result) > 3:
        raise NumericalError(f"expected-risk quadrature did not converge: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > 1e-6:
        raise NumericalError(
            f"expected-risk quadrature error estimate {abserr:.2e} exceeds 1e-6"
        )
    return float(value)


def expected_bayes_risk_mc(
    kernel: KernelSpec,
    data: DataSet,
    planned_locations,
    query,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
    n_draws: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo expected Bayes risk; returns (estimate, standard error).

    Draws measurement vectors from the joint predictive at the planned
    locations (measurement noise included), conditions the belief on each
    draw, and averages the resulting conditional risk at the query. The
    posterior mean is linear in the drawn values, so the conditioning is
    applied as a dot product. Deterministic for a fixed seed. An empty
    plan returns the current conditional risk exactly, with zero error.
    """
    query = np.asarray(query, dtype=float).reshape(1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    belief = Belief(kernel, prior_mean, data)
    mean_q, var_q, half_q = belief.project(query)
    if planned.shape[0] == 0:
        return bayes_risk(float(mean_q[0]), float(var_q[0]), loss), 0.0

    means_v, _, half_v = belief.project(planned)
    cov_v = kernel(planned, planned) - half_v.T @ half_v
    cross = kernel(planned, query)[:, 0] - half_v.T @ half_q[:, 0]

    meas_cov = cov_v + kernel.noise_std**2 * np.eye(planned.shape[0])
    low_m = _chol_with_jitter(meas_cov, kernel, planned.shape[0])
    weights = np.linalg.solve(low_m.T, np.linalg.solve(low_m, cross))
    var_post = float(var_q[0] - cross @ weights)
    var_post = max(var_post, 0.0)

    rng = np.random.default_rng(seed)
    draws = means_v[None, :] + rng.standard_normal((n_draws, planned.shape[0])) @ low_m.T
    mean_post = float(mean_q[0]) + (draws - means_v[None, :]) @ weights
    risks = bayes_risk_batch(mean_post, np.full(n_draws, var_post), loss)
    est = float(np.mean(risks))
    stderr = float(np.std(risks, ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return est, stderr


def benefit_of_search(
    belief_data: DataSet,
    new_data,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Realized risk reduction from new data, summed over eval points.

    Scores post hoc with measured values: total conditional risk under
    the prior data minus total risk once ``new_data`` has been merged
    under the density rule. Adding nothing is worth exactly zero; adding
    data can only help in expectation, but a realized benefit may be
    negative for surprising measurements.
    """
    risk1 = float(np.sum(
        risk_field(kernel, belief_data, eval_points, loss, prior_mean=prior_mean)
    ))
    merged = copy.deepcopy(belief_data)
    if isinstance(new_data, DataSet):
        samples = [Sample(p, v) for p, v in zip(new_data._locs, new_data._vals)]
    else:
        samples = new_data
    for s in samples:
        merged.insert(s)
    risk2 = float(np.sum(
        risk_field(kernel, merged, eval_points, loss, prior_mean=prior_mean)
    ))
    return risk1 - risk2


def expected_benefit_of_search(
    belief_data: DataSet,
    planned_locations,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Expected risk reduction from planned measurements, before values.

    For each eval point, current conditional risk minus the closed-form
    expected post-measurement risk; summed. Non-negative up to numerical
    tolerance by the monotonicity of expected risk in added data.
    """
    pts = np.asarray(eval_points, dtype=float).reshape(-1, 2)
    planned = np.asarray(planned_locations, dtype=float).reshape(-1, 2)
    means_s, vars_s = Belief(kernel, prior_mean, belief_data).predict_arrays(pts)
    risk_now = bayes_risk_batch(means_s, vars_s, loss)
    if planned.shape[0] == 0:
        return 0.0
    augmented = Belief(kernel, prior_mean, _with_planned(belief_data, planned))
    _, vars_q = augmented.predict_arrays(pts)
    s2mu = np.maximum(vars_s - vars_q, 0.0)
    expected = expected_bayes_risk_closed_batch(means_s, s2mu, vars_q, loss)
    return float(np.sum(risk_now - expected))


def joint_reward(
    data: DataSet,
    location_sets,
    eval_points,
    kernel: KernelSpec,
    loss: LossParams,
    *,
    prior_mean: float = 0.0,
) -> float:
    """Expected benefit of the whole team's plans, taken together.

    Concatenates the per-agent planned location sets in team order,
    thins the union by the density rule against the current data (a
    location only counts once no matter how many plans visit it), and
    returns the expected drop in summed Bayes risk over ``eval_points``.
    """
    sets = [np.asarray(s, dtype=float).reshape(-1, 2) for s in location_sets]
    union = np.vstack(sets) if sets else np.empty((0, 2))
    thinned = admissible_locations(union, data.min_spacing, existing=data.locations)
    return expected_benefit_of_search(
        data, thinned, eval_points, kernel, loss, prior_mean=prior_mean
    )


def vectorized_sample_locations(path, spacing: float) -> np.ndarray:
    """Measurement locations along a built path's chords, array at a time.

    The reference for ``motion.sample_locations``: the start, then on
    each chord between consecutive states points every ``spacing``
    meters from its start (exclusive) plus its end. Every chord is
    handled in one set of numpy calls; both must give the same floats.
    """
    pos = np.array([(s.north, s.east) for s in path.states])
    m = pos.shape[0] - 1
    if m == 0:
        return pos.copy()
    a, b = pos[:-1], pos[1:]
    diff = b - a
    chord = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2)
    cut = chord - 1e-9
    k0 = np.floor(cut / spacing)
    k0 -= k0 * spacing >= cut
    k0 += (k0 + 1.0) * spacing < cut
    counts = np.maximum(k0.astype(np.int64), 0)
    total = int(counts.sum())
    out = np.empty((1 + total + m, 2))
    out[0] = pos[0]
    block_start = 1 + np.concatenate(([0], np.cumsum(counts + 1)[:-1]))
    out[block_start + counts] = b
    if total:
        chord_idx = np.repeat(np.arange(m), counts)
        kvals = (
            np.arange(total)
            - np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
            + 1.0
        )
        t = kvals * spacing / chord[chord_idx]
        out[block_start[chord_idx] + kvals.astype(np.int64) - 1] = (
            a[chord_idx] + t[:, None] * diff[chord_idx]
        )
    return out


def body_displacement(action: float, params) -> tuple[float, float]:
    """Body-frame (dx, dy) of one step through the angle ``action``.

    The formula of ``motion``'s module docstring, on an angle rather
    than an index into the action set.
    """
    r = params.turn_radius
    d = r * (params.theta_max + abs(action))
    dx = math.copysign(1.0, action) * (
        r - r * math.cos(abs(action)) + d * math.sin(abs(action))
    )
    dy = r * math.sin(abs(action)) + d * math.cos(abs(action))
    return dx, dy


def reference_sweep(start, n_steps: int, area, params):
    """The sweep policy's ``(action, heading, north, east)`` for each step.

    The reference for ``motion._sweep``: every step takes the travel
    direction's ``sin``/``cos`` afresh, branches on the long axis, and
    rotates its own move; both must give the same floats.
    """

    def _advance(h, n, e, action, disp):
        dx, dy = disp
        ch, sh = math.cos(h), math.sin(h)
        return h + action, n + (ch * dx + sh * dy), e + (-(sh * dx) + ch * dy)

    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    lo0, lo1 = float(area.min_corner[0]), float(area.min_corner[1])
    hi0, hi1 = float(area.max_corner[0]), float(area.max_corner[1])
    long_ax = 0 if (hi0 - lo0) >= (hi1 - lo1) else 1
    quarter = math.pi / 2.0
    margin = 2.0 * params.turn_radius
    clo0, clo1, chi0, chi1 = lo0 - margin, lo1 - margin, hi0 + margin, hi1 + margin
    disp = {a: body_displacement(a, params) for a in (0.0, quarter, -quarter)}
    if long_ax == 0:
        lane_lo, lane_hi = lo0 + margin, hi0 - margin
    else:
        lane_lo, lane_hi = lo1 + margin, hi1 - margin

    def pick_turn(axis, target_sign, h, n, e):
        # 90-degree step, and where it goes, whose displacement moves
        # along axis*sign.
        best, best_score = None, -math.inf
        for a in (quarter, -quarter):
            moved = _advance(h, n, e, a, disp[a])
            delta = (moved[1] - n) if axis == 0 else (moved[2] - e)
            score = target_sign * delta
            if not (clo0 <= moved[1] <= chi0 and clo1 <= moved[2] <= chi1):
                score -= 1e6
            if best is None or score > best_score:
                best, best_score = (a, moved), score
        return best

    h, n, e = start.heading, start.north, start.east
    steps = []
    for _ in range(n_steps):
        # Travel direction of a straight step is (sin h, cos h).
        sh, ch = math.sin(h), math.cos(h)
        dir_long, dir_lat = (sh, ch) if long_ax == 0 else (ch, sh)
        if abs(dir_long) >= abs(dir_lat):
            act = 0.0
            moved = _advance(h, n, e, act, disp[act])
            n2, e2 = moved[1], moved[2]
            ahead_long = n2 if long_ax == 0 else e2
            in_lane = lane_lo <= ahead_long <= lane_hi
            if not (in_lane and lo0 <= n2 <= hi0 and lo1 <= e2 <= hi1):
                # Begin a turn pair toward the roomier side of the lane.
                pos_lat = e if long_ax == 0 else n
                room_up = (hi1 - pos_lat) if long_ax == 0 else (hi0 - pos_lat)
                room_dn = (pos_lat - lo1) if long_ax == 0 else (pos_lat - lo0)
                act, moved = pick_turn(
                    1 - long_ax, 1.0 if room_up >= room_dn else -1.0, h, n, e
                )
        else:
            # Mid-pair: turn back onto the long axis, toward open water.
            pos_long = n if long_ax == 0 else e
            room_fw = (hi0 - pos_long) if long_ax == 0 else (hi1 - pos_long)
            room_bk = (pos_long - lo0) if long_ax == 0 else (pos_long - lo1)
            act, moved = pick_turn(
                long_ax, 1.0 if room_fw >= room_bk else -1.0, h, n, e
            )
        turned, n, e = moved
        h = wrap_heading(turned)
        steps.append((act, h, n, e))
    return steps


def global_data_from_scratch(result, upto_step: int | None = None) -> DataSet:
    """Team-wide data set: every vehicle's samples through one filter.

    Every ``sample`` event is replayed in log order, optionally keeping
    only those taken during each vehicle's first ``upto_step`` steps.
    """
    data = DataSet(min_spacing=result.config.min_spacing)
    for e in result.events:
        if e["kind"] == "sample" and (upto_step is None or e["step"] <= upto_step):
            data.insert(Sample((e["north"], e["east"]), e["value"]))
    return data


def agent_data_by_two_rules(
    result, agent: int, upto_step: int | None = None
) -> DataSet:
    """What one vehicle knew, replayed from the event log.

    The vehicle's accepted own samples and the triples its ``rx`` events
    inserted go through one density filter in log order, as the vehicle
    inserted them. ``upto_step`` rewinds to the moment the vehicle
    completed step k by two cuts: own samples of its first k steps, and
    only the broadcasts received by the time of its step-k end.
    """
    cutoff = math.inf
    if upto_step is not None:
        cutoff = max(
            (
                e["t"]
                for e in result.events
                if e["kind"] == "step" and e["agent"] == agent and e["n"] <= upto_step
            ),
            default=0.0,
        )
    data = DataSet(min_spacing=result.config.min_spacing)
    for e in result.events:
        if e["agent"] != agent:
            continue
        if e["kind"] == "sample":
            if e["accepted"] and (upto_step is None or e["step"] <= upto_step):
                data.insert(Sample((e["north"], e["east"]), e["value"]))
        elif e["kind"] == "rx" and e["t"] <= cutoff:
            for north, east, value in e["inserted"]:
                data.insert(Sample((north, east), value))
    return data


def sensor_readings(result) -> list[float]:
    """The value of every ``sample`` event, each sounded alone.

    A reading is the lake's depth at the event's location, from a one-row
    evaluation, plus one scalar normal draw when the sensor is noisy.
    Vehicle i draws from ``SeedSequence(seed).spawn(2n + 1)[i]``, one
    draw per sample in the order its samples are logged: its start
    sample, then each step's samples along the segment.
    """
    config = result.config
    lake = synthetic_lake(
        config.bathymetry_family, config.bathymetry_params, config.area(),
        level=config.level,
    )
    n = config.team_size
    rngs = [
        np.random.default_rng(c)
        for c in np.random.SeedSequence(config.seed).spawn(2 * n + 1)[:n]
    ]
    readings = []
    for e in result.events:
        if e["kind"] != "sample":
            continue
        truth = float(lake(np.array([[e["north"], e["east"]]]))[0])
        noise = 0.0
        if config.noise_std > 0:
            noise = float(rngs[e["agent"]].normal(0.0, config.noise_std))
        readings.append(truth + noise)
    return readings


def f32_by_numpy(x) -> float:
    """``x`` rounded to float32 through a numpy scalar; EncodeError past its range."""
    v = float(np.float32(x)) if abs(x) < _F32_OVERFLOW else math.inf
    if not math.isfinite(v):
        raise EncodeError(f"value {x!r} is not a finite float32")
    return v


def _gaussian_by_negation(d2, width):
    with np.errstate(over="ignore"):
        return np.exp(-d2 / (2 * width * width))


def basins_depth_by_sum(background, basins, pts):
    """Background plus each (center, radius, amplitude) Gaussian basin, in order."""
    depth = background
    for center, radius, amplitude in basins:
        d2 = np.sum((pts - center) ** 2, axis=1)
        depth = depth + amplitude * _gaussian_by_negation(d2, radius)
    return depth


def ridge_depth_by_sum(background, start, seg, seg_len2, height, width, pts):
    """Background minus a Gaussian ridge along the segment from ``start``."""
    rel = pts - start
    t = np.clip((rel[:, 0] * seg[0] + rel[:, 1] * seg[1]) / seg_len2, 0.0, 1.0)
    foot = start[None, :] + t[:, None] * seg[None, :]
    d2 = np.sum((pts - foot) ** 2, axis=1)
    return background - height * _gaussian_by_negation(d2, width)


def sample_times_by_norm(t, locs, seg_len, speed) -> list[float]:
    """A step's sample times from numpy's 2-norm of each offset, as arrays."""
    rel = locs - locs[0]
    norms = np.linalg.norm(rel, axis=1)
    chord = max(float(norms[-1]), 1e-12)
    return (t + (norms[1:] / chord) * seg_len / speed).tolist()
