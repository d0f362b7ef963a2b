import math
import re

import numpy as np
import pytest

from entroflow import systems
from entroflow.foliation import unstable_segment
from entroflow.growth import grow_segment
from entroflow.systems import (
    BaseShear,
    CenterShear,
    PerturbedHandle,
    Roof,
    SuspensionFlow,
    TimeTMapHandle,
    ToralMapHandle,
    torus_distance,
)

from conftest import LOG_LAMBDA


def test_cat_map_one_step(cat):
    out = cat.step(np.array([0.2, 0.3]))
    assert np.allclose(out, [0.7, 0.5], atol=1e-15)


def test_cat_map_three_step_orbit(cat):
    # [[2,1],[1,1]]^3 = [[13,8],[8,5]] acting on (0.2, 0.3) mod 1
    x = np.array([0.2, 0.3])
    for _ in range(3):
        x = cat.step(x)
    expect = np.array([(13 * 0.2 + 8 * 0.3) % 1.0, (8 * 0.2 + 5 * 0.3) % 1.0])
    assert float(torus_distance(x, expect)) < 1e-12


def test_cat_map_inverse_roundtrip(cat, rng):
    pts = rng.random((50, 2))
    back = cat.step_back(cat.step(pts))
    assert float(np.max(torus_distance(back, pts))) < 1e-12


def test_hyperbolicity_report_cat():
    handle = ToralMapHandle([[2, 1], [1, 1]])
    assert handle.hyperbolic
    assert math.log(handle.expansion_factor) == pytest.approx(LOG_LAMBDA, abs=1e-12)
    assert handle.expansion_factor == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert float(min(handle.moduli)) == pytest.approx(2 / (3 + math.sqrt(5)), abs=1e-12)


def test_hyperbolicity_report_parabolic():
    handle = ToralMapHandle([[1, 1], [0, 1]])
    assert not handle.hyperbolic
    assert handle.expansion_factor is None


def test_doubling_forward_only(doubling):
    assert doubling.step(np.array([0.3]))[0] == pytest.approx(0.6, abs=1e-15)
    assert doubling.step(np.array([0.8]))[0] == pytest.approx(0.6, abs=1e-15)
    with pytest.raises(ValueError, match="not invertible"):
        doubling.step_back(np.array([0.6]))


def test_torus_distance_wraparound():
    d = torus_distance(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
    assert float(d) == pytest.approx(math.hypot(0.2, 0.2), abs=1e-15)
    assert float(torus_distance(np.array([0.4, 0.4]), np.array([0.4, 0.4]))) == 0.0


def test_roof_bounds_and_values():
    roof = Roof(1.0, [((1, 0), 0.2)])
    assert roof.roof_min == pytest.approx(0.8)
    assert roof.roof_max == pytest.approx(1.2)
    assert roof.value(np.array([0.0, 0.3])) == pytest.approx(1.2)
    assert roof.value(np.array([0.5, 0.9])) == pytest.approx(0.8)
    assert Roof(2.0).is_constant


def test_roof_rejects_bad_coefficients():
    with pytest.raises(ValueError, match="positive"):
        Roof(-1.0)
    with pytest.raises(ValueError, match="below the constant"):
        Roof(1.0, [((1, 0), 0.6), ((0, 1), 0.5)])


# int() truncated a wave vector (1.5, 0) to (1, 0), so a config's record
# said 1.5 of a run at 1; a NaN component died in int() unnamed
@pytest.mark.parametrize("k", [1.5, math.nan, math.inf, "1", True, None])
def test_roof_wave_vector_components_must_be_whole(k):
    with pytest.raises(
        ValueError, match=f"^roof wave vector component must be a whole number, got {re.escape(repr(k))}$"
    ):
        Roof(1.0, [((k, 0), 0.2)])
    # a whole float or a numpy integer runs as its int
    terms = Roof(1.0, [((1.0, np.int64(0)), 0.2)]).terms
    assert terms == (((1, 0), 0.2),)
    assert all(type(c) is int for c in terms[0][0])


def test_flow_additivity(flow_const, flow_trig, rng):
    pts = flow_trig.random_points(rng, 40)
    one = flow_trig.flow(flow_trig.flow(pts, 0.4), 0.7)
    two = flow_trig.flow(pts, 1.1)
    assert float(np.max(flow_trig.space.distance(one, two))) < 1e-10
    # a per-point time array flows each row as the scalar call would
    for fl in (flow_const, flow_trig):
        pts = fl.random_points(rng, 500)
        ts = rng.uniform(-3.0, 3.0, 500)
        rows = np.stack([fl.flow(p, t) for p, t in zip(pts, ts)])
        assert np.array_equal(fl.flow(pts, ts), rows)


def test_flow_zero_is_identity(flow_const, rng):
    pts = flow_const.random_points(rng, 10)
    assert float(np.max(flow_const.space.distance(flow_const.flow(pts, 0.0), pts))) < 1e-14


def test_time_one_map_advances_base(time1):
    out = time1.step(np.array([0.2, 0.3, 0.37]))
    assert np.allclose(out, [0.7, 0.5, 0.37], atol=1e-12)


def test_time_t_roundtrip_variable_roof(flow_trig, rng):
    handle = TimeTMapHandle(flow_trig, 0.7)
    pts = flow_trig.random_points(rng, 40)
    back = handle.step_back(handle.step(pts))
    assert float(np.max(handle.space.distance(back, pts))) < 1e-10


def test_center_shear_profile_periodic():
    shape = CenterShear()
    s = np.linspace(0.0, 1.0, 17)
    assert np.allclose(shape.profile(1.0, s), shape.profile(1.0, s + 1.0), atol=1e-12)
    assert shape.lipschitz(1.0) == pytest.approx(2.0 * math.pi)


@pytest.mark.parametrize(
    "harmonics",
    [
        ((1, 1.0, 0.0),),
        ((1, 0.0, -0.7),),
        ((1, 1.0, 0.0), (2, 0.0, 0.3), (3, -0.4, 0.0)),
        ((1, 0.0, 0.0), (2, 0.5, -0.25), (5, -1e-300, 0.0)),
    ],
)
def test_center_shear_skips_zero_amplitudes_bitwise(harmonics):
    # the full sum, every sin and cos evaluated whatever its amplitude
    def full_profile(c, s):
        out = np.zeros(s.shape)
        for m, a_sin, a_cos in harmonics:
            w = 2.0 * math.pi * m / c
            out = out + a_sin * np.sin(w * s) + a_cos * np.cos(w * s)
        return out

    rng = np.random.default_rng(5)
    s = np.concatenate(
        [
            [0.0, -0.0, 0.25, 0.5, 1.0, -0.75, 1e-300, -1e-300],
            rng.uniform(-3.0, 3.0, 200),
            rng.uniform(-1e6, 1e6, 50),
            [1e15, -1e15, 1e300, -1e300],
        ]
    )
    shape = CenterShear(harmonics)
    for c in (1.0, 0.7):
        assert shape.profile(c, s).tobytes() == full_profile(c, s).tobytes()


def test_base_shear_flat_at_seam():
    # u(s) = (1 - cos 2 pi s) / 2 = pi^2 s^2 + O(s^4): u and u' vanish at
    # the seam, so one-sided difference slopes there are about pi^2 h
    shape = BaseShear()
    assert shape.profile(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    for seam in (0.0, 1.0):
        for h in (1e-3, -1e-3):
            slope = (shape.profile(1.0, seam + h) - shape.profile(1.0, seam)) / h
            assert abs(slope) <= 1.01 * math.pi ** 2 * abs(h)


def test_perturbed_zero_epsilon_matches_reference(time1, rng):
    handle = PerturbedHandle(time1, 0.0, CenterShear())
    pts = time1.suspension.random_points(rng, 30)
    assert np.allclose(handle.step(pts), time1.step(pts), atol=1e-14)


def test_perturbed_rejects_epsilon_above_threshold(time1):
    # 0.5 / (2 pi) is about 0.0796 for the unit-amplitude center shear
    with pytest.raises(ValueError, match="admissibility threshold"):
        PerturbedHandle(time1, 0.08, CenterShear())
    with pytest.raises(ValueError, match=">= 0"):
        PerturbedHandle(time1, -0.01, CenterShear())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: Roof(v), "roof constant"),
        (lambda v: Roof(1.0, [((1, 0), v)]), "roof amplitude"),
        (lambda v: TimeTMapHandle(SuspensionFlow(ToralMapHandle([[2, 1], [1, 1]]), Roof(1.0)), v), "flow time"),
        (
            lambda v: PerturbedHandle(
                TimeTMapHandle(SuspensionFlow(ToralMapHandle([[2, 1], [1, 1]]), Roof(1.0)), 1.0),
                v,
                CenterShear(),
            ),
            "epsilon",
        ),
    ],
    ids=["roof_constant", "roof_amplitude", "time_t", "epsilon"],
)
def test_system_parameters_that_are_not_finite_are_rejected(build, message, value):
    # NaN passed every comparison these checks made, and the time-t and
    # perturbed maps then stepped to NaN heights without an error
    if message == "epsilon" and value == -math.inf:
        message = ">= 0"
    with pytest.raises(ValueError, match=message):
        build(value)


def _time_t(t):
    return TimeTMapHandle(SuspensionFlow(ToralMapHandle([[2, 1], [1, 1]]), Roof(1.0)), t)


@pytest.mark.parametrize("value", [True, False, "2", "0.01", np.bool_(True)], ids=repr)
@pytest.mark.parametrize(
    "build, attribute, accepted, message",
    [
        (lambda v: Roof(2.0, [((1, 0), v)]), lambda r: r.terms[0][1], [-0.5, 1, np.float32(0.25)], "roof amplitude"),
        (_time_t, lambda h: h.t, [-1.5, 0, 2, np.float64(0.5)], "flow time t"),
        (lambda v: PerturbedHandle(_time_t(1.0), v, CenterShear()), lambda h: h.epsilon, [0, 0.01, np.float32(0.02)], "epsilon"),
    ],
    ids=["roof_amplitude", "time_t", "epsilon"],
)
def test_a_bool_or_quoted_system_parameter_is_rejected_by_name(build, attribute, accepted, message, value):
    # float() took these: t = True ran at 1.0, "2" at 2.0, epsilon "0.01"
    # at 0.01 and an amplitude True held 1.0; every finite number still passes
    for v in accepted:
        got = attribute(build(v))
        assert type(got) is float and got == float(v)
    with pytest.raises(ValueError, match=f"^{message} must be "):
        build(value)


@pytest.mark.parametrize("roof", [1.0, 2.5])
def test_center_shear_determinant_above_half_below_threshold(roof):
    # det D(shear) = 1 + eps * sigma'(s) and |sigma'| <= lipschitz(c), so
    # just below the threshold 0.5 / lipschitz the determinant stays > 0.5;
    # the single sine harmonic attains |sigma'| = lipschitz at s = c / 2
    flow = SuspensionFlow(ToralMapHandle([[2, 1], [1, 1]]), Roof(roof))
    reference = TimeTMapHandle(flow, 1.0)
    rng = np.random.default_rng(11)
    heights = np.linspace(0.0, roof, 20001)
    shapes = [CenterShear(((1, 1.0, 0.0),))]
    for _ in range(20):
        ms = rng.choice(np.arange(1, 8), size=3, replace=False)
        shapes.append(CenterShear(tuple((int(m), *rng.normal(size=2)) for m in ms)))
    for shape in shapes:
        eps = (1.0 - 1e-12) * 0.5 / shape.lipschitz(roof)
        PerturbedHandle(reference, eps, shape)
        # sigma'(s) = sum_m w (a_sin cos(w s) - a_cos sin(w s)), w = 2 pi m / c
        deriv = 0.0
        for m, a_sin, a_cos in shape.harmonics:
            w = 2.0 * math.pi * m / roof
            deriv = deriv + w * (a_sin * np.cos(w * heights) - a_cos * np.sin(w * heights))
        det = 1.0 + eps * deriv
        assert float(det.min()) > 0.5


def test_perturbed_requires_constant_roof(flow_trig):
    with pytest.raises(ValueError, match="constant roof"):
        PerturbedHandle(TimeTMapHandle(flow_trig, 1.0), 0.01, CenterShear())


def test_perturbed_roundtrip_both_shapes(time1, rng):
    pts = time1.suspension.random_points(rng, 30)
    for shape in (CenterShear(), BaseShear()):
        handle = PerturbedHandle(time1, handle_eps(shape), shape)
        back = handle.step_back(handle.step(pts))
        assert float(np.max(handle.space.distance(back, pts))) < 1e-9


def handle_eps(shape):
    return 0.5 / shape.lipschitz(1.0) / 2.0


SHAPE_MAKERS = {
    "center": lambda row: CenterShear((row,)),
    "base": lambda row: BaseShear(harmonics=(row,)),
    "direction": lambda row: BaseShear(direction=row),
}


@pytest.mark.parametrize(
    "kind, row",
    [
        ("center", (-1, 1.0, 0.0)),
        ("center", (1.5, 1.0, 0.0)),
        ("center", (1, 1.0)),
        ("center", (1, math.nan, 0.0)),
        ("center", (1, "1.0", 0.0)),
        ("center", 1),
        ("base", (-2, 1.0)),
        ("base", (1, 1.0, 0.0)),
        ("base", (1, math.inf)),
        ("direction", (1, 0, 0)),
        ("direction", (1.0, math.nan)),
        # numbers.Real counts a bool, which ran as 1
        ("center", (True, 1.0, 0.0)),
        ("center", (1, True, 0.0)),
        ("base", (1, True)),
        ("direction", (True, 0.0)),
    ],
)
def test_shear_shapes_reject_malformed_rows(kind, row):
    # a negative m gives a negative Lipschitz constant, so every epsilon
    # would pass the admissibility threshold; a fractional m breaks the period
    with pytest.raises(ValueError, match=re.escape(repr(row))):
        SHAPE_MAKERS[kind](row)


def test_shear_shapes_accept_zero_and_whole_float_harmonics():
    shape = CenterShear(((0, 0.0, 4.0), (2.0, 1.0, 0.0), (np.int64(3), 0.5, 0.0)))
    assert shape.lipschitz(1.0) == pytest.approx(2.0 * math.pi * 3.5)
    BaseShear(direction=[0.0, 1.0], harmonics=[[0, 1.0], [2.0, 0.5]])


def _flow_fixed_point_shear_inverse(handle, pts):
    """Reference inverse shear: a center shear's by a fixed point on the
    flow time through the 3-D flow, a base shear's in closed form."""
    fl = handle.reference.suspension
    c = fl.roof.constant
    pts = fl.canonicalize(pts)
    if isinstance(handle.shape, BaseShear):
        u = handle.epsilon * handle.shape.profile(c, pts[:, 2])
        out = pts.copy()
        w = np.asarray(handle.shape.direction)
        out[:, :2] = systems.wrap_unit(out[:, :2] - u[:, None] * w)
        return out
    guess = pts.copy()
    for _ in range(60):
        nxt = fl.flow(pts, -handle.epsilon * handle.shape.profile(c, guess[:, 2]))
        if np.max(np.abs(nxt - guess)) < 1e-14:
            return nxt
        guess = nxt
    return guess


@pytest.mark.parametrize(
    "shape",
    [
        CenterShear(),
        CenterShear(((1, 1.0, 0.0), (3, 0.2, 0.5))),
        BaseShear(),
        BaseShear(direction=(0.3, -0.8), harmonics=((1, 1.0), (2, 0.4))),
    ],
    ids=["center", "center_multi", "base", "base_multi"],
)
@pytest.mark.parametrize("roof", [1.0, 2.5])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.99])
def test_shear_inverse_matches_flow_fixed_point(shape, roof, frac, rng):
    fl = SuspensionFlow(ToralMapHandle([[2, 1], [1, 1]]), Roof(roof))
    eps = frac * 0.5 / shape.lipschitz(roof)
    handle = PerturbedHandle(TimeTMapHandle(fl, 1.0), eps, shape)
    pts = fl.random_points(rng, 2000)
    got = handle.shear_inverse(pts)
    expect = _flow_fixed_point_shear_inverse(handle, pts)
    assert float(np.max(handle.distance(got, expect))) <= 1e-14
    assert float(np.max(handle.distance(handle.shear(got), pts))) <= 1e-13
    if isinstance(shape, CenterShear):
        s = np.linspace(-roof, 2.0 * roof, 3001)
        back = shape.height_inverse(roof, eps, shape.height(roof, eps, s))
        assert float(np.max(np.abs(back - s))) <= 1e-14


def test_mapping_torus_metric_axioms(flow_const, rng):
    space = flow_const.space
    pts = flow_const.random_points(rng, 25)
    qts = flow_const.random_points(rng, 25)
    rts = flow_const.random_points(rng, 25)
    dpq = np.atleast_1d(space.distance(pts, qts))
    dqp = np.atleast_1d(space.distance(qts, pts))
    assert np.allclose(dpq, dqp, atol=1e-12)
    assert float(np.max(np.atleast_1d(space.distance(pts, pts)))) < 1e-14
    dpr = np.atleast_1d(space.distance(pts, rts))
    dqr = np.atleast_1d(space.distance(qts, rts))
    assert np.all(dpr <= dpq + dqr + 1e-12)


def test_mapping_torus_seam_identification(flow_const):
    space = flow_const.space
    # a point just below the roof is near its glued image just above 0
    p = np.array([0.2, 0.3, 0.999])
    q_base = ToralMapHandle([[2, 1], [1, 1]]).step(np.array([0.2, 0.3]))
    q = np.array([q_base[0], q_base[1], 0.001])
    assert float(space.distance(p, q)) < 0.01


def test_automorphism_apply_matches_matrix(rng):
    handle = ToralMapHandle([[2, 1], [1, 1]])
    pts = rng.random((20, 2))
    expect = (pts @ np.array([[2, 1], [1, 1]]).T) % 1.0
    assert np.allclose(handle.step(pts), expect, atol=1e-12)


def test_toral_handle_rejects_non_integer_matrix():
    with pytest.raises(ValueError):
        ToralMapHandle([[1.5, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 2, 3], [4, 5, 6]], "matrix must be square"),
        (np.eye(4, dtype=int).tolist(), "torus dimension must be 1, 2 or 3"),
        ([[2, 1.5], [1, 1]], "matrix entries must be integers"),
        ([[1, 2], [2, 4]], "matrix must be nonsingular"),
    ],
)
def test_toral_handle_validation_messages(matrix, message):
    with pytest.raises(ValueError, match=message):
        ToralMapHandle(matrix)


@pytest.mark.parametrize(
    "base, message",
    [
        ([[3, 1], [1, 1]], r"matrix must have determinant \+/-1, got 2"),
        ([[1]], "suspension base must act on T\\^2"),
        ([[1, 1], [0, 1]], "suspension base must be hyperbolic"),
    ],
)
def test_suspension_base_validation_messages(base, message):
    with pytest.raises(ValueError, match=message):
        SuspensionFlow(base)


def test_leaf_segment_needs_invertible_hyperbolic_map():
    with pytest.raises(ValueError, match="invertible hyperbolic"):
        unstable_segment(systems.circle_doubling(), np.array([0.3]), 0.05)


def _int_det(m):
    """Exact determinant of a small integer matrix by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _fixed_point_count(matrix, n):
    """#Fix(A^n) = |det(A^n - I)| in exact integer arithmetic."""
    d = len(matrix)
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * matrix[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return abs(_int_det([[power[i][j] - int(i == j) for j in range(d)] for i in range(d)]))


@pytest.mark.parametrize(
    "matrix, n, tol",
    [
        ([[2, 1], [1, 1]], 12, 1e-5),
        # one expanding eigenvalue, the plastic number 1.3247...
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], 40, 1e-3),
    ],
)
def test_periodic_points_match_expansion_factor(matrix, n, tol):
    handle = ToralMapHandle(matrix)
    count = _fixed_point_count(handle.matrix.tolist(), n)
    assert abs(math.log(count) / n - math.log(handle.expansion_factor)) < tol


# --------------------------------------------------------------------------
# mapping-torus distance and displacement against the six-lift reference


def _reference_rows(p, q):
    p2, q2 = np.atleast_2d(p), np.atleast_2d(q)
    n = max(p2.shape[0], q2.shape[0])
    return np.broadcast_to(p2, (n, 3)), np.broadcast_to(q2, (n, 3))


def _reference_chart_dist(p, reps):
    d = np.abs(p[..., None, :2] - reps[..., :2])
    d = np.minimum(d, 1.0 - d)
    dh = p[..., None, 2] - reps[..., 2]
    return np.sqrt(np.sum(d * d, axis=-1) + dh * dh)


def _reference_distance(space, p, q):
    """Minimum chart distance over the three lifts of either argument."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p2, q2 = _reference_rows(p, q)
    dq = _reference_chart_dist(p2, space.lift_reps(q2)).min(axis=-1)
    dp = _reference_chart_dist(q2, space.lift_reps(p2)).min(axis=-1)
    out = np.minimum(dq, dp)
    return float(out[0]) if p.ndim == 1 and q.ndim == 1 else out


def _reference_displacement(space, p, q):
    """Chart step from p to the lift of q with the smallest norm (argmin)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p2, q2 = _reference_rows(p, q)
    reps = space.lift_reps(q2)
    diffs = np.concatenate(
        [
            systems.wrap_diff(reps[:, :, :2], p2[:, None, :2]),
            reps[:, :, 2:] - p2[:, None, 2:],
        ],
        axis=2,
    )
    norms = np.linalg.norm(diffs, axis=2)
    step = diffs[np.arange(p2.shape[0]), np.argmin(norms, axis=1)]
    return step[0] if p.ndim == 1 and q.ndim == 1 else step


def _pair_families(fl, rng, count=400):
    """(p, q) row pairs: seam straddles, base wraps, random near pairs,
    pairs whose nearest copy is a seam lift, and pairs either side of the
    roof_min screen bound."""
    roof = fl.roof
    base = rng.random((count, 2))
    families = {}

    h_top = roof.value(base) - rng.uniform(1e-4, 2e-3, count)
    over = fl.base_map.step(base) + rng.normal(0.0, 1e-3, (count, 2))
    families["seam"] = (
        np.column_stack([base, h_top]),
        fl.canonicalize(np.column_stack([over, rng.uniform(1e-4, 2e-3, count)])),
    )

    edge = np.column_stack([rng.uniform(0.999, 1.0, count), rng.random(count)])
    h = rng.random(count) * roof.roof_min
    families["base_wrap"] = (
        fl.canonicalize(np.column_stack([edge, h])),
        fl.canonicalize(
            np.column_stack([edge + rng.uniform(1e-4, 3e-3, (count, 2)), h + 1e-3])
        ),
    )

    p = fl.random_points(rng, count)
    step = rng.normal(size=(count, 3))
    step *= (rng.uniform(0.0, 0.5, count) / np.linalg.norm(step, axis=1))[:, None]
    families["random"] = (p, fl.canonicalize(p + step))

    # q sits one sheet up from p's base: its down lift shares p's base
    q_base = fl.base_map.step_back(base)
    families["lift_wins"] = (
        np.column_stack([base, rng.uniform(0.0, 0.3, count) * roof.value(base)]),
        np.column_stack(
            [q_base, rng.uniform(0.6, 0.95, count) * roof.value(q_base)]
        ),
    )

    # identity distance plus height gap within a few 1e-9 of roof_min,
    # down to single ulps around roof_min / 2
    rel = np.concatenate(
        [np.linspace(-5e-9, 5e-9, 41), [-1e-12, -1e-15, 0.0, 1e-15, 1e-12]]
    )
    gap = 0.5 * roof.roof_min * (1.0 + rel)
    gap = np.concatenate(
        [gap, np.nextafter(gap, 0.0), np.nextafter(gap, 1.0)]
    )
    b = rng.random((gap.size, 2)) * 0.5
    h0 = 0.01 * rng.random(gap.size)
    families["bound"] = (
        np.column_stack([b, h0]),
        np.column_stack([b, h0 + gap]),
    )
    tilt = rng.uniform(0.0, 0.2, gap.size)
    families["bound_tilted"] = (
        np.column_stack([b, h0]),
        np.column_stack([b + np.column_stack([tilt, 0 * tilt]) * 1e-3, h0 + gap]),
    )

    # q one sheet up with the height gap g chosen so that the identity
    # distance sqrt(D^2 + g^2) equals the down lift's R - g: the two tie
    # on the bound, and small moves of g decide which one is nearer
    q_base = fl.base_map.step_back(base)
    D2 = np.sum(systems.wrap_diff(q_base, base) ** 2, axis=1)
    R = roof.value(q_base)
    g = (R * R - D2) / (2.0 * R)
    g = np.concatenate(
        [g * (1.0 + r) for r in (-1e-8, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-8)]
    )
    b = np.tile(base, (7, 1))
    h0 = 0.01 * rng.random(g.size)
    families["bound_tie"] = (
        fl.canonicalize(np.column_stack([b, h0])),
        fl.canonicalize(np.column_stack([np.tile(q_base, (7, 1)), h0 + g])),
    )
    return families


@pytest.mark.parametrize("flow_name", ["flow_const", "flow_trig"])
def test_mapping_torus_distance_matches_six_lift_reference(flow_name, request, rng):
    fl = request.getfixturevalue(flow_name)
    space = fl.space
    for name, (p, q) in _pair_families(fl, rng).items():
        for a, b in ((p, q), (q, p)):
            assert np.array_equal(
                space.distance(a, b), _reference_distance(space, a, b)
            ), name
            assert np.array_equal(
                space.displacement(a, b), _reference_displacement(space, a, b)
            ), name
        # 1-D against 1-D, one row broadcast against many, both ways
        for i in (0, len(p) // 2, len(p) - 1):
            assert space.distance(p[i], q[i]) == _reference_distance(space, p[i], q[i])
            assert np.array_equal(
                space.displacement(p[i], q[i]),
                _reference_displacement(space, p[i], q[i]),
            )
            for a, b in ((p[i], q), (p, q[i]), (p[i : i + 1], q), (p, q[i : i + 1])):
                assert np.array_equal(
                    space.distance(a, b), _reference_distance(space, a, b)
                ), name
                assert np.array_equal(
                    space.displacement(a, b), _reference_displacement(space, a, b)
                ), name


def test_mapping_torus_distance_nan_rows_stay_nan(flow_const):
    space = flow_const.space
    p = np.array([[0.2, 0.3, 0.5], [np.nan, 0.3, 0.5], [0.2, 0.3, np.nan]])
    q = np.array([[0.21, 0.3, 0.5], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
    for a, b in ((p, q), (q, p)):
        assert np.array_equal(
            space.distance(a, b), _reference_distance(space, a, b), equal_nan=True
        )
        assert np.array_equal(
            space.displacement(a, b),
            _reference_displacement(space, a, b),
            equal_nan=True,
        )


def _count_lifts(monkeypatch):
    """Wrap MappingTorusSpace.lift_reps; returns the list of lifted row counts."""
    calls = []
    lift_reps = systems.MappingTorusSpace.lift_reps

    def counted(self, pts):
        calls.append(np.atleast_2d(pts).shape[0])
        return lift_reps(self, pts)

    monkeypatch.setattr(systems.MappingTorusSpace, "lift_reps", counted)
    return calls


def test_constant_height_polyline_builds_no_lifts(time1, monkeypatch):
    calls = _count_lifts(monkeypatch)
    seg = unstable_segment(time1, np.array([0.2, 0.3, 0.5]), 0.05, spacing=0.005)
    grown = grow_segment(time1, seg, 3, 0.01)
    assert np.all((grown.points[:, 2] > 0.1) & (grown.points[:, 2] < 0.9))
    grown.point_at(np.linspace(0.0, grown.arclength, 50))
    pts = grown.points
    time1.space.displacement(pts[:-1], pts[1:])
    time1.space.distance(pts[0], pts)
    assert calls == []


def test_only_seam_straddling_rows_are_lifted(flow_const, monkeypatch):
    space = flow_const.space
    base = np.array([[0.2, 0.3], [0.6, 0.1], [0.45, 0.8], [0.05, 0.5]])
    near_p = np.column_stack([base, [0.5, 0.2, 0.7, 0.4]])
    near_q = near_p + 0.003
    top = np.column_stack([base[:2], [0.999, 0.9995]])
    glued = np.column_stack([flow_const.base_map.step(base[:2]), [0.001, 0.0005]])
    p = np.concatenate([near_p[:2], top[:1], near_p[2:], top[1:]])
    q = np.concatenate([near_q[:2], glued[:1], near_q[2:], glued[1:]])
    calls = _count_lifts(monkeypatch)
    d = space.distance(p, q)
    assert calls == [2, 2]
    assert np.all(d[[2, 5]] < 0.01)
    calls.clear()
    space.displacement(p, q)
    assert calls == [2]
    calls.clear()
    space.distance(near_p, near_q)
    space.displacement(near_p, near_q)
    assert calls == []


@pytest.mark.parametrize("method", ["distance", "displacement"])
def test_mapping_torus_row_count_mismatch(flow_const, rng, method):
    space = flow_const.space
    p = flow_const.random_points(rng, 4)
    q = flow_const.random_points(rng, 3)
    with pytest.raises(ValueError, match="row counts differ: 4 points against 3"):
        getattr(space, method)(p, q)
    with pytest.raises(ValueError, match="row counts differ: 3 points against 4"):
        getattr(space, method)(q, p)


# --- fast paths against the loops and products they replaced ----------------


def _reference_wrap_unit(x):
    """wrap_unit as a chain of out-of-place operations."""
    x = np.asarray(x, dtype=float)
    y = x - np.floor(x)
    y = np.where(y >= 1.0, 0.0, y)
    return y + 0.0


def _reference_matrix_step(matrix, pts):
    """A toral step through the BLAS product pts @ M.T."""
    m = np.asarray(matrix).astype(float)
    return _reference_wrap_unit(np.asarray(pts, dtype=float) @ m.T)


def _reference_canonicalize(fl, pts):
    """Canonicalization by boolean-indexed passes that evaluate the roof
    on every row, through the BLAS base steps."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
    bm = fl.base_map
    base = _reference_wrap_unit(pts[:, :2])
    h = pts[:, 2].copy()
    for _ in range(10_000):
        r = fl.roof.value(base)
        over = h >= r
        if not np.any(over):
            break
        h[over] -= r[over]
        base[over] = _reference_matrix_step(bm.matrix, base[over])
    for _ in range(10_000):
        under = h < 0
        if not np.any(under):
            break
        base[under] = _reference_matrix_step(bm.inverse_matrix, base[under])
        h[under] += fl.roof.value(base[under])
    return np.concatenate([base, h[:, None]], axis=1)


def _same_bits(a, b):
    """Equal shapes, types and bit patterns (so -0.0 differs from +0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_wrap_unit_matches_reference():
    edge = [
        -0.0, 0.0, -1e-18, -1e-300, math.nextafter(1.0, 0.0), 1.0, -1.0,
        2.5, -2.5, 1e6 + 0.3, -7.0 - 1e-15, math.nextafter(-3.0, 0.0),
    ]
    for x in (np.array(edge), np.array(edge).reshape(3, 4), np.array(edge)[::2]):
        assert _same_bits(systems.wrap_unit(x), _reference_wrap_unit(x))
    out = systems.wrap_unit(np.array([np.nan, -0.5]))
    assert np.isnan(out[0]) and out[1] == 0.5
    for v in edge:
        got = systems.wrap_unit(v)
        assert type(got) is np.float64
        assert _same_bits(got, _reference_wrap_unit(v))
    x = np.array([1.5, -0.0])
    systems.wrap_unit(x)
    assert _same_bits(x, np.array([1.5, -0.0]))  # the input is untouched


def _canonicalization_inputs(fl, rng):
    n = 300
    base = rng.random((n, 2))
    canon = fl.random_points(rng, n)
    top = fl.roof.roof_max
    hair = math.nextafter(1.0, 0.0)
    rows = {
        "canonical": canon,
        "roofs above": np.column_stack([base, rng.uniform(1.0, 6.0, n) * top]),
        "roofs below": np.column_stack([base, -rng.uniform(0.0, 6.0, n) * top]),
        "one up": canon + [0.0, 0.0, fl.roof.roof_min],
        "one down": canon - [0.0, 0.0, top],
        "off-chart bases": np.column_stack(
            [rng.uniform(-3.0, 3.0, (n, 2)), canon[:, 2]]
        ),
        "signed zeros": np.array(
            [[-0.0, 0.3, -0.0], [0.2, -0.0, 0.0], [-0.0, -0.0, 0.5], [0.0, 0.0, -0.0]]
        ),
        "hair below one": np.array(
            [
                [hair, 0.5, 0.2],
                [0.5, hair, 0.2],
                [-1e-18, 0.25, 0.1],
                [0.3, 0.4, math.nextafter(fl.roof.roof_min, 0.0)],
                [hair, hair, math.nextafter(0.0, -1.0)],
                [0.1, 0.9, fl.roof.constant],
            ]
        ),
    }
    rows["mixed"] = np.concatenate(list(rows.values()))
    return rows


@pytest.mark.parametrize("flow_name", ["flow_const", "flow_trig"])
def test_canonicalize_and_flow_match_reference(flow_name, request, rng):
    fl = request.getfixturevalue(flow_name)
    for name, pts in _canonicalization_inputs(fl, rng).items():
        assert _same_bits(fl.canonicalize(pts), _reference_canonicalize(fl, pts)), name
        assert _same_bits(fl.space.canonicalize(pts), fl.canonicalize(pts)), name
        ts = rng.uniform(-3.0, 3.0, pts.shape[0])
        for t in (1.0, -1.0, 0.37, 2.5, ts):
            shifted = pts.copy()
            shifted[:, 2] += t
            assert _same_bits(fl.flow(pts, t), _reference_canonicalize(fl, shifted)), name
        assert _same_bits(fl.canonicalize(pts[0]), _reference_canonicalize(fl, pts[0]))
        assert _same_bits(fl.flow(pts[0], 1.0), fl.flow(pts[:1], 1.0)[0])


MATRICES = {
    "cat": [[2, 1], [1, 1]],
    "cat_inverse": [[1, -1], [-1, 2]],
    "3121": [[3, 1], [2, 1]],
    "5221": [[5, 2], [2, 1]],
    "companion3": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
    "doubling": [[2]],
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_toral_step_matches_blas_product(name, rng):
    handle = ToralMapHandle(MATRICES[name])
    d = handle.dim
    pts = np.concatenate(
        [
            rng.random((100_000, d)),
            rng.normal(0.0, 3.0, (1000, d)),
            np.full((1, d), -0.0),
            np.full((1, d), math.nextafter(1.0, 0.0)),
        ]
    )
    assert _same_bits(handle.step(pts), _reference_matrix_step(handle.matrix, pts))
    assert _same_bits(handle.step(pts[7]), _reference_matrix_step(handle.matrix, pts[7]))
    # BLAS may fuse a later column's product into the running sum; that
    # only agrees with the rounded products when they are exact, as in
    # these inverses but not in [[1, -1], [-2, 3]] or [[1, -2], [-2, 5]]
    if name in ("cat", "companion3"):
        assert _same_bits(
            handle.step_back(pts), _reference_matrix_step(handle.inverse_matrix, pts)
        )
    with pytest.raises(ValueError, match="dimension"):
        handle.step(np.zeros((4, d + 1)))


def test_eigen_directions_computed_once_and_read_only(monkeypatch):
    handle = ToralMapHandle([[2, 1], [1, 1]])
    calls = []
    eig = np.linalg.eig

    def counted(a):
        calls.append(1)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    u, s = handle.unstable_direction, handle.stable_direction
    for _ in range(3):
        assert handle.unstable_direction is u
        assert handle.stable_direction is s
    assert len(calls) == 2
    for v in (u, s):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
    fresh = ToralMapHandle([[2, 1], [1, 1]])
    assert _same_bits(u, fresh._real_eigvec(fresh.expansion_factor))
    assert _same_bits(s, fresh._real_eigvec(float(np.min(fresh.moduli))))


def _reference_shear(handle, pts):
    """The shear applied to canonicalized points, the result canonicalized."""
    fl = handle.reference.suspension
    c = fl.roof.constant
    pts = fl.canonicalize(pts)
    u = handle.epsilon * handle.shape.profile(c, pts[:, 2])
    out = pts.copy()
    if isinstance(handle.shape, CenterShear):
        out[:, 2] += u
        return fl.canonicalize(out)
    out[:, :2] = _reference_wrap_unit(out[:, :2] + u[:, None] * np.asarray(handle.shape.direction))
    return out


@pytest.mark.parametrize("shape", [CenterShear(), BaseShear()], ids=["center", "base"])
def test_perturbed_step_matches_shear_reference(time1, shape, rng):
    handle = PerturbedHandle(time1, 0.03, shape)
    fl = time1.suspension
    pts = fl.random_points(rng, 2000)
    expect = time1.step(_reference_shear(handle, pts))
    assert _same_bits(handle.step(pts), expect)
    # off-chart input: whole-unit base offsets and a height one roof up
    off = pts + np.array([1.0, -2.0, 1.0])
    expect = time1.step(_reference_shear(handle, off))
    if isinstance(shape, BaseShear):
        assert _same_bits(handle.step(off), expect)
    else:
        # the profile is evaluated one period up, which can move the last bit
        assert float(np.max(handle.distance(handle.step(off), expect))) < 1e-12


# --- column-wise chart arithmetic against the row-wise forms it replaced ----
# The bodies below are the (N, 2)-slice forms of MappingTorusSpace and
# SuspensionFlow that the column-wise ones replaced; every value must keep
# its bits.


def _rowwise_chart_dist(p, reps):
    d = p[..., None, :2] - reps[..., :2]
    np.abs(d, out=d)
    np.minimum(d, 1.0 - d, out=d)
    d *= d
    sq = np.sum(d, axis=-1)
    dh = p[..., None, 2] - reps[..., 2]
    dh *= dh
    sq += dh
    return np.sqrt(sq, out=sq)


def _rowwise_distance(space, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p2, q2 = space._rows(p, q)
    out = _rowwise_chart_dist(p2, q2[:, None, :])[:, 0]
    far = space._lifted_rows(p2, q2, out)
    if far.size:
        pf, qf = p2[far], q2[far]
        dq = _rowwise_chart_dist(pf, space.lift_reps(qf)).min(axis=-1)
        dp = _rowwise_chart_dist(qf, space.lift_reps(pf)).min(axis=-1)
        out[far] = np.minimum(dq, dp)
    return float(out[0]) if p.ndim == 1 and q.ndim == 1 else out


def _rowwise_displacement(space, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    p2, q2 = space._rows(p, q)
    step = np.concatenate(
        [systems.wrap_diff(q2[:, :2], p2[:, :2]), q2[:, 2:] - p2[:, 2:]], axis=1
    )
    far = space._lifted_rows(p2, q2, np.linalg.norm(step, axis=1))
    if far.size:
        pf = p2[far]
        reps = space.lift_reps(q2[far])
        diffs = np.concatenate(
            [
                systems.wrap_diff(reps[:, :, :2], pf[:, None, :2]),
                reps[:, :, 2:] - pf[:, None, 2:],
            ],
            axis=2,
        )
        norms = np.linalg.norm(diffs, axis=2)
        step[far] = diffs[np.arange(far.size), np.argmin(norms, axis=1)]
    return step[0] if p.ndim == 1 and q.ndim == 1 else step


def _rowwise_settle(fl, base, h):
    roof = fl.roof
    roof_at = (lambda b: roof.constant) if roof.is_constant else roof.value
    for _ in range(10_000):
        r = roof_at(base)
        over = h >= r
        crossing = np.count_nonzero(over)
        if crossing == 0:
            break
        if crossing == h.size:
            h -= r
            base = fl.base_map.step(base)
        else:
            h[over] -= np.broadcast_to(r, h.shape)[over]
            base[over] = fl.base_map.step(base[over])
    for _ in range(10_000):
        under = h < 0
        crossing = np.count_nonzero(under)
        if crossing == 0:
            break
        if crossing == h.size:
            base = fl.base_map.step_back(base)
            h += roof_at(base)
        else:
            base[under] = fl.base_map.step_back(base[under])
            h[under] += roof_at(base[under])
    return np.concatenate([base, h[:, None]], axis=1)


def _rowwise_canonicalize(fl, pts):
    rows = np.atleast_2d(np.asarray(pts, dtype=float))
    return _rowwise_settle(fl, systems.wrap_unit(rows[:, :2]), rows[:, 2].copy())


def _rowwise_flow(fl, pts, t):
    rows = np.atleast_2d(np.asarray(pts, dtype=float))
    return _rowwise_settle(fl, systems.wrap_unit(rows[:, :2]), rows[:, 2] + t)


def _rowwise_lerp(space, p, q, frac):
    p = np.asarray(p, dtype=float)
    frac = np.asarray(frac, dtype=float)
    if frac.ndim == 1:
        frac = frac[:, None]
    return _rowwise_canonicalize(space.flow, p + frac * _rowwise_displacement(space, p, q))


def _rowwise_step(handle, pts):
    fl = handle.reference.suspension
    shape, eps, c = handle.shape, handle.epsilon, fl.roof.constant
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(shape, CenterShear):
        h = shape.height(c, eps, pts[:, 2])
        sheared = _rowwise_settle(fl, systems.wrap_unit(pts[:, :2]), h)
    else:
        sheared = _rowwise_canonicalize(fl, pts)
        u = eps * shape.profile(c, sheared[:, 2])
        sheared[:, :2] = systems.wrap_unit(
            sheared[:, :2] + u[:, None] * np.asarray(shape.direction)
        )
    return _rowwise_flow(fl, sheared, handle.reference.t)


def _column_cases(fl, rng, count=500):
    """(p, q) row pairs: canonical rows, rows within 1e-3 of h = 0 and of
    the roof, whose pairs reach the six-lift path, and the pair families of
    the six-lift reference (ties on the screen bound among them)."""
    p = fl.random_points(rng, count)
    base = rng.random((count, 2))
    top = np.column_stack([base, fl.roof.value(base) - rng.uniform(0.0, 1e-3, count)])
    bottom = fl.canonicalize(
        np.column_stack(
            [fl.base_map.step(base) + rng.normal(0.0, 1e-3, (count, 2)), rng.uniform(0.0, 1e-3, count)]
        )
    )
    return {
        **_pair_families(fl, rng),
        "canonical": (p, fl.random_points(rng, count)),
        "canonical near": (p, fl.canonicalize(p + rng.normal(0.0, 0.01, (count, 3)))),
        "near seam": (top, bottom),
        "near seam mixed": (np.concatenate([top, p]), np.concatenate([bottom, p[::-1]])),
    }


@pytest.mark.parametrize("flow_name", ["flow_const", "flow_trig"])
def test_column_wise_chart_arithmetic_keeps_the_row_wise_bits(flow_name, request, rng):
    fl = request.getfixturevalue(flow_name)
    space = fl.space
    for name, (p, q) in _column_cases(fl, rng).items():
        if name.startswith("near seam"):
            assert space._lifted_rows(p, q, _rowwise_distance(space, p, q)).size > 0
        i = len(p) // 3
        # both ways round; one row against many, as a 1-D row and as (1, 3)
        pairs = [(p, q), (q, p), (p[i], q), (p, q[i]), (p[i : i + 1], q), (p[i], q[i])]
        for a, b in pairs:
            for method, reference in (
                ("distance", _rowwise_distance),
                ("displacement", _rowwise_displacement),
            ):
                assert _same_bits(
                    getattr(space, method)(a, b), reference(space, a, b)
                ), (name, method)
            got = space.lerp(a, b, 0.5)
            want = _rowwise_lerp(space, a, b, 0.5)
            assert _same_bits(got, want[0] if got.ndim == 1 else want), name
        frac = rng.random(len(p))
        assert _same_bits(space.lerp(p, q, frac), _rowwise_lerp(space, p, q, frac)), name
    # off-chart rows, signed zeros and heights a hair off the seam too
    for name, rows in _canonicalization_inputs(fl, rng).items():
        assert _same_bits(fl.canonicalize(rows), _rowwise_canonicalize(fl, rows)), name
        for t in (1.0, -0.37, rng.uniform(-3.0, 3.0, len(rows))):
            assert _same_bits(fl.flow(rows, t), _rowwise_flow(fl, rows, t)), name
        assert _same_bits(fl.canonicalize(rows[0]), _rowwise_canonicalize(fl, rows[0]))
        assert _same_bits(fl.flow(rows[0], 0.7), _rowwise_flow(fl, rows[0], 0.7)[0])


@pytest.mark.parametrize("shape", [CenterShear(), BaseShear()], ids=["center", "base"])
def test_column_wise_perturbed_step_keeps_the_row_wise_bits(time1, shape, rng):
    handle = PerturbedHandle(time1, 0.03, shape)
    fl = time1.suspension
    for name, (p, q) in _column_cases(fl, rng).items():
        for rows in (p, q, p + np.array([1.0, -2.0, 1.0]), np.array([[0.3, -0.0, -0.0]])):
            assert _same_bits(handle.step(rows), _rowwise_step(handle, rows)), name
        assert _same_bits(handle.step(p[0]), _rowwise_step(handle, p[0])), name
