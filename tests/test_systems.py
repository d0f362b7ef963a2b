import math

import numpy as np
import pytest

from entroflow import systems
from entroflow.foliation import unstable_segment
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


def test_flow_additivity(flow_trig, rng):
    pts = flow_trig.random_points(rng, 40)
    one = flow_trig.flow(flow_trig.flow(pts, 0.4), 0.7)
    two = flow_trig.flow(pts, 1.1)
    assert float(np.max(flow_trig.space.distance(one, two))) < 1e-10


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


def test_base_shear_flat_at_seam():
    shape = BaseShear()
    assert shape.profile(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert shape.profile_deriv(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert shape.profile_deriv(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


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
