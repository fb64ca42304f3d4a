"""Winding indices, perpendicular flows, streamline integration."""

import math

import numpy as np
import pytest

from zmcsurf import (
    FlowField,
    LINE_FIELD,
    WindingError,
    perpendicular,
    streamlines,
    winding_index,
)

from oracles import from_null_components

ROTATION = FlowField(lambda u, v: (-v, u), name="rotation")


def test_rotation_field_has_index_one():
    res = winding_index(ROTATION, radius=0.1)
    assert res.index == 1
    assert res.max_jump < math.pi / 2


def test_z5_style_field_has_index_zero():
    field = FlowField(lambda u, v: (u * u + v * v, -2 * u * v))
    assert winding_index(field, radius=0.1).index == 0


def test_null_component_fields_of_degenerate_example():
    minus = from_null_components(
        lambda x, y: -math.sqrt(7) * y**3, lambda x, y: math.sqrt(3) * x, name="minus"
    )
    plus = from_null_components(
        lambda x, y: math.sqrt(7) * y**3, lambda x, y: math.sqrt(3) * x, name="plus"
    )
    indices = {winding_index(minus).index, winding_index(plus).index}
    assert indices == {1, -1}


def test_null_conversion_preserves_winding():
    # the (x,y) -> (u,v) change acts on argument and components together
    # (a conjugation), so the index is unchanged even though the linear map
    # reverses orientation
    for a_fn, b_fn, want in [
        (lambda x, y: -y, lambda x, y: x, 1),
        (lambda x, y: y, lambda x, y: x, -1),
        (lambda x, y: x, lambda x, y: y, 1),
    ]:
        direct = FlowField(lambda u, v, a=a_fn, b=b_fn: (a(u, v), b(u, v)))
        converted = from_null_components(a_fn, b_fn)
        assert winding_index(direct).index == want
        assert winding_index(converted).index == want


def test_winding_invariant_under_radius_halving():
    for field, want in [
        (ROTATION, 1),
        (FlowField(lambda u, v: (u, -v)), -1),
        (FlowField(lambda u, v: (u * u + v * v, -2 * u * v)), 0),
    ]:
        r1 = winding_index(field, radius=0.1)
        r2 = winding_index(field, radius=0.05)
        assert r1.index == r2.index == want


def test_winding_invariant_under_positive_rescaling():
    scaled = FlowField(
        lambda u, v: (-v * (1 + u * u + v * v), u * (1 + u * u + v * v))
    )
    assert winding_index(scaled).index == 1


def test_perpendicular_negates_index_and_is_involutive():
    perp = perpendicular(ROTATION)
    assert winding_index(perp).index == -1
    double = perpendicular(perp)
    for u, v in [(0.3, 0.2), (-0.5, 0.1)]:
        assert double(u, v) == ROTATION(u, v)


def test_line_field_half_integer_index():
    # line field at angle -theta/2 around the origin: index -1/2
    def ev(u, v):
        theta = math.atan2(v, u)
        return (math.cos(-theta / 2), math.sin(-theta / 2))

    field = FlowField(ev, kind=LINE_FIELD)
    assert winding_index(field).index == -0.5


def test_samples_floor_enforced():
    with pytest.raises(ValueError):
        winding_index(ROTATION, samples=100)


def test_zero_on_circle_retries_then_fails():
    dead = FlowField(lambda u, v: (0.0, 0.0))
    with pytest.raises(WindingError):
        winding_index(dead)


def test_non_integer_winding_rejected():
    # a field that is not continuous in angle: accumulated winding ~ 1/2
    def ev(u, v):
        theta = math.atan2(v, u) / 2.0
        return (math.cos(theta), math.sin(theta))

    field = FlowField(ev)
    with pytest.raises(WindingError):
        winding_index(field)


def _segment_distance(p, a, b):
    ab = b - a
    t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab))


def test_streamline_circle_closure():
    circumference = 2 * math.pi * 0.5
    lines = streamlines(
        ROTATION, [(0.5, 0.0)], step=1e-3, max_len=circumference / 2 + 0.01
    )
    line = lines[0]
    radii = np.hypot(line[:, 0], line[:, 1])
    assert np.max(np.abs(radii - 0.5)) <= 1e-6
    # forward and backward half-circles overlap at the far side: the curve
    # closes up; measure the gap between the two passes near (-0.5, 0)
    seed = np.array([0.5, 0.0])
    far = -seed
    tail = line[-30:]
    gap = min(
        _segment_distance(far, tail[k], tail[k + 1]) for k in range(len(tail) - 1)
    )
    head = line[:30]
    gap_head = min(
        _segment_distance(far, head[k], head[k + 1]) for k in range(len(head) - 1)
    )
    assert gap + gap_head <= 1e-4


def test_streamline_constant_field_is_straight():
    field = FlowField(lambda u, v: (1.0, 0.0))
    (line,) = streamlines(field, [(0.0, 0.0)], step=1e-2, max_len=0.5)
    assert np.max(np.abs(line[:, 1])) == 0.0
    assert line[-1][0] > 0.45 and line[0][0] < -0.45


def test_streamline_respects_bounds():
    field = FlowField(lambda u, v: (1.0, 0.0))
    (line,) = streamlines(
        field, [(0.0, 0.0)], step=1e-2, max_len=10.0, bounds=(-0.2, 0.2, -1, 1)
    )
    assert np.max(line[:, 0]) <= 0.2 + 1e-9
    assert np.min(line[:, 0]) >= -0.2 - 1e-9


def test_streamline_tangent_to_eigenfield_directions():
    from zmcsurf import ParaFunction, WeierstrassData, eigenfields
    from zmcsurf.weierstrass import hopf_differential

    data = WeierstrassData(ParaFunction.monomial(3), ParaFunction.constant(1))
    x1, _ = eigenfields(hopf_differential(data))
    (line,) = streamlines(x1, [(0.4, 0.1)], step=1e-3, max_len=0.3)
    # tangents along the polyline stay aligned with the field
    for k in range(1, len(line) - 1, 25):
        t = line[k + 1] - line[k - 1]
        t = t / np.linalg.norm(t)
        w = np.array(x1(line[k][0], line[k][1]))
        w = w / np.linalg.norm(w)
        assert abs(t[0] * w[1] - t[1] * w[0]) <= 1e-5
