"""`outputs._g17`, the vectorized '%.17g' kernel of the grid CSVs, against
Python's `%`, string for string.

The kernel's certificate and its tie rule are in the `outputs` module
docstring.  Besides its text, a test here can see which values it hands to
Python's `%`: `_fallbacks` runs the kernel with a place table that points
every byte of the fast path at a NUL, so only the values printed by `%`
keep any text.  Nothing here reads stored digests.
"""

from fractions import Fraction

import numpy as np
import pytest

from zmcsurf import outputs
from zmcsurf.geometry import classify_chart
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve

SLOT = 24


def _check(x):
    """The kernel's text of every value of x is Python's '%.17g'."""
    x = np.ascontiguousarray(x, dtype=float)
    got = outputs._g17(x)
    want = b"".join((b"%.17g" % v).ljust(SLOT, b"\0") for v in x.tolist())
    if got.tobytes() != want:
        rows = np.frombuffer(want, np.uint8).reshape(-1, SLOT)
        k = int(np.flatnonzero((got != rows).any(1))[0])
        text = got[k].tobytes().rstrip(b"\0").decode()
        pytest.fail(f"{x[k]!r}: {text!r}, want {'%.17g' % x[k]!r}")


def _fallbacks(x, monkeypatch):
    """The values of x that the kernel prints with Python's `%`."""
    x = np.asarray(x, dtype=float)
    tables = outputs._tables()
    with monkeypatch.context() as m:  # byte 20 of a value's words is a NUL
        m.setattr(outputs, "_tables", lambda: tables[:4] + (np.full_like(tables[4], 20),))
        out = outputs._g17(x)
    return x[out.any(1)]


def _ulps(x, n):
    """x and its n neighbours below and above, one ulp apart, as an array."""
    x = np.asarray(x, dtype=float)
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_seeded_bit_patterns():
    """10^6 uniform 64-bit patterns (91% inside the fast path's range), and
    the special values: +-0, NaN, +-inf, and subnormals."""
    rng = np.random.default_rng(29)
    _check(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))
    subnormal = rng.integers(1, 2**52, 10**4, dtype=np.uint64) | (np.uint64(1) << np.uint64(63))
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    _check(np.concatenate([subnormal.view(np.float64), subnormal.view(np.float64) * -1,
                           specials]))


def test_powers_of_ten_and_their_neighbours():
    """Every power of ten 1e-323..1e308, +-1 and +-2 ulps, both signs: log10
    is off by one next to them, and N + f lands next to 10^16 or 10^17."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    x = _ulps(powers, 2)
    _check(np.concatenate([x, -x]))


def test_g_switch_points():
    """%g turns to exponent form below 1e-4 and from 1e17 on; the values
    that round across a switch (9.9999999999999995e-5 prints 1e-04 form)."""
    points = [1e-5, 1e-4, 1e16, 1e17, 9.99999999999999995e-5, 9.9999999999999999e16,
              1.0000000000000001e-4, 1e15, 0.1, 1.0, 10.0]
    x = _ulps(points, 8)
    _check(np.concatenate([x, -x]))


def _ties(rng, k, count):
    """Doubles x = m / 2^(k+1), m odd, with x 10^k = (m 5^k) / 2 in
    (10^16, 10^17): a tie of the 17-digit rounding at scale 10^k."""
    low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
    m = [int(v) | 1 for v in rng.integers(low, high, count)]
    ties = [(-1) ** int(s) * t / 2 ** (k + 1) for s, t in zip(rng.integers(0, 2, count), m)]
    for x in ties:
        y = abs(Fraction(x)) * 10**k
        assert 10**16 < y < 10**17 and y.denominator == 2, (x, k)
    return np.array(ties)


def test_exact_ties_round_half_to_even_on_the_fast_path(monkeypatch):
    """Exact ties at every scale 10^k, 1 <= k <= 22, where 10^k is a double
    (scale 10^0 has none: x would be an odd multiple of 1/2 above 2^53), and
    the dyadic L of an exact chart: printed by the kernel, not by `%`."""
    rng = np.random.default_rng(2929)
    ties = np.concatenate([_ties(rng, k, 2000) for k in range(1, 23)] + [[-70.4590606689453125]])
    assert "%.17g" % -70.4590606689453125 == "-70.459060668945312"
    _check(ties)
    assert _fallbacks(ties, monkeypatch).size == 0


def test_inexact_scales_send_ties_to_python(monkeypatch):
    """3/2^24 = 1.78813934326171875e-7 is a tie at scale 10^23, which is not
    a double: the certificate cannot see it, so `%` prints it."""
    x = 3 / 2**24
    assert (Fraction(x) * 10**23).denominator == 2
    _check([x, -x])
    assert _fallbacks([x, -x], monkeypatch).size == 2


def test_large_integers():
    """Integers in [2^53, 2^63): exact at scale 10^0 and 10^1, and in
    exponent form from 10^17 on."""
    rng = np.random.default_rng(63)
    _check(rng.integers(2**53, 2**63, 10**5, dtype=np.int64).astype(float))


def test_limits_of_the_fast_path(monkeypatch):
    """[1e-280, 1e280) is printed by the kernel, with the retry below 10^16
    at 1e-280; a value outside goes to `%`."""
    assert outputs._g17(np.array([1e-280])).tobytes().rstrip(b"\0") == b"9.9999999999999996e-281"
    limits = _ulps([1e-280, 1e280], 2)
    _check(np.concatenate([limits, -limits]))
    inside = [1e-280, np.nextafter(1e280, 0), -1e-280, -np.nextafter(1e280, 0)]
    outside = [np.nextafter(1e-280, 0), 1e280, -np.nextafter(1e-280, 0), -1e280]
    assert _fallbacks(inside, monkeypatch).size == 0
    assert _fallbacks(outside, monkeypatch).size == 4


PRESETS = ["z3", "z5", "f1", "f2", "deg26", "plane", "exA1", "exA2", "spacelike_m2"]


@pytest.mark.parametrize("name", PRESETS)
def test_no_printed_preset_value_falls_back(monkeypatch, name):
    """Every finite value the grid CSVs of a preset can print at 65 x 65 (node
    coordinates, the chart, D and the directions) is printed by the kernel."""
    spec = preset_spec(name)
    spec["grid"] = {**spec["grid"], "nu": 65, "nv": 65}
    resolved = resolve(spec)
    chart = resolved.patch.chart(resolved.grid)
    cls = classify_chart(chart)
    parts = [resolved.grid.u_nodes(), resolved.grid.v_nodes(), chart.sigma, chart.L, chart.M,
             chart.N, cls.D, cls.dirs, resolved.patch.grid_coordinates(resolved.grid)]
    x = np.concatenate([np.ravel(np.array(p, dtype=float)) for p in parts])
    x = x[np.isfinite(x)]
    assert x.size > 7 * 65 * 65
    _check(x)
    assert _fallbacks(x, monkeypatch).size == 0
