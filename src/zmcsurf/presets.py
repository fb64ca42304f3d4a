"""Named surface presets: the worked examples shipped with the package.

Every preset is an ordinary spec document (see surfacespec), so the JSON
ingestion path is exercised even for built-ins.
"""

from __future__ import annotations

import copy

from .surfacespec import ResolvedSpec, resolve

_SQUARE_GRID = {
    "u_min": -1,
    "u_max": 1,
    "v_min": -1,
    "v_max": 1,
    "nu": 33,
    "nv": 33,
}

_POLY = lambda *coeffs: {"kind": "poly", "coeffs": list(coeffs)}


def _ko_monomial(k: int) -> dict:
    return {
        "route": "ko",
        "data": {
            "g": {"z_poly": [0] * k + [1]},
            "omega_hat": {"z_poly": [1]},
        },
        "grid": dict(_SQUARE_GRID),
    }


def _null(g1, g2) -> dict:
    return {
        "route": "null",
        "data": {"g1": g1, "g2": g2, "w1": _POLY(1), "w2": _POLY(1)},
        "grid": dict(_SQUARE_GRID),
    }


def _kobayashi(m: int) -> dict:
    return {
        "route": "kobayashi",
        "data": {
            "g": [0] * (m + 1) + [f"-1/{m + 1}"],
            "omega_hat": [1],
        },
        "grid": dict(_SQUARE_GRID),
    }


PRESETS = {
    # totally geodesic time-like plane
    "plane": _null(_POLY(0), _POLY(0)),
    # totally quasi-umbilic ruled surface from g = -(1+j) z
    "exA1": {
        "route": "ko",
        "data": {
            "g": {"z_poly": [0, [-1, -1]]},
            "omega_hat": {"z_poly": [1]},
        },
        "grid": dict(_SQUARE_GRID),
    },
    # z-power surfaces: Hopf coefficient -k z^(k-1)
    "z2": _ko_monomial(2),
    "z3": _ko_monomial(3),
    "z5": _ko_monomial(5),
    # quasi-umbilic examples in null coordinates
    "f1": _null(_POLY(0, 1), _POLY(0, 0, 1)),
    "f2": _null(_POLY(0, 1), _POLY(0, 0, 0, 1)),
    # degenerate split-orders (2, 6)
    "deg26": _null(_POLY(0, 0, 0, 1), _POLY(0, 0, 0, 0, 0, 0, 0, 1)),
    # Hopf coefficient not of finite type; degenerate at the base point
    "exA2": {
        "route": "ko",
        "data": {
            "g": {"z_poly": [0, 1]},
            "omega_hat": {"wedge": [{"kind": "exp_flat"}, {"kind": "exp_flat"}]},
        },
        "grid": {
            "u_min": "-4/5",
            "u_max": "4/5",
            "v_min": "-4/5",
            "v_max": "4/5",
            "nu": 17,
            "nv": 17,
        },
        "allow_degenerate_base": True,
    },
    # space-like comparison surfaces with Hopf coefficient z^m
    "spacelike_m1": _kobayashi(1),
    "spacelike_m2": _kobayashi(2),
    "spacelike_m3": _kobayashi(3),
}

#: canonical listing order: the order of PRESETS
PRESET_ORDER = tuple(PRESETS)


def preset_spec(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; see PRESET_ORDER")
    return copy.deepcopy(PRESETS[name])


def load_preset(name: str) -> ResolvedSpec:
    return resolve(preset_spec(name))
