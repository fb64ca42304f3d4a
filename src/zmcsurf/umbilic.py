"""Local analysis at a zero of the Hopf coefficient.

Given the Hopf coefficient Q as a split-branch function, this module
extracts the two branch orders of vanishing at the base point, classifies
the local structure (umbilic / quasi-umbilic / degenerate cases), predicts
whether smooth curvature-line flows exist and with what indices, and
constructs the explicit eigenvector fields when they do.

The index prediction for an umbilic with both branch orders even, positive
leading-coefficient product, and half-orders n1 = m1/2, n-1 = m-1/2 is:
indices {+1, -1} when n1 and n-1 are both odd, {0} otherwise.  For equal
orders m this is exactly the residue of m mod 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .flow import Circles, FlowField, Kernel, Swapped, winding_index
from .geometry import each
from .parafunc import ParaFunction, SplitOrders
from .poly import horner

PARITY_ODD = "odd_order"
PARITY_MOD4_2 = "m_mod_4_eq_2"
PARITY_MOD4_0 = "m_mod_4_eq_0"
PARITY_QUASI = "quasi_umbilic"
PARITY_INFINITE = "infinite"
PARITY_NONE = "none"

PRED_NOT_ADMISSIBLE = "not admissible"
PRED_ALL_NEGATIVE = "no smooth flow (all-negative neighborhood)"
PRED_QUASI = "not applicable (quasi-umbilic)"
PRED_TOTALLY_UMBILIC = "totally umbilic (Hopf coefficient identically zero)"
PRED_TOTALLY_QUASI = "no isolated singular point (totally quasi-umbilic)"
PRED_UNDECIDABLE = "possibly totally umbilic, undecidable at cap"
PRED_NOT_A_ZERO = "not applicable (base point is neither umbilic nor quasi-umbilic)"


class NoSmoothFlowError(ValueError):
    """Raised when the eigenfield construction hypotheses fail."""


@dataclass
class IndexReport:
    """Split-orders, structure verdicts, and predicted vs measured indices."""

    orders: SplitOrders
    point_type: str
    degenerate: Optional[bool]
    order: Optional[int]
    psi_product_sign: Optional[int]
    parity_class: str
    predicted_indices: object  # frozenset of ints, or explanatory string
    local_structure: str
    admissible: str  # "yes" | "no" | "undecidable"
    cap: int
    notes: tuple = ()
    measured_indices: Optional[dict] = None
    measured_info: Optional[dict] = None
    match: Optional[bool] = None
    # (field name, kind, WindingResult) at the requested radius; not serialized
    windings: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        pred = self.predicted_indices
        if isinstance(pred, frozenset):
            pred = sorted(pred)
        return {
            "split_orders": {
                "m1": self.orders.plus.label,
                "m_minus1": self.orders.minus.label,
                "c1": _num(self.orders.plus.coeff),
                "c_minus1": _num(self.orders.minus.coeff),
                "jet_cap": self.cap,
            },
            "point_type": self.point_type,
            "degenerate": self.degenerate,
            "order": self.order,
            "psi_product_sign": self.psi_product_sign,
            "parity_class": self.parity_class,
            "predicted_indices": pred,
            "local_structure": self.local_structure,
            "admissible": self.admissible,
            "notes": list(self.notes),
            "measured_indices": self.measured_indices,
            "measured_info": self.measured_info,
            "match": self.match,
        }


def _num(x):
    if x is None:
        return None
    return float(x)


def _sign(x) -> int:
    return 1 if x > 0 else -1


def analyze_point(qhat: ParaFunction, cap: int = 16) -> IndexReport:
    """Structure and index predictions at the origin from Q's split form."""
    so = qhat.split_orders(cap)
    p, m = so.plus, so.minus

    common = dict(orders=so, cap=cap, degenerate=None, order=None,
                  psi_product_sign=None)

    # neither branch decided finite: identically zero or undecidable
    if not p.finite and not m.finite:
        if p.exact_infinite and m.exact_infinite:
            return IndexReport(
                point_type="totally_umbilic",
                parity_class=PARITY_INFINITE,
                predicted_indices=PRED_TOTALLY_UMBILIC,
                local_structure="every point of the chart is an umbilic",
                admissible="yes",
                **common,
            )
        return IndexReport(
            point_type="undecidable",
            parity_class=PARITY_INFINITE,
            predicted_indices=PRED_UNDECIDABLE,
            local_structure=f"all branch jets vanish up to cap {cap}",
            admissible="undecidable",
            **common,
        )

    # one branch infinite / beyond cap, the other finite
    if p.finite != m.finite:
        fin, inf_side = (p, m) if p.finite else (m, p)
        s_fin = 1 if p.finite else -1
        caveat = () if inf_side.exact_infinite else (
            f"order >= {cap} on one branch treated as infinite; undecidable at cap",
        )
        if fin.order == 0:
            return IndexReport(
                point_type="quasi_umbilic",
                parity_class=PARITY_INFINITE,
                predicted_indices=PRED_TOTALLY_QUASI,
                local_structure="every point of the chart is a quasi-umbilic",
                admissible="yes" if inf_side.exact_infinite else "undecidable",
                notes=caveat,
                **common,
            )
        # finite order >= 1: umbilics fill one null line
        line = -s_fin
        return IndexReport(
            point_type="umbilic",
            parity_class=PARITY_INFINITE,
            predicted_indices="not applicable (non-isolated umbilic line)",
            local_structure=(
                f"umbilic set is the null line {{u - ({line}) v = 0}}; "
                "quasi-umbilics fill its complement"
            ),
            admissible="yes" if inf_side.exact_infinite else "undecidable",
            notes=caveat,
            **common,
        )

    # both finite
    m1, mm1 = p.order, m.order
    c1, cm1 = p.coeff, m.coeff
    degenerate = m1 != mm1
    order = m1 if not degenerate else None
    prod_sign = _sign(c1) * _sign(cm1)  # a float product can underflow to 0
    common.update(degenerate=degenerate, order=order, psi_product_sign=prod_sign)

    if m1 == 0 and mm1 == 0:
        return IndexReport(
            point_type="regular",
            parity_class=PARITY_NONE,
            predicted_indices=PRED_NOT_A_ZERO,
            local_structure=(
                "positive point" if prod_sign > 0 else "negative point"
            ),
            admissible="yes" if prod_sign > 0 else "no",
            **common,
        )

    if m1 == 0 or mm1 == 0:
        # quasi-umbilic at the base point
        s_zero = 1 if m1 == 0 else -1  # branch with order 0
        m_pos = mm1 if m1 == 0 else m1
        if m_pos % 2 == 1:
            sides, admissible = "positive and negative points on either side", "no"
        else:
            word = "positive" if prod_sign > 0 else "negative"
            sides = f"complement consists of {word} points"
            admissible = "yes" if prod_sign > 0 else "no"
        return IndexReport(
            point_type="quasi_umbilic",
            parity_class=PARITY_QUASI,
            predicted_indices=PRED_QUASI,
            local_structure=(
                f"quasi-umbilics exactly on the null line {{u - ({s_zero}) v = 0}}; "
                f"{sides}; unique principal direction parallel to {(-s_zero, 1)}"
            ),
            admissible=admissible,
            **common,
        )

    # both orders >= 1: umbilic at the base point
    structure = (
        "umbilic set is {o}; both punctured null lines consist of quasi-umbilics"
    )
    if m1 % 2 == 1 or mm1 % 2 == 1:
        return IndexReport(
            point_type="umbilic",
            parity_class=PARITY_ODD,
            predicted_indices=PRED_NOT_ADMISSIBLE,
            local_structure=structure
            + "; positive and negative points in every punctured neighborhood",
            admissible="no",
            **common,
        )
    n1, nm1 = m1 // 2, mm1 // 2
    parity = PARITY_MOD4_2 if (n1 % 2 == 1 and nm1 % 2 == 1) else PARITY_MOD4_0
    notes = ()
    if degenerate:
        notes = (
            "degenerate: non-degeneracy hypothesis not met, "
            "eigenfield construction extrapolated",
        )
    if prod_sign < 0:
        return IndexReport(
            point_type="umbilic",
            parity_class=parity,
            predicted_indices=PRED_ALL_NEGATIVE,
            local_structure=structure + "; complement of the null lines is all-negative",
            admissible="no",
            notes=notes,
            **common,
        )
    predicted = frozenset({1, -1}) if parity == PARITY_MOD4_2 else frozenset({0})
    return IndexReport(
        point_type="umbilic",
        parity_class=parity,
        predicted_indices=predicted,
        local_structure=structure + "; complement of the null lines is all-positive",
        admissible="yes",
        notes=notes,
        **common,
    )


def eigenfields(qhat: ParaFunction, cap: int = 16) -> tuple:
    """The two smooth eigenvector fields at an even-order positive umbilic.

    With branch factorizations phi_s(t) = t^(2 n_s) psi_s(t) and positive
    rescalings alpha = delta psi_plus, beta = delta psi_minus (delta the
    common leading sign), the fields are

        X1 = (x^n1 sqrt(alpha) + y^n-1 sqrt(beta)) d/du
           + (-x^n1 sqrt(alpha) + y^n-1 sqrt(beta)) d/dv

    and X2 with the x-terms negated; they are defined where alpha, beta > 0.

    Each evaluator is a `flow.Kernel`, statements that `streamlines` runs
    inline.  Horner's rule over the psi polynomials' `float_coeffs()` is bit
    for bit `Poly.__call__` at the float point (see its docstring), and over
    delta c it is delta psi but for the sign of a zero, refused either way.
    A positive constant psi has its root taken once, the same bits at every
    finite x.  The text depends only on the shape (X1 or X2, each psi's
    length or that it is a positive constant); the values are arguments.
    X2 = (-p + q, p + q) is X1 = (p + q, -p + q) with the components swapped.
    X1's array form takes the same steps with `poly.horner`, np.sqrt
    (correctly rounded, as math.sqrt is) and `pow` per value, NaN where the
    evaluator raises ValueError; X2's is X1's, `Swapped`.  Raises
    OverflowError when a coefficient lies outside the double range, and
    where x**n1 or y**n-1 overflows.
    """
    nf = qhat.normal_form(cap)
    if not nf.finite:
        raise NoSmoothFlowError("branch orders not finite under the jet cap")
    m1, mm1 = nf.orders.plus.order, nf.orders.minus.order
    if m1 % 2 == 1 or mm1 % 2 == 1 or m1 == 0 or mm1 == 0:
        raise NoSmoothFlowError("no smooth flow: a branch order is odd or zero")
    if _sign(nf.psi_plus_0) != _sign(nf.psi_minus_0):
        raise NoSmoothFlowError(
            "no smooth flow: leading-coefficient product is negative"
        )
    if nf.psi_plus is None or nf.psi_minus is None:
        raise NoSmoothFlowError("branch factorizations unavailable (need polynomials)")
    delta = 1 if nf.psi_plus_0 > 0 else -1
    n1, nm1 = m1 // 2, mm1 // 2
    alpha = [delta * c for c in nf.psi_plus.poly.float_coeffs()]
    beta = [delta * c for c in nf.psi_minus.poly.float_coeffs()]
    source, args = ["x, y = (su + sv) / 2.0, (su - sv) / 2.0"], dict(n1=n1, nm1=nm1)
    for acc, var, coeffs in (("a", "x", alpha), ("b", "y", beta)):
        if len(coeffs) == 1 and coeffs[0] > 0.0:  # a positive constant: its root, once
            args["r" + acc] = math.sqrt(coeffs[0])
        else:  # Horner's rule from int 0, whose first product 0 * x is 0.0 * x
            cs = [f"{acc.upper()}{k}" for k in range(len(coeffs))]
            args.update(zip(cs, coeffs))
            source += [f"{acc} = {z} * {var} + {c}" for z, c in zip(["0.0"] + [acc] * len(cs), cs)]
            source += [f"if {acc} <= 0.0:",
                       '    raise ValueError("eigenfield undefined: rescaled branch not positive")',
                       f"r{acc} = sqrt({acc})"]
    source = "\n".join(source + ["p, q = x**n1 * ra, y**nm1 * rb"])

    def arrays(u, v):
        x, y = (u + v) / 2.0, (u - v) / 2.0
        a, b = horner(alpha, x), horner(beta, y)
        # NaN where ev raises ValueError
        p = each(pow, x, n1) * np.sqrt(np.where(a > 0.0, a, np.nan))
        q = each(pow, y, nm1) * np.sqrt(np.where(b > 0.0, b, np.nan))
        return (p + q, -p + q)

    x1, x2 = (Kernel(f"{source}\np, q = {pq}", **args) for pq in ("p + q, -p + q", "-p + q, p + q"))
    return FlowField(x1, name="X1", arrays=arrays), FlowField(x2, name="X2", arrays=Swapped(arrays))


def measure_indices(
    report: IndexReport,
    qhat: ParaFunction,
    radius: float = 0.1,
    samples: int = 2048,
) -> IndexReport:
    """Fill the measured winding indices into a prediction report.

    Measurement is only attempted when the prediction names an index set;
    for "not admissible" and the other marker verdicts it is skipped with an
    explanation, per the report contract.  X1 and X2 are wound by
    `wind_halving`: the four windings share two circles, as X2's array form
    is X1's `Swapped`.
    """
    if not isinstance(report.predicted_indices, frozenset):
        report.measured_indices = None
        report.measured_info = {"skipped": f"measurement skipped: {report.predicted_indices}"}
        report.match = None
        report.windings = None
        return report
    report.windings, stable, report.match = wind_halving(
        eigenfields(qhat, report.cap), report.predicted_indices, radius, samples)
    report.measured_indices = {name: res.index for name, _, res in report.windings}
    report.measured_info = {"radius": radius, "samples": samples, "radius_halving_stable": stable}
    return report


def wind_halving(fields, predicted, radius: float, samples: int) -> tuple:
    """The radius-halving rule of both signatures: (rows of winding.csv, that
    is (name, own kind, WindingResult at the radius) per field, stable,
    match), each field wound at the radius and at half of it on shared
    circles; stable iff each index is the same at both, match iff the indices
    at the radius are the set `predicted` and stable.  The first failure raises."""
    rows, stable = [], True
    for f in Circles().share(*fields):
        res = winding_index(f, radius=radius, samples=samples)
        rows.append((f.name, f.kind, res))
        stable &= winding_index(f, radius=radius / 2.0, samples=samples).index == res.index
    return tuple(rows), stable, frozenset(r.index for *_, r in rows) == predicted and stable
