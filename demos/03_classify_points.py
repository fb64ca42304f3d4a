#!/usr/bin/env python3
"""Point classification: umbilic, quasi-umbilic, positive, negative.

Time-like surfaces split into regions where the principal curvatures are
real and distinct (positive points), a complex pair (negative points), or
coincide (the zero set of the discriminant: umbilics and quasi-umbilics).
Quasi-umbilics have a single principal direction and it is null - a purely
Lorentzian phenomenon.
"""

from zmcsurf import classify_chart, quasi_umbilic_direction_check
from zmcsurf.geometry import KIND_UMBILIC
from zmcsurf.presets import load_preset

for name in ("z2", "z3", "f1", "exA1"):
    spec = load_preset(name)
    chart = spec.patch.chart(spec.grid)
    cls = classify_chart(chart)
    counts = cls.counts()
    print(f"== preset {name} ==")
    print(
        "  positive / negative / quasi / umbilic / masked =",
        counts["positive"],
        "/",
        counts["negative"],
        "/",
        counts["quasi_umbilic"],
        "/",
        counts["umbilic"],
        "/",
        counts["masked"],
    )
    umb = [chart.node(i, j) for i, j in cls.nodes_of_kind(KIND_UMBILIC)]
    if umb and len(umb) < 5:
        print("  umbilic nodes:", [(str(u), str(v)) for u, v in umb])
    print()

print("quasi-umbilic principal directions are pinned to the null lines:")
spec = load_preset("z3")
chart = spec.patch.chart(spec.grid)
cls = classify_chart(chart)
print("  on {u=-v} parallel to (1,1):  ", quasi_umbilic_direction_check(chart, cls, s=1))
print("  on {u=+v} parallel to (-1,1): ", quasi_umbilic_direction_check(chart, cls, s=-1))

sample = cls.points[(16, 20)]  # a positive node of z3
print("\na positive point carries two principal directions:")
print("  kind =", sample.kind, " D =", round(sample.D, 6))
for d, lam in zip(sample.dirs, sample.eigenvalues):
    print("  direction", d.round(6), " curvature", round(lam, 6))
