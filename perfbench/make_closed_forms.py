"""Rebuild ``closed_forms.json``, the series workload's reference values.

Run from the repository root:

    python3 perfbench/make_closed_forms.py

Each point of the series workload has a closed form in single zeta values,
evaluated here with mpmath at 40 working digits and stored to 30 significant
digits as a decimal string.  The benchmark itself reads only the JSON file.
"""

from __future__ import annotations

import json
import os

import mpmath

DIGITS = 30

# (composition, formula, value as a function of mpmath's zeta)
POINTS = [
    ((2,), "zeta(2)", lambda z: z(2)),
    ((3,), "zeta(3)", lambda z: z(3)),
    ((2, 2), "3/4 zeta(4)", lambda z: mpmath.mpf(3) / 4 * z(4)),
    ((3, 1), "zeta(4)/4", lambda z: z(4) / 4),
    ((2, 1), "zeta(3)", lambda z: z(3)),
    ((2, 1, 1), "zeta(4)", lambda z: z(4)),
    ((2, 1, 1, 1), "zeta(5)", lambda z: z(5)),
    ((4, -1), "(zeta(2) - zeta(3))/2", lambda z: (z(2) - z(3)) / 2),
    ((5, -1), "(zeta(3) - zeta(4))/2", lambda z: (z(3) - z(4)) / 2),
]


def build() -> dict:
    mpmath.mp.dps = DIGITS + 10
    return {
        "digits": DIGITS,
        "points": [
            {
                "composition": list(comp),
                "formula": formula,
                "value": mpmath.nstr(value(mpmath.zeta), DIGITS, min_fixed=-5, max_fixed=5),
            }
            for comp, formula, value in POINTS
        ],
    }


if __name__ == "__main__":
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "closed_forms.json")
    table = build()
    rows = ",\n".join("  " + json.dumps(row) for row in table["points"])
    with open(path, "w") as fh:
        fh.write(f'{{"digits": {table["digits"]}, "points": [\n{rows}\n]}}\n')
    print(f"wrote {path}")
