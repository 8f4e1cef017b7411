"""Reference oracle: the fit rows by modified Gram-Schmidt in decimals.

This is the row builder ``extshuffle.zeta`` used before it solved the normal
equations, kept independent of the package's Gram-matrix solve.  At the
default 40 digits it reproduces the old rows; at 120 digits it is accurate
well beyond float64 on every grid the package uses.  Its cost is quadratic in
the columns times the grid length in decimal operations, so it is slow on
deep fits.
"""

from decimal import Decimal, localcontext


def reference_rows(columns, prec=40):
    """Rows ``r_m`` such that ``r_m @ y`` is the constant term of the least-squares
    fit of ``y`` on the first ``m`` columns, for every ``m``.

    ``columns[0]`` is the constant column.  Modified Gram-Schmidt in ``prec``-digit
    decimals: with ``A = QR``, the constant term is ``(R^-1 Q^T y)[0]``, and
    since ``R`` is triangular the rows for successive prefixes of the columns
    are prefix sums of ``(R^-1)[0, c] * q_c``.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        basis, weights, rows = [], [], []
        row = [Decimal(0)] * len(columns[0])
        for col in columns:
            v = [Decimal(x) for x in col]
            proj = []
            for q in basis:
                d = sum(a * b for a, b in zip(q, v))
                proj.append(d)
                v = [a - d * b for a, b in zip(v, q)]
            norm = sum(a * a for a in v).sqrt()
            q = [a / norm for a in v]
            weight = ((0 if basis else 1) - sum(w * d for w, d in zip(weights, proj))) / norm
            basis.append(q)
            weights.append(weight)
            row = [a + weight * b for a, b in zip(row, q)]
            rows.append([float(a) for a in row])
        return rows
