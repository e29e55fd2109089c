"""Exact rational simplex: the test oracle for `qgames.zerosum.solve`.

Shares no code with the HiGHS engine.  Shift the payoffs so every entry is
>= 1; then the column player's program is  max sum(w)  s.t.  A'w <= 1,
w >= 0, whose origin is feasible, so one Phase-2 simplex with Bland's rule
finishes it.  The optimal w rescales to y, the slack reduced costs rescale to
x, and value = 1/sum(w) shifted back.  Exact arithmetic makes the value exact
up to the final float conversion.  Its cost grows steeply with size, so the
tests use it on small games only.
"""

from fractions import Fraction

import numpy as np


def exact_simplex(payoff):
    """Exact equilibrium of  max_x min_y x^T A y  via one rational simplex."""
    m, n = payoff.shape
    shift = Fraction(float(payoff.min())) - 1
    rows = [[Fraction(float(payoff[i, j])) - shift for j in range(n)] for i in range(m)]

    # Tableau for max sum(w) s.t. rows @ w <= 1, w >= 0 (slack basis start).
    # Columns: n originals, m slacks, rhs.  Cost row holds reduced costs of
    # the minimization of -sum(w); its rhs accumulates -objective.
    width = n + m + 1
    tab = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [Fraction(1)]
        row[n + i] = Fraction(1)
        tab.append(row)
    cost = [Fraction(-1)] * n + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)  # Bland
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][width - 1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise RuntimeError("unbounded program; payoff shift failed")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [a - f * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter

    w = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] = tab[i][width - 1]
    u = cost[n : n + m]  # dual solution: reduced costs of the slacks
    total = sum(w)  # equals sum(u) by strong duality; positive since A' >= 1
    value = 1 / total + shift
    x = np.array([float(ui / total) for ui in u])
    y = np.array([float(wj / total) for wj in w])
    return x / x.sum(), y / y.sum(), float(value)
