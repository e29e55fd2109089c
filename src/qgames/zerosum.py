"""Finite two-player zero-sum matrix games.

The row player maximizes entry A[i, j]; the column player receives the
negation.  `solve` produces an (x, y, value) triple whose exploitability
(best-response gap) is below the requested tolerance.

There is one engine: a dense-tableau primal simplex in numpy on the shifted
game.  Adding s = 1 - min(A) to every payoff makes the matrix B = A + s
positive, and the column player's program  max 1^T w  s.t.  B w <= 1,
w >= 0  starts feasible at the slack basis, so no phase 1 is needed.  At the
optimal basis w rescales to y and the slack reduced costs (the duals of
B w <= 1) rescale to x; the value is 1 / sum(w) - s.  Floating-point pivots
are only approximately optimal, so the exploitability of the returned pair,
recomputed from the payoff matrix, is the acceptance test: a pair is returned
only when that certificate is within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Pivot cap per game row: `solve` raises NonConvergence once an m-row game
#: has taken PIVOTS_PER_ROW * m pivots without reaching an optimal basis.
#: Random square games need 1-7 m pivots.
PIVOTS_PER_ROW = 50
#: Consecutive degenerate (zero-step) pivots after which the entering column
#: switches from the most negative reduced cost to Bland's lowest eligible
#: index, which cannot cycle; the first pivot that moves switches it back.
STALLS_BEFORE_BLAND = 10
#: Reduced costs above -_EPS count as optimal; pivot column entries must
#: exceed _EPS; ratios within _EPS of the minimum tie.
_EPS = 1e-12


class NonConvergence(RuntimeError):
    """The equilibrium certificate did not reach tol; carries the achieved gap."""

    def __init__(self, message, exploitability):
        super().__init__(message)
        self.exploitability = exploitability


class NotAGroup(ValueError):
    """The supplied column action is not closed or lacks the identity."""


class CovarianceViolation(ValueError):
    """The payoff matrix does not intertwine the row map with the action."""


@dataclass(frozen=True)
class MatrixGame:
    """Real payoff matrix; rows belong to the maximizing player."""

    payoff: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.payoff, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError(f"payoff must be a nonempty matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("payoff entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "payoff", mat)

    @property
    def shape(self):
        return self.payoff.shape


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector over pure strategies; NaN fails its checks."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("strategy must be nonempty")
        if not p.min() >= -1e-12:
            raise ValueError(f"negative or NaN probability {p.min()!r}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def pure(cls, size: int, index: int) -> "MixedStrategy":
        p = np.zeros(size)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, size: int) -> "MixedStrategy":
        return cls(np.full(size, 1.0 / size))

    def total_variation(self, other: "MixedStrategy") -> float:
        return 0.5 * float(np.abs(self.probs - other.probs).sum())


@dataclass(frozen=True)
class EquilibriumPair:
    x: MixedStrategy
    y: MixedStrategy
    value: float
    exploitability: float


def exploitability(game: MatrixGame, x: MixedStrategy, y: MixedStrategy) -> float:
    """Best-response gap: max_i (Ay)_i - min_j (x^T A)_j; zero iff equilibrium."""
    a = game.payoff
    if x.probs.size != a.shape[0] or y.probs.size != a.shape[1]:
        raise ValueError(
            f"strategy sizes ({x.probs.size}, {y.probs.size}) do not match game {a.shape}"
        )
    return float((a @ y.probs).max() - (x.probs @ a).min())


def best_response(game: MatrixGame, opponent: MixedStrategy, side: str) -> int:
    """Best pure reply for `side` ("I" rows / "II" columns); ties -> lowest index."""
    a = game.payoff
    if side == "I":
        if opponent.probs.size != a.shape[1]:
            raise ValueError("opponent strategy does not match column count")
        return int(np.argmax(a @ opponent.probs))
    if side == "II":
        if opponent.probs.size != a.shape[0]:
            raise ValueError("opponent strategy does not match row count")
        return int(np.argmin(opponent.probs @ a))
    raise ValueError(f"side must be 'I' or 'II', got {side!r}")


def _pair(game, x_probs, y_probs):
    x = MixedStrategy(x_probs)
    y = MixedStrategy(y_probs)
    value = float(x.probs @ game.payoff @ y.probs)
    gap = max(0.0, exploitability(game, x, y))
    return EquilibriumPair(x, y, value, gap)


def _optimal_basis(b: np.ndarray) -> np.ndarray:
    """Basic columns at the optimum of  max 1^T w  s.t.  b w <= 1, w >= 0.

    b is a positive (m, n) matrix, so the slack basis is feasible and the
    program is bounded.  Columns 0..n-1 are the w_j and n..n+m-1 the slacks.
    The dense tableau carries the constraint rows and, last, the reduced
    costs of  min -1^T w.  Entering column: the most negative reduced cost,
    or Bland's lowest index after STALLS_BEFORE_BLAND degenerate pivots in a
    row; leaving row: the minimum ratio, ties to the lowest basic index.
    """
    m, n = b.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = b
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :n] = -1.0
    cost, rhs = tab[m, :-1], tab[:m, -1]  # views, updated by every pivot
    basis = np.arange(n, n + m)
    stalls = 0
    for _ in range(PIVOTS_PER_ROW * m):
        if stalls < STALLS_BEFORE_BLAND:
            enter = int(np.argmin(cost))
            if cost[enter] >= -_EPS:
                return basis
        else:
            eligible = np.flatnonzero(cost < -_EPS)
            if eligible.size == 0:
                return basis
            enter = int(eligible[0])
        col = tab[:m, enter]
        ratios = np.full(m, np.inf)
        np.divide(rhs, col, out=ratios, where=col > _EPS)
        step = ratios.min()
        ties = np.flatnonzero(ratios <= step + _EPS)
        leave = int(ties[np.argmin(basis[ties])])
        stalls = stalls + 1 if step <= _EPS else 0
        pivot_row = tab[leave] / tab[leave, enter]
        tab -= np.outer(tab[:, enter], pivot_row)
        tab[leave] = pivot_row
        basis[leave] = enter
    raise NonConvergence(
        f"simplex reached its cap of {PIVOTS_PER_ROW * m} pivots on a {m} x {n} game", np.inf
    )


def solve(game: MatrixGame, tol: float = 1e-9) -> EquilibriumPair:
    """Equilibrium pair whose exploitability is certified to be <= tol.

    The numpy simplex (`_optimal_basis`) finds an optimal basis of the
    shifted column program  max 1^T w  s.t.  (A + s) w <= 1, w >= 0.  The
    basic w and the slack reduced costs u are then recomputed from that
    basis and the payoffs with two linear solves; u is set to exactly 0 on
    every row whose slack is basic, as complementary slackness demands, so
    rows that are not best replies carry no round-off weight.  Both are
    clipped at 0 and normalised: y = w / sum(w) and x = u / sum(u).  The
    pair is returned only if its best-response gap, recomputed from the
    payoffs, is <= tol; otherwise, or when the simplex hits its pivot cap,
    NonConvergence carries the gap (inf at the cap).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = game.payoff
    m, n = a.shape
    shifted = a - (a.min() - 1.0)
    basis = _optimal_basis(shifted)
    basic = np.hstack([shifted, np.eye(m)])[:, basis]
    original = basis < n
    w = np.zeros(n)
    w[basis[original]] = np.linalg.solve(basic, np.ones(m))[original]
    u = np.linalg.solve(basic.T, original.astype(float))
    # complementary slackness: a row whose slack is basic has dual exactly 0
    u[basis[~original] - n] = 0.0
    x = np.clip(u, 0.0, None)
    y = np.clip(w, 0.0, None)
    eq = _pair(game, x / x.sum(), y / y.sum())
    if eq.exploitability > tol:
        raise NonConvergence(
            f"equilibrium certificate {eq.exploitability:.3e} exceeds tol {tol:.0e}",
            eq.exploitability,
        )
    return eq


def _compose(p, q):
    return tuple(p[q[c]] for c in range(len(p)))


def symmetrize(game: MatrixGame, column_action, row_map) -> MixedStrategy:
    """Average a best reply over a symmetry group acting on the columns.

    `column_action` lists the group elements as permutations of the column
    indices; closure under composition and the identity element are verified
    (a closed finite permutation set containing the identity is a group, since
    powers of each element cycle back through the identity).  `row_map[g][e]`
    names the row that plays against column f the way row e plays against the
    moved column g(f); the payoff must satisfy
    A[row_map[g][e], f] = A[e, g(f)], which is verified entrywise.

    The returned strategy mixes the moved copies of a best reply to the
    uniform column strategy.  Its payoff is constant along every orbit of the
    action; when the action is transitive (one orbit, e.g. cyclic shifts),
    the whole payoff row is constant: the strategy is universal.
    """
    a = game.payoff
    m, n = a.shape
    perms = [tuple(int(v) for v in p) for p in column_action]
    if not perms:
        raise NotAGroup("empty action")
    for p in perms:
        if sorted(p) != list(range(n)):
            raise NotAGroup(f"{p} is not a permutation of {n} columns")
    seen = set(perms)
    if len(seen) != len(perms):
        raise NotAGroup("duplicate group elements")
    if tuple(range(n)) not in seen:
        raise NotAGroup("identity permutation missing")
    for g in perms:
        for h in perms:
            if _compose(g, h) not in seen:
                raise NotAGroup(f"composition {_compose(g, h)} escapes the set: not closed")

    rmap = np.asarray(row_map, dtype=int)
    if rmap.shape != (len(perms), m):
        raise ValueError(f"row_map shape {rmap.shape} != ({len(perms)}, {m})")
    if rmap.min() < 0 or rmap.max() >= m:
        raise ValueError("row_map entries out of range")
    for gi, g in enumerate(perms):
        lhs = a[rmap[gi], :]
        rhs = a[:, list(g)]
        worst = float(np.max(np.abs(lhs - rhs)))
        if worst > 1e-12:
            raise CovarianceViolation(
                f"payoff identity fails for group element {gi} by {worst:.3e}"
            )

    reply = best_response(game, MixedStrategy.uniform(n), "I")
    probs = np.zeros(m)
    for gi in range(len(perms)):
        probs[rmap[gi][reply]] += 1.0 / len(perms)
    return MixedStrategy(probs)


@dataclass(frozen=True)
class InterchangeReport:
    """Outcome of crossing two equilibrium pairs."""

    passed: bool
    inputs_ok: bool
    input_exploitabilities: tuple
    cross_exploitabilities: tuple
    values: tuple
    value_spread: float
    tol: float
    factor: float = 10.0  # documented slack multiplier on tol


def interchange_check(
    game: MatrixGame,
    pair1: EquilibriumPair,
    pair2: EquilibriumPair,
    tol: float,
) -> InterchangeReport:
    """Verify the swapped pairs (x1, y2), (x2, y1) are equilibria too.

    Both input pairs are expected to have exploitability <= tol; the crossed
    pairs and the four value agreements are allowed 10x tol.  Nothing raises:
    the report carries any failure, including bad inputs.
    """
    factor = 10.0
    a = game.payoff
    inputs = (
        exploitability(game, pair1.x, pair1.y),
        exploitability(game, pair2.x, pair2.y),
    )
    inputs_ok = max(inputs) <= tol
    e12 = exploitability(game, pair1.x, pair2.y)
    e21 = exploitability(game, pair2.x, pair1.y)
    values = (
        float(pair1.x.probs @ a @ pair1.y.probs),
        float(pair2.x.probs @ a @ pair2.y.probs),
        float(pair1.x.probs @ a @ pair2.y.probs),
        float(pair2.x.probs @ a @ pair1.y.probs),
    )
    spread = max(values) - min(values)
    passed = (
        inputs_ok
        and e12 <= factor * tol
        and e21 <= factor * tol
        and spread <= factor * tol
    )
    return InterchangeReport(passed, inputs_ok, inputs, (e12, e21), values, spread, tol, factor)


def rock_paper_scissors() -> MatrixGame:
    """The canonical cyclic game; its unique equilibrium is uniform/uniform."""
    return MatrixGame(np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]))


def circulant_game(generator_row) -> MatrixGame:
    """Game with A[e, f] = r[(f - e) mod n]; covariant under the cyclic action."""
    r = np.asarray(generator_row, dtype=float).reshape(-1)
    n = r.size
    a = np.empty((n, n))
    for e in range(n):
        for f in range(n):
            a[e, f] = r[(f - e) % n]
    return MatrixGame(a)


def cyclic_action(n: int):
    """Z_n acting on columns by shifts, with the matching row map.

    Returns (perms, row_map): perms[g][c] = (g + c) mod n and
    row_map[g][e] = (e - g) mod n, which satisfy the symmetrize() covariance
    identity for every circulant game.
    """
    perms = [tuple((g + c) % n for c in range(n)) for g in range(n)]
    row_map = [[(e - g) % n for e in range(n)] for g in range(n)]
    return perms, row_map
