"""Experiments tying the quantum strategies to finite game theory.

Discretized matrix games restrict both players to finite strategy sets; the
restricted value can only fall as the column player's set grows, and it is
pinned from below by any row whose payoff is constant, so refining the state
sets sandwiches the theoretical game value.  Monte Carlo play runs the actual
referee protocol, and the brute-force scan checks the asymmetric-cloning
fidelity-sum ceiling over random channels.

Monte Carlo rounds, the scan's random channels, `haar_states` and the
perturbations draw by seed scheme v5: item i belongs to draw chunk
c = i // DRAW_ROUNDS, which draws all of its items from one substream of the
seed: `substream(k).substream(c)` for Monte Carlo rounds of the k-th of
GAME_KINDS, which draw whole arrays per draw chunk, each round only its Haar
state and the referee's uniform; `substream(c)` for the rest, item i being
its (i mod DRAW_ROUNDS)-th consecutive draw.  So item i depends on the seed,
the game kind and i alone, and N items are a prefix of any longer run.  Items
are evaluated in memory chunks, which bound memory only, so no record depends
on them.  Monte Carlo rounds are drawn in blocks of whole draw chunks and
scored in slices of at most MEMORY_ROUNDS rounds; the other consumers take at
most one draw chunk per memory chunk.  Either way a slice or memory chunk
holds fewer items where its rows would pass CHUNK_BYTES.

A strategy's payoff on psi is the overlap with psi of the state it hands the
SWAP-test referee.  `_checked_payoffs` makes that function once per call,
for every game kind: the discretized games tabulate it and Monte Carlo rounds
feed it to the referee.  For the cloning games it is one product of the
channel's Choi rows (`cloning._choi_rows`, built once per call) with each
memory chunk's states, the whole output for cloning and the clone-averaged
reduced channel for one_particle.  Integrating out the estimation outcome and
the referee's choice of clone leaves each round's pass probability
(1 + F)/2 as it is.

Analytic reports quote fidelities F; the protocol's literal stakes are +-1.
A round passes with probability p = (1 + F)/2, so the mean +-1 payoff is
2p - 1 = F: the empirical mean payoff estimates the mean fidelity directly.
Monte Carlo records carry the mean payoff and the raw pass rate side by side.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cloning import (
    Channel,
    _checked_defects,
    _choi_rows,
    _full_output,
    _ginibre_side,
    _haar_fidelities,
    _padding_kraus,
    _random_isometry_kraus,
    _state_fidelities,
    haar_avg_global_fidelity,
    haar_random_unitary,
    conjugate_output,
    mixture_channel,
    optimal_cloner,
    symmetric_noise_channel,
    value_formulas,
)
from .core import (
    PureState,
    RandomStream,
    ShapeError,
    SizeCapExceeded,
    _check_unit_rows,
    check_size_cap,
    haar_random_state,
)
from .estimation import (
    Povm,
    _payoffs,
    bloch_state,
    fibonacci_directions,
    mean_fidelity,
)
from .swap_test import referee_outcomes
from .symmetric import dim_sym
from .zerosum import MatrixGame, solve

GAME_KINDS = ("estimation", "cloning", "one_particle")

#: Items per draw chunk of seed scheme v5: draw chunk c covers Monte Carlo
#: rounds, random scan channels, Haar states or perturbations c*DRAW_ROUNDS ..
#: (c+1)*DRAW_ROUNDS - 1 and draws them all from one substream.  Part of the
#: determinism contract: changing it changes every record.
DRAW_ROUNDS = 256
#: Bytes one memory chunk's widest per-item array may take: games whose rows
#: are wide (many Sym_out coordinates or d^m amplitudes) evaluate fewer items
#: per chunk.  Memory chunks bound the working memory only, so records do not
#: depend on the chunk length.
CHUNK_BYTES = 2**22
#: Rounds per slice of Monte Carlo play, fewer where the rows would pass
#: CHUNK_BYTES: four draw chunks, so that each batched call is long enough to
#: hide its fixed cost and short enough to stay in cache.
MEMORY_ROUNDS = 4 * DRAW_ROUNDS
#: Most rounds times `_checked_payoffs` width one Monte Carlo play may score;
#: a longer play is refused before its first draw.
ROUND_BUDGET = 2**30
#: Slack of the sandwich, perturbation and scan checks, and the exploitability
#: the sandwich's `solve` calls certify; each report carries it as `.tol`.
REPORT_TOL = 1e-9

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GameSpec:
    """What to play: which game, at which arity, for how many rounds."""

    kind: str
    d: int = 2
    n: int = 1
    m: int = 1
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GAME_KINDS:
            raise ValueError(f"kind must be one of {GAME_KINDS}, got {self.kind!r}")
        if self.d < 1:
            raise ValueError(f"dimension d must be >= 1, got {self.d}")
        if self.kind == "estimation":
            if self.d != 2:
                raise ValueError("estimation strategies are implemented for qubits only")
            if self.n < 1:
                raise ValueError("estimation needs n >= 1 copies")
        else:
            if not 1 <= self.n <= self.m:
                raise ValueError(f"cloning arity needs 1 <= n <= m, got ({self.n}, {self.m})")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")

    def theoretical_value(self) -> float:
        if self.kind == "estimation":
            return (self.n + 1) / (self.n + 2)
        values = value_formulas(self.d, self.n, self.m)
        return values.global_value if self.kind == "cloning" else values.single_value


# ---------------------------------------------------------------------------
# deterministic state sets (column-player discretizations)

def fibonacci_states(count: int) -> list[PureState]:
    return [bloch_state(d) for d in fibonacci_directions(count)]


def _item_streams(rng: RandomStream, count: int):
    """(i, `rng.substream(i // DRAW_ROUNDS)`) for i < count, one stream per draw chunk."""
    for c in range(-(-count // DRAW_ROUNDS)):
        stream = rng.substream(c)
        for i in range(c * DRAW_ROUNDS, min(count, (c + 1) * DRAW_ROUNDS)):
            yield i, stream


def haar_states(d: int, count: int, rng: RandomStream) -> list[PureState]:
    """`count` Haar-random states by seed scheme v5 (as under v4).

    State i is the (i mod DRAW_ROUNDS)-th consecutive `haar_random_state`
    draw from `rng.substream(i // DRAW_ROUNDS)`, so the states of a smaller
    count are a prefix of a larger one's.
    """
    return [haar_random_state(d, stream) for _, stream in _item_streams(rng, count)]


def nested_state_sets(states, sizes) -> list[list[PureState]]:
    """Prefixes of one ordered state list, so refinement levels truly nest."""
    states = list(states)
    sizes = sorted(int(s) for s in sizes)
    if sizes[-1] > len(states):
        raise ValueError(f"largest size {sizes[-1]} exceeds {len(states)} states")
    return [states[:s] for s in sizes]


def default_state_sets(d: int, sizes, rng: RandomStream | None = None):
    """Fibonacci prefixes for qubits, Haar-sample prefixes above."""
    top = max(int(s) for s in sizes)
    if d == 2:
        return nested_state_sets(fibonacci_states(top), sizes)
    if rng is None:
        raise ValueError("state sets for d > 2 are sampled and need a RandomStream")
    return nested_state_sets(haar_states(d, top, rng), sizes)


# ---------------------------------------------------------------------------
# discretized matrix games

def _state_rows(states, dim: int) -> np.ndarray:
    """The states' amplitudes stacked as rows; every state must have dimension `dim`."""
    for psi in states:
        if psi.dim != dim:
            raise ShapeError(f"state dimension {psi.dim} != local dimension {dim}")
    return np.stack([psi.amplitudes for psi in states])


def _chunk_length(width: int, most: int = DRAW_ROUNDS) -> int:
    """Rows per chunk: `most`, fewer when width-wide rows would pass CHUNK_BYTES."""
    return max(1, min(most, CHUNK_BYTES // (16 * width)))


def _chunk_counts(total: int, chunk: int) -> tuple[int, int]:
    """(draw chunks, memory chunks) for `total` items in memory chunks of `chunk`.

    Memory chunks subdivide draw chunks of DRAW_ROUNDS and never straddle one.
    """
    full, rest = divmod(total, DRAW_ROUNDS)
    return full + (rest > 0), full * -(-DRAW_ROUNDS // chunk) + -(-rest // chunk)


def _checked_payoffs(kind: str, d: int, n: int, m: int, strategy):
    """(payoffs, width) of `strategy`, once it is a strategy of this game.

    `payoffs` maps a (B, d) array of amplitudes to the mean +-1 payoff of
    each row: the overlap with psi of the state the strategy returns, the
    guess for estimation (averaged over the Born-rule outcomes), the whole
    output for cloning and a clone picked uniformly at random for
    one_particle.  Estimation takes a Povm on n copies; the cloning games
    take a Channel of arity (d, n, m), whose Choi rows (`cloning._choi_rows`)
    are built here, once.  `width` is the widest per-state array `payoffs`
    makes: the outcome count or the n + 1 coordinates of a Povm, the row
    count or the row length of a Channel's Choi rows.  Before anything is
    built the size cap counts the Povm's width, or the Channel's Kraus rows
    or columns, whichever is more.
    """
    if kind == "estimation":
        if not isinstance(strategy, Povm):
            raise TypeError(f"estimation is played with a Povm, got {type(strategy).__name__}")
        if strategy.n != n:
            raise ShapeError(f"povm copy count {strategy.n} != {n}")
        width = check_size_cap(max(len(strategy.vectors), n + 1))
        return (lambda psi: _payoffs(strategy, psi)), width
    if not isinstance(strategy, Channel):
        raise TypeError(f"{kind} is played with a Channel, got {type(strategy).__name__}")
    arity = (strategy.d, strategy.n_in, strategy.n_out)
    if arity != (d, n, m):
        raise ShapeError(f"channel arity {arity} != {(d, n, m)}")
    check_size_cap(max(strategy.kraus.shape[1:]))
    clone, copies = (0, m) if kind == "cloning" else (None, 1)
    rows = _choi_rows(d, n, m, strategy.kraus, clone)
    return (lambda psi: _state_fidelities(n, copies, rows, psi)), max(rows.shape)


def _payoff_matrix(kind: str, d: int, n: int, m: int, strategies, states) -> MatrixGame:
    """A[i, j] = `_checked_payoffs` of strategies[i] on states[j].

    Each row is evaluated over all columns at once, in chunks of at most
    DRAW_ROUNDS columns, fewer where the rows would pass CHUNK_BYTES.
    """
    strategies = list(strategies)
    states = list(states)
    if not strategies or not states:
        raise ShapeError("need at least one strategy per player")
    kernels = [_checked_payoffs(kind, d, n, m, s) for s in strategies]
    psi = _state_rows(states, d)
    chunk = _chunk_length(max(width for _, width in kernels))
    a = np.empty((len(strategies), len(states)))
    for i, (payoffs, _) in enumerate(kernels):
        for start in range(0, len(psi), chunk):
            a[i, start:start + chunk] = payoffs(psi[start:start + chunk])
    return MatrixGame(a)


def discretize_estimation_game(n_copies: int, povms, states) -> MatrixGame:
    """A[i, j] = sum_r |<v_r|psi_j^{tensor n}>|^2 |<psi_j|guess_r>|^2 for v, guess of povms[i]."""
    return _payoff_matrix("estimation", 2, n_copies, 1, povms, states)


def discretize_cloning_game(d, n_in, n_out, channels, states) -> MatrixGame:
    """A[i, j] = global fidelity of channels[i] on states[j]."""
    return _payoff_matrix("cloning", d, n_in, n_out, channels, states)


@dataclass(frozen=True)
class SandwichLevel:
    n_states: int
    value: float
    exploitability: float


@dataclass(frozen=True)
class SandwichReport:
    """Restricted game values across nested column refinements."""

    kind: str
    theoretical_value: float
    levels: tuple
    lower_bound_ok: bool
    monotone_ok: bool
    converged: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.lower_bound_ok and self.monotone_ok and self.converged


def sandwich_report(spec: GameSpec, player_i, player_ii_sets) -> SandwichReport:
    """Solve the restricted game at each refinement level and check the sandwich.

    `player_ii_sets` must be nested (each level a superset of the previous);
    then the value is non-increasing, stays above the theoretical value as
    long as player I's set contains an optimal (constant-row) strategy, and
    converges onto it once the finest set pins every other row down.
    """
    player_i = list(player_i)
    levels = []
    for states in player_ii_sets:
        if spec.kind == "estimation":
            game = discretize_estimation_game(spec.n, player_i, states)
        elif spec.kind == "cloning":
            game = discretize_cloning_game(spec.d, spec.n, spec.m, player_i, states)
        else:
            raise ValueError("sandwich_report supports estimation and cloning games")
        eq = solve(game, tol=REPORT_TOL)
        levels.append(SandwichLevel(len(states), eq.value, eq.exploitability))
    theory = spec.theoretical_value()
    lower = all(lv.value >= theory - REPORT_TOL for lv in levels)
    monotone = all(
        levels[i + 1].value <= levels[i].value + REPORT_TOL for i in range(len(levels) - 1)
    )
    converged = abs(levels[-1].value - theory) <= REPORT_TOL
    return SandwichReport(
        spec.kind, theory, tuple(levels), lower, monotone, converged, REPORT_TOL
    )


# ---------------------------------------------------------------------------
# perturbation evidence for the equilibrium claim

@dataclass(frozen=True)
class PerturbationReport:
    base_value: float
    n_perturbations: int
    max_value: float
    violations: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _haar_value(strategy) -> float:
    if isinstance(strategy, Channel):
        return haar_avg_global_fidelity(strategy)
    if isinstance(strategy, Povm):
        return mean_fidelity(strategy)
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")


def perturb_best_response_check(base, perturbations) -> PerturbationReport:
    """No perturbation's Haar-averaged payoff may beat the base strategy's."""
    base_value = _haar_value(base)
    max_value = -np.inf
    violations = 0
    count = 0
    for strategy in perturbations:
        value = _haar_value(strategy)
        max_value = max(max_value, value)
        if value > base_value + REPORT_TOL:
            violations += 1
        count += 1
    if count == 0:
        raise ValueError("no perturbations supplied")
    return PerturbationReport(base_value, count, float(max_value), violations, REPORT_TOL)


def cloner_perturbations(ch: Channel, count: int, rng: RandomStream) -> list[Channel]:
    """Output-unitary kicks alternating with mixes toward symmetric noise, by seed scheme v5."""
    noise = symmetric_noise_channel(ch.d, ch.n_in, ch.n_out)
    out = []
    for i, stream in _item_streams(rng, count):
        if i % 2 == 0:
            u = haar_random_unitary(ch.dim_out, stream)
            out.append(conjugate_output(ch, u))
        else:
            eps = 0.05 + 0.95 * stream.uniform()
            out.append(mixture_channel(ch, noise, eps))
    return out


def povm_perturbations(povm: Povm, count: int, rng: RandomStream) -> list[Povm]:
    """Misalign the guesses: per-guess unitary kicks and common rotations, by seed scheme v5."""
    out = []
    for i, stream in _item_streams(rng, count):
        if i % 2 == 0:
            guesses = [haar_random_unitary(2, stream) @ g for g in povm.guesses]
        else:
            guesses = povm.guesses @ haar_random_unitary(2, stream).T
        out.append(Povm(povm.n, povm.vectors, guesses))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo protocol play

@dataclass(frozen=True)
class MonteCarloRecord:
    """Empirical +-1 payoff of protocol rounds, each a Haar state and the referee's coin.

    The referee passes with probability (1 + F)/2, so mean_payoff = 2p - 1
    estimates the mean fidelity F itself; pass_rate is the raw pass frequency
    (1 + mean_payoff)/2.
    """

    kind: str
    samples: int
    seed: int
    mean_payoff: float
    stderr_payoff: float
    pass_rate: float


def _draw_chunk(spec: GameSpec, c: int):
    """(normals, uniforms) of the rounds of draw chunk c of `spec`, by seed scheme v5.

    `complex_normals(DRAW_ROUNDS * d)` and then `generator.random(DRAW_ROUNDS)`
    from `substream(k).substream(c)` of the seed, k the index of `spec.kind`
    in GAME_KINDS; a final partial chunk keeps its first rows only.
    """
    stream = RandomStream(spec.seed, c, parent=(GAME_KINDS.index(spec.kind),))
    rounds = min(DRAW_ROUNDS, spec.samples - c * DRAW_ROUNDS)
    normals = stream.complex_normals(DRAW_ROUNDS * spec.d).reshape(DRAW_ROUNDS, spec.d)
    return normals[:rounds], stream.generator.random(DRAW_ROUNDS)[:rounds]


def monte_carlo_play(spec: GameSpec, strategy) -> MonteCarloRecord:
    """Play `spec.samples` protocol rounds against the SWAP-test referee.

    The seed is `spec.seed`; `dataclasses.replace(spec, seed=s)` plays seed s.
    Draws follow seed scheme v5 (module docstring): round i is row
    i mod DRAW_ROUNDS of draw chunk i // DRAW_ROUNDS (`_draw_chunk`), its
    Haar state's amplitudes and the referee's uniform, so it depends on
    (seed, kind, i) alone and the record of N rounds is the prefix of the
    record of any longer play.  Round i passes when its uniform falls below
    (1 + F)/2, F the `_checked_payoffs` of the strategy on its state.

    Rounds are scored in slices of MEMORY_ROUNDS, or fewer where one round's
    widest row is so wide that a slice's rows would pass CHUNK_BYTES.  They
    are drawn in blocks of (slice length) // DRAW_ROUNDS whole draw chunks,
    at least one; each block is normalised and checked once, then scored and
    refereed slice by slice with array operations.  A block holds only its
    rounds' d amplitudes and uniforms, so the working memory does not grow
    with the round count, and the record depends on the seed and not on the
    slice length.  The strategy and its size cap are checked, and its rows built,
    once and before any draw (`_checked_payoffs`); so is the round budget: a
    play whose rounds times that width pass ROUND_BUDGET raises
    SizeCapExceeded.
    """
    if spec.samples < 1:
        raise ValueError("samples must be >= 1")
    payoffs, width = _checked_payoffs(spec.kind, spec.d, spec.n, spec.m, strategy)
    if spec.samples * width > ROUND_BUDGET:
        raise SizeCapExceeded(
            f"{spec.samples} rounds of width {width} exceed the round budget {ROUND_BUDGET}"
        )
    chunk = _chunk_length(width, MEMORY_ROUNDS)
    per_block = max(1, chunk // DRAW_ROUNDS)
    draws = -(-spec.samples // DRAW_ROUNDS)
    full, rest = divmod(spec.samples, per_block * DRAW_ROUNDS)
    _log.debug(
        "monte_carlo_play %s d=%d n=%d m=%d: %d rounds in %d slices of <= %d, "
        "%d blocks of <= %d draw chunks; seed scheme v5, %d draw chunks of %d",
        spec.kind, spec.d, spec.n, spec.m, spec.samples,
        full * -(-per_block * DRAW_ROUNDS // chunk) + -(-rest // chunk), chunk,
        full + (rest > 0), per_block, draws, DRAW_ROUNDS,
    )
    total = 0
    for first in range(0, draws, per_block):
        parts = [_draw_chunk(spec, c) for c in range(first, min(first + per_block, draws))]
        normals, uniforms = map(np.concatenate, zip(*parts))
        psi = _check_unit_rows(normals / np.linalg.norm(normals, axis=1, keepdims=True))
        for start in range(0, len(psi), chunk):
            stop = start + chunk
            total += int(np.sum(referee_outcomes(payoffs(psi[start:stop]), uniforms[start:stop])))
    mean = total / spec.samples
    # outcomes are +-1, so the sample variance is exactly 1 - mean^2
    stderr = math.sqrt(max(0.0, 1.0 - mean * mean) / spec.samples)
    return MonteCarloRecord(spec.kind, spec.samples, spec.seed, mean, stderr, 0.5 * (1.0 + mean))


# ---------------------------------------------------------------------------
# asymmetric-cloning bound scan

@dataclass(frozen=True)
class ScanRecord:
    kind: str  # "random" | "grid" | "optimal"
    label: str
    fidelities: tuple
    sum_fidelity: float


@dataclass(frozen=True)
class ScanReport:
    max_sum_fidelity: float
    bound: float
    argmax: str
    records: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_sum_fidelity <= self.bound + self.tol


def _scan_fidelities(d, n_in, n_out, kraus) -> np.ndarray:
    """(N, n_out) Haar fidelities of clones 1..n_out for a (N, K, rows, cols) Kraus stack."""
    return np.stack([_haar_fidelities(d, n_in, n_out, kraus, k)
                     for k in range(1, n_out + 1)], axis=1)


def _asymmetry_grid_kraus(best: Channel, t: np.ndarray) -> np.ndarray:
    """(len(t), 2d, d^2, d) Kraus stacks of the asymmetry grid at path parameters t.

    The path runs from (input, noise) through the optimal 1->2 cloner `best`
    to (noise, input): t in [0, 1/2] mixes the keep-the-first embedding into
    `best`, t in [1/2, 1] mixes `best` into the mirrored embedding, each as
    `mixture_channel` mixes full-output stacks.  t = 1/2 is exactly optimal.
    """
    ends = np.stack([_padding_kraus(best.d, 1, 2, True), _full_output(best),
                     _padding_kraus(best.d, 1, 2, False)])
    leg = (t > 0.5).astype(int)
    w = (2.0 * (t - 0.5 * leg))[:, None, None, None]
    return np.concatenate([np.sqrt(1.0 - w) * ends[leg], np.sqrt(w) * ends[leg + 1]], axis=1)


def asym_bound_scan(
    d: int,
    n_in: int,
    n_out: int,
    n_random: int,
    grid_points: int = 21,
    seed: int = 0,
    ancilla_dim=None,
) -> ScanReport:
    """Brute-force search for a violation of the fidelity-sum ceiling.

    Scans Haar-random isometry channels plus (for 1 -> 2) the asymmetry grid
    and the optimal cloner itself, which attains the bound exactly.  The scan
    passes when no record's fidelity sum exceeds the bound by more than
    REPORT_TOL.  The random channels' Ginibre side d^n_out * ancilla_dim is
    checked against the size cap, with the arity checks of
    `random_isometry_channel`, before the first channel is built.

    Seed scheme v3, which v4 and v5 leave as it is: random channel i is the
    (i mod DRAW_ROUNDS)-th consecutive `random_isometry_channel` draw from
    the one stream `RandomStream(seed).substream(i // DRAW_ROUNDS)`.  The
    channels are handled in memory chunks of at most DRAW_ROUNDS, fewer when
    a channel's Ginibre block is so wide that a chunk would pass CHUNK_BYTES;
    memory chunks subdivide draw chunks and never straddle one.  Each memory
    chunk is array work: `cloning._random_isometry_kraus` draws the chunk's
    Ginibre blocks with one call on its draw chunk's generator and
    orthonormalises them by one batched QR; one batched check
    (`cloning._checked_defects`) refuses non-finite entries and completeness
    defects above `cloning.COMPLETENESS_ATOL`, as `Channel` does; one batched
    contraction per clone scores the chunk.  Records depend on
    the seed and the channel index alone, not on the chunk length, and N
    random channels are a prefix of any larger scan's.  The optimal cloner,
    the one `Channel` built, is scored as a stack of one, and the grid
    (`_asymmetry_grid_kraus`) is built, checked and scored in memory chunks.
    """
    dim = _ginibre_side(d, n_in, n_out, ancilla_dim)
    bound = value_formulas(d, n_in, n_out).asym_bound
    n_grid = grid_points if (n_in, n_out) == (1, 2) and grid_points > 0 else 0
    chunk = _chunk_length(dim * d**n_in)
    draw_chunks, memory_chunks = _chunk_counts(n_random, chunk)
    _log.debug(
        "asym_bound_scan d=%d n_in=%d n_out=%d: %d random channels (%d Kraus operators), "
        "%d grid channels, Choi side %d; %d chunks of <= %d channels; "
        "seed scheme v3, %d draw chunks of <= %d channels",
        d, n_in, n_out, n_random, dim // d**n_out, n_grid, dim_sym(d, n_in) * d**n_out,
        memory_chunks, chunk, draw_chunks, DRAW_ROUNDS,
    )

    def blocks():
        # (kind, labels, checked (N, K, rows, cols) Kraus stack)
        best = optimal_cloner(d, n_in, n_out)
        yield "optimal", ["optimal-cloner"], best.kraus[None]
        root = RandomStream(seed)
        for c in range(draw_chunks):
            stream = root.substream(c)
            end = min((c + 1) * DRAW_ROUNDS, n_random)
            for start in range(c * DRAW_ROUNDS, end, chunk):
                index = range(start, min(start + chunk, end))
                kraus = _random_isometry_kraus(d, n_in, n_out, stream, len(index), ancilla_dim)
                _checked_defects(kraus)
                yield "random", [f"random-{i}" for i in index], kraus
        t = np.linspace(0.0, 1.0, n_grid)
        step = _chunk_length(2 * d**4)  # 2d Kraus operators of d^2 x d per grid channel
        for start in range(0, n_grid, step):
            kraus = _asymmetry_grid_kraus(best, t[start:start + step])
            _checked_defects(kraus)
            yield "grid", [f"grid-t={x:.6f}" for x in t[start:start + step]], kraus

    records = [
        ScanRecord(kind, label, tuple(row), float(sum(row)))
        for kind, labels, kraus in blocks()
        for label, row in zip(labels, _scan_fidelities(d, n_in, n_out, kraus).tolist())
    ]
    best = max(records, key=lambda r: r.sum_fidelity)
    return ScanReport(best.sum_fidelity, bound, best.label, tuple(records), REPORT_TOL)
