"""Symmetric (Bose) subspace machinery for n copies of a d-level system.

The symmetric subspace of (C^d)^{tensor n} is spanned by the symmetrized
occupation-number states: one basis vector per way of distributing n
indistinguishable excitations over d levels, so its dimension is
binomial(d+n-1, n).  We build the isometry whose columns are those vectors and
derive the projector from it, which costs d^n * dim_sym instead of the n! * d^n
of averaging permutation matrices.

Products of copy registers split exactly: Sym_{n+m} sits inside
Sym_n (x) Sym_m, and `sym_split` is that inclusion written in the two
occupation bases, so moment identities over n + m copies never need the
d^(n+m)-dimensional space.  Product states psi^{(x)n} lie in the symmetric
subspace too, and `coherent_coordinates` writes them in the occupation basis
directly from psi's d amplitudes.

These subspaces make Haar averages exact finite sums.  The n-th moment of a
Haar-random pure state, the average of (|psi><psi|)^{tensor n}, is
sym_projector(d, n) / dim_sym(d, n): the average is invariant under every
U^{tensor n}, is supported on the symmetric subspace, and that subspace
carries an irreducible action, so the average is proportional to the
projector, and unit trace fixes the constant.

Column ordering is lexicographic over occupation vectors (n_0, ..., n_{d-1}),
descending in n_0.  For d = 2 this makes column k the spin state with
n - k excitations in level 0, i.e. magnetic quantum number m = n/2 - k in
decreasing order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .core import _frozen, check_size_cap


def dim_sym(d: int, n: int) -> int:
    """Dimension of the symmetric subspace: binomial(d+n-1, n)."""
    if d < 1 or n < 0:
        raise ValueError(f"invalid arguments d={d}, n={n}")
    return math.comb(d + n - 1, n)


def occupations(d: int, n: int) -> list[tuple[int, ...]]:
    """Occupation vectors (n_0, ..., n_{d-1}) with sum n, descending in n_0."""
    occs = []
    for levels in combinations_with_replacement(range(d), n):
        occ = [0] * d
        for lv in levels:
            occ[lv] += 1
        occs.append(tuple(occ))
    return occs


@lru_cache(maxsize=None)
def _isometry(d: int, n: int) -> np.ndarray:
    occs = occupations(d, n)
    col_of = {occ: i for i, occ in enumerate(occs)}
    full = d**n
    iso = np.zeros((full, len(occs)))
    for b in range(full):
        occ = [0] * d
        rem = b
        for _ in range(n):
            occ[rem % d] += 1
            rem //= d
        iso[b, col_of[tuple(occ)]] = 1.0
    iso /= np.sqrt(iso.sum(axis=0))
    return _frozen(iso)


def sym_isometry(d: int, n: int) -> np.ndarray:
    """Isometry (d^n x dim_sym) whose columns are the occupation-number states."""
    check_size_cap(d**n)
    return _isometry(d, n)


@lru_cache(maxsize=None)
def _projector(d: int, n: int) -> np.ndarray:
    iso = _isometry(d, n)
    return _frozen(iso @ iso.conj().T)


def sym_projector(d: int, n: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^d)^{tensor n}."""
    check_size_cap(d**n)
    return _projector(d, n)


def _multinomial(occ) -> int:
    """Number of strings with occupation vector occ: sum(occ)! / prod(occ_i!)."""
    out = math.factorial(sum(occ))
    for k in occ:
        out //= math.factorial(k)
    return out


@lru_cache(maxsize=None)
def _split(d: int, n: int, m: int) -> np.ndarray:
    occ_n, occ_m = occupations(d, n), occupations(d, m)
    col_of = {occ: i for i, occ in enumerate(occupations(d, n + m))}
    mult_n = [_multinomial(a) for a in occ_n]
    mult_m = [_multinomial(b) for b in occ_m]
    mult_c = [_multinomial(c) for c in col_of]
    split = np.zeros((len(occ_n) * len(occ_m), len(col_of)))
    for i, a in enumerate(occ_n):
        for j, b in enumerate(occ_m):
            col = col_of[tuple(x + y for x, y in zip(a, b))]
            ratio = mult_n[i] * mult_m[j] / mult_c[col]
            split[i * len(occ_m) + j, col] = math.sqrt(ratio)
    return _frozen(split)


def sym_split(d: int, n: int, m: int) -> np.ndarray:
    """Isometry Sym_{n+m} -> Sym_n (x) Sym_m in occupation coordinates.

    Equals (V_n (x) V_m)^T V_{n+m} for the isometries V of `sym_isometry`,
    without building them: the entry at rows (a, b) and column c is
    sqrt(multinom(a) multinom(b) / multinom(c)) when c = a + b and 0
    otherwise, since the occupation state c contains multinom(a) multinom(b)
    of its multinom(c) strings in the product of the states a and b.  So
    S S^T is the projector onto Sym_{n+m} inside Sym_n (x) Sym_m, and
    (V_n (x) V_m) S S^T (V_n (x) V_m)^T is the (n+m)-copy projector.
    Shape (dim_sym(d,n) dim_sym(d,m), dim_sym(d,n+m)); cached per (d, n, m).
    """
    if d < 1 or n < 0 or m < 0:
        raise ValueError(f"invalid arguments d={d}, n={n}, m={m}")
    return _split(d, n, m)


@lru_cache(maxsize=None)
def _coherent_factors(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    occs = occupations(d, n)
    exponents = np.array(occs, dtype=np.int64).reshape(len(occs), d)
    roots = np.array([math.sqrt(_multinomial(occ)) for occ in occs])
    return _frozen(exponents), _frozen(roots)


def coherent_coordinates(amplitudes, n: int) -> np.ndarray:
    """Occupation coordinates of psi^{(x)n}, for psi given by its amplitudes.

    Component k (in `occupations(d, n)` order) is sqrt(multinom(k)) prod_i
    psi_i^{k_i}: the overlap of psi^{(x)n} with the normalised sum of the
    multinom(k) strings that hold k_i copies of level i.  So this equals
    sym_isometry(d, n)^T psi^{(x)n} without the d^n-dimensional tensor power.
    `amplitudes` has shape (..., d), one state per leading index; the result
    is complex, C-contiguous and of shape (..., dim_sym(d, n)).  Nothing is
    renormalised: the coordinates have norm |psi|^n.

    The powers come from a table of psi_i^k for k = 0 .. n, gathered by the
    exponent columns.  Entries 0 and 1 are filled directly and entries 2 .. n
    by one `np.power` call with integer exponents, so the table holds the
    bits of `psi ** k`: numpy's repeated-multiplication loop for k < 100 and
    `cpow` from k = 100 on.  Every step is elementwise, so a state alone gives
    the same bits as inside a batch.
    """
    amplitudes = np.asarray(amplitudes)
    exponents, roots = _coherent_factors(amplitudes.shape[-1], n)
    table = np.empty((n + 1,) + amplitudes.shape, dtype=complex)  # table[k] = psi^k
    table[0] = 1
    table[1:2] = amplitudes
    np.power(amplitudes, np.arange(2, n + 1).reshape((-1,) + (1,) * amplitudes.ndim),
             out=table[2:])
    out = roots.reshape((-1,) + (1,) * (amplitudes.ndim - 1)) * table[exponents[:, 0], ..., 0]
    for i in range(1, exponents.shape[1]):
        out *= table[exponents[:, i], ..., i]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))
