"""Symmetric tensor algebra with exponent-indexed storage.

An order-d symmetric tensor over R^n is determined by one representative
entry per exponent multi-index: the exponent e = (e_1, ..., e_n) with
sum(e) = d stands for every index tuple that contains coordinate i exactly
e_i times, and the stored value is that common entry.  The multinomial
weight d!/(e_1! ... e_n!) counts the index tuples sharing an exponent; it
enters inner products only, which keeps rank-one constructions weight-free
and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSpanError",
    "Frame",
    "SymTensor",
    "exponent_tuples",
    "frob_inner",
    "frob_norm",
    "multi_weight",
    "poly_eval",
    "poly_grad",
    "poly_hess",
    "restrict_to_plane",
    "sym_outer",
    "sym_rank_one",
]

# u, v are declared dependent when their Gram determinant falls below this
# fraction of ||u||^2 ||v||^2 (scale-invariant test).
GRAM_RTOL = 1e-14


class DegenerateSpanError(ValueError):
    """Two vectors that must span a plane are (numerically) dependent."""


def multi_weight(exp) -> int:
    """Number of index tuples sharing the exponent multi-index ``exp``."""
    w = math.factorial(sum(exp))
    for e in exp:
        w //= math.factorial(e)
    return w


def exponent_tuples(dim, order):
    """Yield all length-``dim`` tuples of nonnegative ints summing to ``order``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if dim == 1:
        yield (order,)
        return
    for first in range(order, -1, -1):
        for rest in exponent_tuples(dim - 1, order - first):
            yield (first,) + rest


class SymTensor:
    """Dense symmetric tensor stored as {exponent tuple: representative entry}.

    Instances are immutable after construction; every operation in this
    module returns a new tensor.  Exponents with zero value may be omitted.
    """

    __slots__ = ("order", "dim", "_coeffs", "_tables")

    def __init__(self, order: int, dim: int, coeffs: dict):
        if order < 1:
            raise ValueError(f"tensor order must be >= 1, got {order}")
        if dim < 1:
            raise ValueError(f"tensor dim must be >= 1, got {dim}")
        clean = {}
        for raw, val in coeffs.items():
            exp = tuple(int(e) for e in raw)
            if exp != tuple(raw):
                raise ValueError(f"exponent {list(raw)} is not integral")
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {dim}")
            if any(e < 0 for e in exp):
                raise ValueError(f"exponent {exp} has negative entries")
            if sum(exp) != order:
                raise ValueError(f"exponent {exp} sums to {sum(exp)}, expected order {order}")
            val = float(val)
            if not math.isfinite(val):
                raise ValueError(f"non-finite coefficient at {exp}")
            if val != 0.0:
                clean[exp] = val
        self.order = order
        self.dim = dim
        self._coeffs = clean
        self._tables = {}

    def coeff(self, exp) -> float:
        """Representative entry at the given exponent (0.0 if absent)."""
        return self._coeffs.get(tuple(exp), 0.0)

    def items(self):
        return self._coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _derivative_table(self, k: int):
        """Cached (monomials, coefficients) arrays of the k-th derivative of u -> <A, u^d>.

        monomials is the sorted (m, dim) array of the exponents of order d - k
        that k-fold derivatives of the stored entries reach; entry (i_1, ..., i_k)
        of the derivative is the sum over r of
        coefficients[i_1, ..., i_k, r] * prod(u ** monomials[r]).
        """
        if k not in self._tables:
            exps = sorted(self._coeffs)
            F = np.array(exps, dtype=np.int64).reshape(len(exps), self.dim)
            coef = np.array([float(multi_weight(e)) * self._coeffs[e] for e in exps])
            eye = np.eye(self.dim, dtype=np.int64)
            # Differentiate in one more coordinate per pass: the factor is the
            # exponent it lowers.
            for _ in range(k):
                coef = coef[..., None] * F
                F = F[..., None, :] - eye
            hit = (F >= 0).all(axis=-1)
            M, r = np.unique(F[hit].reshape(-1, self.dim), axis=0, return_inverse=True)
            # For a fixed index tuple distinct exponents reach distinct
            # monomials, so no two entries land on one slot.
            C = np.zeros((self.dim,) * k + (len(M),))
            C[np.nonzero(hit)[1:] + (r.ravel(),)] = coef[hit]
            self._tables[k] = (M, C)
        return self._tables[k]

    def _check_compatible(self, other):
        if not isinstance(other, SymTensor):
            raise TypeError(f"expected SymTensor, got {type(other).__name__}")
        if self.order != other.order or self.dim != other.dim:
            raise ValueError(
                f"shape mismatch: order/dim ({self.order},{self.dim}) vs "
                f"({other.order},{other.dim})"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self._coeffs)
        for exp, val in other._coeffs.items():
            out[exp] = out.get(exp, 0.0) + val
        return SymTensor(self.order, self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymTensor(self.order, self.dim, {e: -v for e, v in self._coeffs.items()})

    def __mul__(self, scalar):
        s = float(scalar)
        return SymTensor(self.order, self.dim, {e: s * v for e, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymTensor(order={self.order}, dim={self.dim}, nnz={len(self._coeffs)})"

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "coeffs": [
                {"exp": list(e), "value": v} for e, v in sorted(self._coeffs.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymTensor":
        coeffs = {tuple(item["exp"]): float(item["value"]) for item in data["coeffs"]}
        order, dim = data["order"], data["dim"]
        if int(order) != order or int(dim) != dim:
            raise ValueError(f"order {order!r} and dim {dim!r} must be integral")
        return cls(int(order), int(dim), coeffs)


def sym_rank_one(u, d: int) -> SymTensor:
    """The symmetric rank-one tensor with entry prod_i u_i^{e_i} at exponent e."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a nonempty vector")
    if d < 1:
        raise ValueError(f"invalid order d={d}; rank-one powers need d >= 1")
    coeffs = {}
    for e in exponent_tuples(u.size, d):
        val = 1.0
        for ui, ei in zip(u, e):
            if ei:
                val *= ui ** ei
        if val:
            coeffs[e] = val
    return SymTensor(d, u.size, coeffs)


def _bounded_splits(e, k):
    """All tuples f with 0 <= f_i <= e_i and sum(f) = k."""
    if len(e) == 1:
        if 0 <= k <= e[0]:
            yield (k,)
        return
    # Below k - sum(e[1:]) the rest cannot take up the remainder.
    for f0 in range(min(e[0], k), max(0, k - sum(e[1:])) - 1, -1):
        for rest in _bounded_splits(e[1:], k - f0):
            yield (f0,) + rest


def sym_outer(u, k: int, v, l: int) -> SymTensor:
    """Symmetrized outer product of k copies of u and l copies of v.

    Equals the orthogonal projection of the (k+l)-fold outer product onto the
    symmetric subspace, i.e. the average over all distinct slot placements.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of the same dimension")
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need k, l >= 0 with k + l >= 1")
    d = k + l
    n = u.size
    total = math.comb(d, k)
    coeffs = {}
    for e in exponent_tuples(n, d):
        acc = 0.0
        for f in _bounded_splits(e, k):
            term = 1.0
            for ei, fi, ui, vi in zip(e, f, u, v):
                term *= math.comb(ei, fi) * ui ** fi * vi ** (ei - fi)
            acc += term
        if acc:
            coeffs[e] = acc / total
    return SymTensor(d, n, coeffs)


def frob_inner(A: SymTensor, B: SymTensor) -> float:
    """Frobenius inner product: weighted sum over shared exponents."""
    A._check_compatible(B)
    if len(B._coeffs) < len(A._coeffs):
        A, B = B, A
    return sum(
        multi_weight(e) * v * B._coeffs[e] for e, v in A._coeffs.items() if e in B._coeffs
    )


def frob_norm(A: SymTensor) -> float:
    """Frobenius norm; inf past the float range.

    The entries are scaled by 2^-k, for the power of two 2^k of the largest
    |entry|, before squaring, so tiny tensors neither underflow nor lose
    digits.  The scaling is exact: where no square leaves the normal range,
    the result has the bits of the unscaled sum.
    """
    if A.is_zero:
        return 0.0
    k = math.frexp(max(abs(v) for v in A._coeffs.values()))[1]
    total = 0.0
    # A plain left-to-right sum: sum() compensates rounding on Python >= 3.12.
    for e, v in A._coeffs.items():
        v = math.ldexp(v, -k)
        total += multi_weight(e) * v * v
    try:
        return math.ldexp(math.sqrt(total), k)
    except OverflowError:
        return math.inf


def _stack(A: SymTensor, u) -> np.ndarray:
    """The point u, or each row of an (S, n) stack, as an (S, n) float array."""
    U = np.asarray(u, dtype=float)
    if U.shape[-1:] != (A.dim,) or U.ndim > 2:
        raise ValueError(f"point has shape {U.shape}, tensor has dim {A.dim}")
    return U.reshape(-1, A.dim)


def _derivative(A: SymTensor, u, k: int) -> np.ndarray:
    """k-th derivative of u -> <A, u^d> at a point, shape (n,) * k, or at
    each row of an (S, n) stack, shape (S,) + (n,) * k."""
    U = _stack(A, u)
    M, C = A._derivative_table(k)
    mono = np.prod(U[:, None, :] ** M, axis=2)
    out = np.vecdot(mono.reshape((len(U),) + (1,) * k + (len(M),)), C)
    return out.reshape(np.shape(u)[:-1] + (A.dim,) * k)


def poly_eval(A: SymTensor, u) -> float | np.ndarray:
    """Value of the form <A, u^d> at a point u (a float) or at each row of an (S, n) stack."""
    values = _derivative(A, u, 0)
    return float(values) if np.ndim(u) == 1 else values


def poly_grad(A: SymTensor, u) -> np.ndarray:
    """Gradient of u -> <A, u^d> at a point or each row of a stack; <u, grad> = d * value."""
    return _derivative(A, u, 1)


def poly_hess(A: SymTensor, u) -> np.ndarray:
    """Hessian of u -> <A, u^d> at a point, (n, n), or at each row of a stack, (S, n, n)."""
    return _derivative(A, u, 2)


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis (q1, q2) of a plane, used to lift dim-2 points back."""

    q1: np.ndarray
    q2: np.ndarray

    def lift(self, w2) -> np.ndarray:
        w2 = np.asarray(w2, dtype=float)
        return w2[0] * self.q1 + w2[1] * self.q2


def plane_frame(u, v) -> Frame:
    """Orthonormal frame of span{u, v}: q1 along u, q2 Gram-Schmidt from v.

    The tie-break <v, q2> > 0 is automatic for Gram-Schmidt.  Raises
    DegenerateSpanError when u, v are dependent at the GRAM_RTOL threshold.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu, vv, uv = float(u @ u), float(v @ v), float(u @ v)
    if uu == 0.0 or vv == 0.0 or uu * vv - uv * uv <= GRAM_RTOL * uu * vv:
        raise DegenerateSpanError("u and v do not span a plane")
    q1 = u / math.sqrt(uu)
    r = v - (v @ q1) * q1
    q2 = r / np.linalg.norm(r)
    return Frame(q1, q2)


def restrict_to_plane(A: SymTensor, u, v):
    """Coordinates of A in an orthonormal frame of span{u, v}.

    Valid when A lies in the symmetric algebra of the plane; the returned
    Frame lifts dim-2 maximizers back to the ambient space.
    """
    frame = plane_frame(u, v)
    d = A.order
    coeffs = {}
    for k in range(d, -1, -1):
        val = frob_inner(A, sym_outer(frame.q1, k, frame.q2, d - k))
        if val:
            coeffs[(k, d - k)] = val
    return SymTensor(d, 2, coeffs), frame
