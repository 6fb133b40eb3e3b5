"""Function-level views of the coefficient data.

The Stieltjes transform of a line measure and the Caratheodory transform
of a circle measure are represented purely through their rational
convergents,

    S(x) ~ P'_{depth-1}(x) / P_depth(x)     (P' the order-1 associated family)
    F(z) ~ Omega*_depth(z) / Phi*_depth(z),

which converge geometrically away from the support and need no moment
pipeline.  On top of the convergents this module builds the 2x2 transfer
matrices of the associated and anti-associated families, the conjugation
check that moves a matrix across the line/circle bridge, and the four
explicit low-order corollary formulas (assoc_order1_cfun,
antiassoc_order1_cfun_secondkind, assoc_order2_sfun_matrix,
antiassoc_order2_sfun_matrix), all validated pointwise.  A transfer
matrix is a function of the point t returning its entries (a, b, c, d)
at t (see polyhom); a builder checks its data when called.

The convergent depth defaults to DEFAULT_DEPTH.

Evaluation refuses points too close to the support (within 1e-6 of
[-1, 1], or within 1e-6 of the unit circle) where convergence degrades.
"""

from __future__ import annotations

from math import frexp, ldexp

from ._value import Value
from .errors import EvaluationDomain, PoleHit
from .oprl import RealRecurrence, oprl_eval, prepend_coefficients, shift_coefficients
from .opuc import VerblunskySeq, opuc_eval, prepend_verblunsky, second_kind
from .polyhom import Matrix, homography_apply
from .szego import geronimus_forward, geronimus_inverse
from .tolerances import POLE_TOL, SUPPORT_MARGIN

Scalar = complex

# Convergent states past this (over 1 + |x| on the line) are rescaled.
_SCALE_LIMIT = 2.0 ** 960

DEFAULT_DEPTH = 40

# s_value and f_value estimate the error as |c_depth - c_{max(depth - _PLATEAU, 1)}|.
_PLATEAU = 10


def _segment_distance(x: Scalar) -> float:
    """Distance from x to the segment [-1, 1]."""
    x = complex(x)
    if -1.0 <= x.real <= 1.0:
        return abs(x.imag)
    return min(abs(x - 1.0), abs(x + 1.0))


class SFunctionHandle(Value):
    """Line-side transform evaluated through depth-th convergents."""

    __slots__ = ("rc", "depth")
    rc: RealRecurrence
    depth: int

    def __init__(self, rc, depth=DEFAULT_DEPTH):
        object.__setattr__(self, "rc", rc)
        object.__setattr__(self, "depth", depth)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.rc.require(self.depth, self.depth - 1)


class CFunctionHandle(Value):
    """Circle-side transform evaluated through depth-th convergents."""

    __slots__ = ("vs", "depth")
    vs: VerblunskySeq
    depth: int

    def __init__(self, vs, depth=DEFAULT_DEPTH):
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "depth", depth)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.vs.require(self.depth)


def _rescale(states, one: float, big: float):
    """Scale the recurrence states and the tracked unit `one` by the same
    power of two, bringing the largest state near 2^-4.  Power-of-two
    scaling is exact, so every ratio of states, and every pole test made
    against `one`, comes out as it would unscaled."""
    s = ldexp(1.0, -frexp(big)[1] - 4)
    return [v * s if v.__class__ is float else complex(v.real * s, v.imag * s)
            for v in states], one * s


def _s_tail(h: SFunctionHandle, x: Scalar) -> list[Scalar]:
    """Convergents P'_{k-1}(x)/P_k(x) for k = max(depth - _PLATEAU, 1)..depth,
    the only ones s_value and s_convergent read; the pole test runs at
    every order.

    The states grow like |x|^k and are rescaled before a step can
    overflow; the step multiplies by up to ~2 (|x - b| + |d|), so the
    trigger sits at 2^960 / (1 + |x|).
    """
    if _segment_distance(x) <= SUPPORT_MARGIN:
        raise EvaluationDomain(f"x = {x!r} is within {SUPPORT_MARGIN} of [-1, 1]")
    depth = h.depth
    b, d = h.rc.b, h.rc.d  # the handle checked len(b) >= depth, len(d) >= depth - 1
    limit = _SCALE_LIMIT / (1.0 + abs(x))
    one = 1.0  # 1 in the scaled units of the states
    # float seeds: the states stay real for real data at a real x
    p_prev, p_cur, q_prev, q_cur = 1.0, x - b[0], 0.0, 1.0  # P_0, P_1, P'_{-1}, P'_0
    first = depth - _PLATEAU
    out = []
    for k in range(1, depth + 1):
        ap, aq = abs(p_cur), abs(q_cur)
        if ap <= POLE_TOL * (one + aq):
            raise PoleHit(f"convergent denominator vanished at x = {x!r} (order {k})")
        if k >= first:
            out.append(q_cur / p_cur)
        if k == depth:
            break
        if ap > limit or aq > limit:
            (p_prev, p_cur, q_prev, q_cur), one = _rescale(
                (p_prev, p_cur, q_prev, q_cur), one, max(ap, aq))
        xb, dk = x - b[k], d[k - 1]
        p_prev, p_cur = p_cur, xb * p_cur - dk * p_prev
        q_prev, q_cur = q_cur, xb * q_cur - dk * q_prev
    return out


def s_convergent(h: SFunctionHandle, x: Scalar) -> Scalar:
    """The depth-th convergent of the line-side transform at x."""
    return complex(_s_tail(h, x)[-1])


def s_value(h: SFunctionHandle, x: Scalar) -> tuple[Scalar, float]:
    """Convergent plus a plateau error estimate |c_depth - c_{max(depth-10, 1)}|."""
    tail = _s_tail(h, x)
    return complex(tail[-1]), abs(tail[-1] - tail[0])


def _f_tail(h: CFunctionHandle, z: Scalar) -> list[Scalar]:
    """Convergents Omega*_k(z)/Phi*_k(z) for k = max(depth - _PLATEAU, 1)..depth,
    the only ones f_value and f_convergent read; the pole test runs at
    every order.

    Each step at most doubles the states (|z| < 1, |a| < 1), so they are
    rescaled once the larger of Phi*_k, Omega*_k passes 2^960.  Phi_k and
    Omega_k stay below them in modulus.
    """
    if abs(z) >= 1.0 - SUPPORT_MARGIN:
        raise EvaluationDomain(f"|z| = {abs(complex(z))} is not inside the unit disc margin")
    phi = phis = om = oms = 1.0  # floats: the states stay real for real data at a real z
    one = 1.0  # 1 in the scaled units of the states
    first = h.depth - _PLATEAU
    out = []
    for k, a in enumerate(h.vs.alpha[:h.depth], start=1):  # the handle checked the length
        ac, az = a.conjugate(), a * z
        phi, phis = z * phi - ac * phis, phis - az * phi
        om, oms = z * om + ac * oms, oms + az * om
        aphis, aoms = abs(phis), abs(oms)
        if aphis <= POLE_TOL * (one + aoms):
            raise PoleHit(f"convergent denominator vanished at z = {complex(z)!r} (order {k})")
        if k >= first:
            out.append(oms / phis)
        if aphis > _SCALE_LIMIT or aoms > _SCALE_LIMIT:
            (phi, phis, om, oms), one = _rescale((phi, phis, om, oms), one, max(aphis, aoms))
    return out


def f_convergent(h: CFunctionHandle, z: Scalar) -> Scalar:
    """The depth-th convergent of the circle-side transform at z; exactly 1 at z = 0."""
    return complex(_f_tail(h, z)[-1])


def f_value(h: CFunctionHandle, z: Scalar) -> tuple[Scalar, float]:
    """Convergent plus a plateau error estimate |c_depth - c_{max(depth-10, 1)}|."""
    tail = _f_tail(h, z)
    return complex(tail[-1]), abs(tail[-1] - tail[0])


def fs_bridge_check(rc: RealRecurrence, x: Scalar, depth: int = DEFAULT_DEPTH,
                    vs: VerblunskySeq | None = None) -> float:
    """Residual |F(z) - (1 - z^2)/(2z) * S(x)| at z = x - sqrt(x^2 - 1)."""
    from .szego import map_x_to_z

    z = map_x_to_z(x)
    if vs is None:
        vs = geronimus_inverse(rc, (depth + 1) // 2 + 1)
    f = f_convergent(CFunctionHandle(vs, depth), z)
    s = s_convergent(SFunctionHandle(rc, depth), x)
    return abs(f - (1.0 - z * z) / (2.0 * z) * s)


# ---------------------------------------------------------------------------
# Transfer matrices


def matrix_B_assoc(rc: RealRecurrence, k: int) -> Matrix:
    """Transfer matrix of the order-k associated line family:

        [[ P_k,        -P'_{k-1} ],
         [ d_k P_{k-1}, -d_k P'_{k-2} ]]

    with P' the order-1 associated family (P'_{-1} = 0 for k = 1), evaluated
    at x with oprl_eval; the data are checked when the matrix is built.
    """
    if k < 1:
        raise ValueError("association order must be >= 1")
    rc.require(k, k - 1)
    rc1 = shift_coefficients(rc, 1)
    dk = rc.d_at(k)

    def m(x):
        p = oprl_eval(rc, k, x)
        p1 = [0j] + oprl_eval(rc1, k - 1, x)  # p1[j] = P'_{j-1}
        return p[k], -p1[k], dk * p[k - 1], -dk * p1[k - 1]
    return m


def matrix_B_antiassoc(rc: RealRecurrence, pre_b, pre_d) -> Matrix:
    """Transfer matrix of the order-k anti-associated line family:

        [[ d~_k R_{k-2}, -R_{k-1} ],
         [ d~_k Q_{k-1}, -Q_k     ]]

    with Q the order-k anti-associated family, R the order-(k-1) one (its
    first associated), and d~_k the k-th entry of Q, i.e. the innermost
    prepended pair.  Derived as the adjugate of the associated-family
    relation applied to Q, and validated pointwise against convergents.
    The order is k = len(pre_b).
    """
    pre_b = tuple(float(v) for v in pre_b)
    pre_d = tuple(float(v) for v in pre_d)
    k = len(pre_b)
    if k < 1:
        raise ValueError("anti-association order must be >= 1")
    assoc = matrix_B_assoc(prepend_coefficients(rc, pre_b, pre_d), k)

    def m(x):
        a, b, c, d = assoc(x)
        return -d, b, c, -a
    return m


def matrix_Upsilon_assoc(vs: VerblunskySeq, k: int) -> Matrix:
    """Transfer matrix of the order-k associated circle family:

        [[ Phi_k + Phi*_k, Omega_k - Omega*_k ],
         [ Phi_k - Phi*_k, Omega_k + Omega*_k ]]

    (k = 0 gives twice the identity, an identity homography), evaluated at z
    with opuc_eval; the data are checked when the matrix is built.
    """
    if k < 0:
        raise ValueError("association order must be >= 0")
    vs.require(k)
    om_vs = second_kind(vs)

    def m(z):
        phi, phis = opuc_eval(vs, k, z)
        om, oms = opuc_eval(om_vs, k, z)
        return phi[k] + phis[k], om[k] - oms[k], phi[k] - phis[k], om[k] + oms[k]
    return m


def matrix_Upsilon_antiassoc(vs: VerblunskySeq, xi) -> Matrix:
    """Transfer matrix of the order-k anti-associated circle family
    (k = len(xi)), built from the prepended sequence's own polynomials:

        [[ Om~_k + Om~*_k, Om~*_k - Om~_k ],
         [ Phi~*_k - Phi~_k, Phi~_k + Phi~*_k ]],

    the adjugate of matrix_Upsilon_assoc on the prepended sequence.
    """
    xi = tuple(complex(v) for v in xi)
    assoc = matrix_Upsilon_assoc(prepend_verblunsky(vs, xi), len(xi))

    def m(z):
        a, b, c, d = assoc(z)
        return d, -b, -c, a
    return m


# ---------------------------------------------------------------------------
# Conjugation across the bridge


def szego_conjugate_check(m: Matrix, original, transformed, z: Scalar,
                          side: str = "line", depth: int = DEFAULT_DEPTH) -> float:
    """Residual of the conjugated transfer identity at the point z (|z| < 1).

    side="line": m acts on weighted circle transforms with weight
    w = 2z/(1 - z^2) and argument x = (z + 1/z)/2,

        w F_new(z) = m(x) . (w F_orig(z)).

    side="circle": m acts on weighted line transforms with weight
    s = sqrt(x^2 - 1) = (1/z - z)/2 and argument z itself,

        s S_new(x) = m(z) . (s S_orig(x)).

    `original` / `transformed` are line data (RealRecurrence) for
    side="line" and circle data (VerblunskySeq) for side="circle"; the
    other half of each pair is derived through the bridge.
    """
    z = complex(z)
    if z == 0 or abs(z) >= 1.0 - SUPPORT_MARGIN:
        raise EvaluationDomain(f"z = {z!r} must satisfy 0 < |z| < 1")
    x = 0.5 * (z + 1.0 / z)
    if side == "line":
        w = 2.0 * z / (1.0 - z * z)
        n = (depth + 1) // 2 + 1
        f_o = f_convergent(CFunctionHandle(geronimus_inverse(original, n), depth), z)
        f_n = f_convergent(CFunctionHandle(geronimus_inverse(transformed, n), depth), z)
        rhs = homography_apply(m, w * f_o, x)
        return abs(w * f_n - rhs)
    if side == "circle":
        s = 0.5 * (1.0 / z - z)  # the branch with z = x - s
        s_o = s_convergent(SFunctionHandle(geronimus_forward(original, depth), depth), x)
        s_n = s_convergent(SFunctionHandle(geronimus_forward(transformed, depth), depth), x)
        rhs = homography_apply(m, s * s_o, z)
        return abs(s * s_n - rhs)
    raise ValueError(f"side must be 'line' or 'circle', got {side!r}")


# ---------------------------------------------------------------------------
# Explicit low-order corollary formulas


def assoc_order1_cfun(z: Scalar, f: Scalar, b1: float, d1: float) -> Scalar:
    """Transformed circle transform of the order-1 associated line family
    from the second-kind value 1/f:
    [-(1-z^2)^2 / f + (1-z^2)(z^2 - 2 b1 z + 1)] / (4 d1 z^2)."""
    omega = 1.0 / f
    top = -((1 - z * z) ** 2) * omega + (1 - z * z) * (z * z - 2 * b1 * z + 1)
    return top / (4 * d1 * z * z)


def antiassoc_order1_cfun_secondkind(z: Scalar, f: Scalar,
                                     b1_new: float, d1_new: float) -> Scalar:
    """Reciprocal transform of the order-1 anti-associated family,
    [4 d1_new z^2 f - (1-z^2)(z^2 - 2 b1_new z + 1)] / (-(1-z^2)^2),
    with (b1_new, d1_new) the prepended pair."""
    top = 4 * d1_new * z * z * f - (1 - z * z) * (z * z - 2 * b1_new * z + 1)
    return top / (-((1 - z * z) ** 2))


def assoc_order2_sfun_matrix(b1: float, alpha1: float) -> Matrix:
    """Matrix [[x - b1, -1], [(lam-1)(1-x^2), (lam-1)(x + b1)]] with
    lam = 2/(1 - alpha1): the order-2 associated circle family seen from
    the line."""
    lam1 = 2.0 / (1.0 - alpha1) - 1.0
    return lambda x: (x - b1, -1.0, lam1 * (1.0 - x * x), lam1 * (x + b1))


def antiassoc_order2_sfun_matrix(xi0: float, xi1: float) -> Matrix:
    """Matrix [[x + xi0, K], [x^2 - 1, K (x - xi0)]] with
    K = (1 - xi1)/(1 + xi1): the order-2 anti-associated circle family seen
    from the line, obtained by reducing the order-2 transfer matrix with
    z^2 + 1 = 2xz and 1 - z^2 = 2z sqrt(x^2 - 1)."""
    kfac = (1.0 - xi1) / (1.0 + xi1)
    return lambda x: (x + xi0, kfac, x * x - 1.0, kfac * (x - xi0))
