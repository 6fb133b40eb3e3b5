"""Function-level views of the coefficient data.

The Stieltjes transform of a line measure and the Caratheodory transform
of a circle measure are represented purely through their rational
convergents,

    S(x) ~ P'_{depth-1}(x) / P_depth(x)     (P' the order-1 associated family)
    F(z) ~ Omega*_depth(z) / Phi*_depth(z),

which converge geometrically away from the support and need no moment
pipeline.  On top of the convergents this module builds the 2x2 transfer
matrices of the associated and anti-associated families, the generic
conjugation check that moves a matrix across the line/circle bridge, and
the explicit low-order corollary formulas, all validated pointwise.

Evaluation refuses points too close to the support (within 1e-6 of
[-1, 1], or within 1e-6 of the unit circle) where convergence degrades.
"""

from __future__ import annotations

import os
from math import frexp, ldexp

from ._value import Value
from .errors import EvaluationDomain, PoleHit
from .oprl import RealRecurrence, oprl_polys, prepend_coefficients, shift_coefficients
from .opuc import VerblunskySeq, opuc_polys, prepend_verblunsky, second_kind
from .polyhom import P_ONE, Poly, PolyMatrix2, homography_apply
from .szego import geronimus_forward, geronimus_inverse
from .tolerances import POLE_TOL

Scalar = complex

SUPPORT_MARGIN = 1e-6

# Convergent states past this (over 1 + |x| on the line) are rescaled.
_SCALE_LIMIT = 2.0 ** 960


def default_depth() -> int:
    """Convergent order: 40 unless ORTHO_SZEGO_DEPTH says otherwise."""
    raw = os.environ.get("ORTHO_SZEGO_DEPTH", "")
    if raw:
        try:
            depth = int(raw)
        except ValueError:
            raise ValueError(f"ORTHO_SZEGO_DEPTH must be an integer, got {raw!r}") from None
        if depth < 1:
            raise ValueError("ORTHO_SZEGO_DEPTH must be >= 1")
        return depth
    return 40


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

    def __init__(self, rc, depth=None):
        object.__setattr__(self, "rc", rc)
        object.__setattr__(self, "depth", default_depth() if depth is None else depth)
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        self.rc.require(self.depth, self.depth - 1)


class CFunctionHandle(Value):
    """Circle-side transform evaluated through depth-th convergents."""

    __slots__ = ("vs", "depth")
    vs: VerblunskySeq
    depth: int

    def __init__(self, vs, depth=None):
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "depth", default_depth() if depth is None else depth)
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
    """Convergents P'_{k-1}(x)/P_k(x) for k = 1..depth.

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
    p_prev, p_cur = 1.0 + 0j, x - b[0]  # P_0, P_1
    q_prev, q_cur = 0j, 1.0 + 0j        # P'_{-1}, P'_0
    out = []
    for k in range(1, depth + 1):
        ap, aq = abs(p_cur), abs(q_cur)
        if ap <= POLE_TOL * (one + aq):
            raise PoleHit(f"convergent denominator vanished at x = {x!r} (order {k})")
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
    return _s_tail(h, x)[-1]


def s_value(h: SFunctionHandle, x: Scalar) -> tuple[Scalar, float]:
    """Convergent plus a plateau error estimate |c_depth - c_{depth-10}|."""
    tail = _s_tail(h, x)
    back = tail[max(len(tail) - 11, 0)]
    return tail[-1], abs(tail[-1] - back)


def _f_tail(h: CFunctionHandle, z: Scalar) -> list[Scalar]:
    """Convergents Omega*_k(z)/Phi*_k(z) for k = 1..depth.

    Each step at most doubles the states (|z| < 1, |a| < 1), so they are
    rescaled once the larger of Phi*_k, Omega*_k passes 2^960.  Phi_k and
    Omega_k stay below them in modulus.
    """
    z = complex(z)
    if abs(z) >= 1.0 - SUPPORT_MARGIN:
        raise EvaluationDomain(f"|z| = {abs(z)} is not inside the unit disc margin")
    phi, phis = 1.0 + 0j, 1.0 + 0j
    om, oms = 1.0 + 0j, 1.0 + 0j
    one = 1.0  # 1 in the scaled units of the states
    out = []
    for k, a in enumerate(h.vs.alpha[:h.depth], start=1):  # the handle checked the length
        ac, az = a.conjugate(), a * z
        phi, phis = z * phi - ac * phis, phis - az * phi
        om, oms = z * om + ac * oms, oms + az * om
        aphis, aoms = abs(phis), abs(oms)
        if aphis <= POLE_TOL * (one + aoms):
            raise PoleHit(f"convergent denominator vanished at z = {z!r} (order {k})")
        out.append(oms / phis)
        if aphis > _SCALE_LIMIT or aoms > _SCALE_LIMIT:
            (phi, phis, om, oms), one = _rescale((phi, phis, om, oms), one, max(aphis, aoms))
    return out


def f_convergent(h: CFunctionHandle, z: Scalar) -> Scalar:
    """The depth-th convergent of the circle-side transform at z; exactly 1 at z = 0."""
    return _f_tail(h, z)[-1]


def f_value(h: CFunctionHandle, z: Scalar) -> tuple[Scalar, float]:
    """Convergent plus a plateau error estimate |c_depth - c_{depth-10}|."""
    tail = _f_tail(h, z)
    back = tail[max(len(tail) - 11, 0)]
    return tail[-1], abs(tail[-1] - back)


def fs_bridge_check(rc: RealRecurrence, x: Scalar, depth: int | None = None,
                    vs: VerblunskySeq | None = None) -> float:
    """Residual |F(z) - (1 - z^2)/(2z) * S(x)| at z = x - sqrt(x^2 - 1)."""
    if depth is None:
        depth = default_depth()
    from .szego import map_x_to_z

    z = map_x_to_z(x)
    if vs is None:
        vs = geronimus_inverse(rc, (depth + 1) // 2 + 1)
    f = f_convergent(CFunctionHandle(vs, depth), z)
    s = s_convergent(SFunctionHandle(rc, depth), x)
    return abs(f - (1.0 - z * z) / (2.0 * z) * s)


# ---------------------------------------------------------------------------
# Transfer matrices


def matrix_B_assoc(rc: RealRecurrence, k: int) -> PolyMatrix2:
    """Transfer matrix of the order-k associated line family:

        [[ P_k,        -P'_{k-1} ],
         [ d_k P_{k-1}, -d_k P'_{k-2} ]]

    with P' the order-1 associated family (P'_{-1} = 0 for k = 1).
    """
    if k < 1:
        raise ValueError("association order must be >= 1")
    p = oprl_polys(rc, k)
    p1 = oprl_polys(shift_coefficients(rc, 1), max(k - 1, 0))
    dk = rc.d_at(k)
    p1_km1 = p1[k - 1] if k - 1 >= 0 else Poly()
    p1_km2 = p1[k - 2] if k - 2 >= 0 else Poly()
    return PolyMatrix2(p[k], p1_km1.scale(-1), p[k - 1].scale(dk), p1_km2.scale(-dk))


def matrix_B_antiassoc(rc: RealRecurrence, k: int, pre_b, pre_d) -> PolyMatrix2:
    """Transfer matrix of the order-k anti-associated line family:

        [[ d~_k R_{k-2}, -R_{k-1} ],
         [ d~_k Q_{k-1}, -Q_k     ]]

    with Q the order-k anti-associated family, R the order-(k-1) one (its
    first associated), and d~_k the k-th entry of Q, i.e. the innermost
    prepended pair.  Derived as the adjugate of the associated-family
    relation applied to Q, and validated pointwise against convergents.
    """
    pre_b = tuple(float(v) for v in pre_b)
    pre_d = tuple(float(v) for v in pre_d)
    k = len(pre_b)
    if k < 1:
        raise ValueError("anti-association order must be >= 1")
    q = oprl_polys(prepend_coefficients(rc, pre_b, pre_d), k)
    r = oprl_polys(prepend_coefficients(rc, pre_b[1:], pre_d[1:]), max(k - 1, 0))
    dk = pre_d[-1]
    r_km2 = r[k - 2] if k - 2 >= 0 else Poly()
    return PolyMatrix2(r_km2.scale(dk), r[k - 1].scale(-1), q[k - 1].scale(dk), q[k].scale(-1))


def matrix_Upsilon_assoc(vs: VerblunskySeq, k: int) -> PolyMatrix2:
    """Transfer matrix of the order-k associated circle family:

        [[ Phi_k + Phi*_k, Omega_k - Omega*_k ],
         [ Phi_k - Phi*_k, Omega_k + Omega*_k ]]

    (k = 0 gives twice the identity, an identity homography).
    """
    if k < 0:
        raise ValueError("association order must be >= 0")
    phi, phis = opuc_polys(vs, k)
    om, oms = opuc_polys(second_kind(vs), k)
    return PolyMatrix2(phi[k] + phis[k], om[k] - oms[k], phi[k] - phis[k], om[k] + oms[k])


def matrix_Upsilon_antiassoc(vs: VerblunskySeq, xi) -> PolyMatrix2:
    """Transfer matrix of the order-k anti-associated circle family
    (k = len(xi)), built from the prepended sequence's own polynomials:

        [[ Om~_k + Om~*_k, Om~*_k - Om~_k ],
         [ Phi~*_k - Phi~_k, Phi~_k + Phi~*_k ]].
    """
    xi = tuple(complex(v) for v in xi)
    k = len(xi)
    tilde = prepend_verblunsky(vs, xi)
    phi, phis = opuc_polys(tilde, k)
    om, oms = opuc_polys(second_kind(tilde), k)
    return PolyMatrix2(om[k] + oms[k], oms[k] - om[k], phis[k] - phi[k], phi[k] + phis[k])


# ---------------------------------------------------------------------------
# Conjugation across the bridge


def _need_vs(family, depth: int) -> VerblunskySeq:
    """Circle data for either input kind (derived through the bridge if needed)."""
    if isinstance(family, VerblunskySeq):
        return family
    if isinstance(family, RealRecurrence):
        return geronimus_inverse(family, (depth + 1) // 2 + 1)
    raise TypeError(f"expected RealRecurrence or VerblunskySeq, got {type(family)!r}")


def _need_rc(family, depth: int) -> RealRecurrence:
    """Line data for either input kind (derived through the bridge if needed)."""
    if isinstance(family, RealRecurrence):
        return family
    if isinstance(family, VerblunskySeq):
        return geronimus_forward(family, depth)
    raise TypeError(f"expected RealRecurrence or VerblunskySeq, got {type(family)!r}")


def szego_conjugate_check(m: PolyMatrix2, original, transformed, z: Scalar,
                          side: str = "line", depth: int | None = None) -> float:
    """Residual of the conjugated transfer identity at the point z (|z| < 1).

    side="line": m acts on weighted circle transforms with weight
    w = 2z/(1 - z^2) and argument x = (z + 1/z)/2,

        w F_new(z) = m(x) . (w F_orig(z)).

    side="circle": m acts on weighted line transforms with weight
    s = sqrt(x^2 - 1) = (1/z - z)/2 and argument z itself,

        s S_new(x) = m(z) . (s S_orig(x)).

    `original` / `transformed` may each be a RealRecurrence or a
    VerblunskySeq; the missing half of the pair is derived through the
    bridge.
    """
    if depth is None:
        depth = default_depth()
    z = complex(z)
    if z == 0 or abs(z) >= 1.0 - SUPPORT_MARGIN:
        raise EvaluationDomain(f"z = {z!r} must satisfy 0 < |z| < 1")
    x = 0.5 * (z + 1.0 / z)
    if side == "line":
        w = 2.0 * z / (1.0 - z * z)
        f_o = f_convergent(CFunctionHandle(_need_vs(original, depth), depth), z)
        f_n = f_convergent(CFunctionHandle(_need_vs(transformed, depth), depth), z)
        rhs = homography_apply(m, w * f_o, x)
        return abs(w * f_n - rhs)
    if side == "circle":
        s = 0.5 * (1.0 / z - z)  # the branch with z = x - s
        s_o = s_convergent(SFunctionHandle(_need_rc(original, depth), depth), x)
        s_n = s_convergent(SFunctionHandle(_need_rc(transformed, depth), depth), x)
        rhs = homography_apply(m, s * s_o, z)
        return abs(s * s_n - rhs)
    raise ValueError(f"side must be 'line' or 'circle', got {side!r}")


# ---------------------------------------------------------------------------
# Explicit low-order corollary formulas


def corollary_fixtures() -> dict:
    """The four explicit low-order formulas as evaluable closures.

    assoc_order1_cfun(z, f, b1, d1)
        Transformed circle transform of the order-1 associated line family
        from the second-kind value 1/f:
        [-(1-z^2)^2 / f + (1-z^2)(z^2 - 2 b1 z + 1)] / (4 d1 z^2).

    antiassoc_order1_cfun_secondkind(z, f, b1_new, d1_new)
        Reciprocal transform of the order-1 anti-associated family,
        [4 d1_new z^2 f - (1-z^2)(z^2 - 2 b1_new z + 1)] / (-(1-z^2)^2),
        with (b1_new, d1_new) the prepended pair.

    assoc_order2_sfun_matrix(b1, alpha1)
        Matrix [[x - b1, -1], [(lam-1)(1-x^2), (lam-1)(x + b1)]] with
        lam = 2/(1 - alpha1): the order-2 associated circle family seen
        from the line.

    antiassoc_order2_sfun_matrix(xi0, xi1)
        Matrix [[x + xi0, K], [x^2 - 1, K (x - xi0)]] with
        K = (1 - xi1)/(1 + xi1): the order-2 anti-associated circle family
        seen from the line, obtained by reducing the order-2 transfer
        matrix with z^2 + 1 = 2xz and 1 - z^2 = 2z sqrt(x^2 - 1).
    """

    def assoc_order1_cfun(z: Scalar, f: Scalar, b1: float, d1: float) -> Scalar:
        omega = 1.0 / f
        top = -((1 - z * z) ** 2) * omega + (1 - z * z) * (z * z - 2 * b1 * z + 1)
        return top / (4 * d1 * z * z)

    def antiassoc_order1_cfun_secondkind(z: Scalar, f: Scalar,
                                         b1_new: float, d1_new: float) -> Scalar:
        top = 4 * d1_new * z * z * f - (1 - z * z) * (z * z - 2 * b1_new * z + 1)
        return top / (-((1 - z * z) ** 2))

    def assoc_order2_sfun_matrix(b1: float, alpha1: float) -> PolyMatrix2:
        lam = 2.0 / (1.0 - alpha1)
        return PolyMatrix2(
            Poly((-b1, 1)),
            P_ONE.scale(-1),
            Poly(((lam - 1), 0, -(lam - 1))),
            Poly(((lam - 1) * b1, lam - 1)),
        )

    def antiassoc_order2_sfun_matrix(xi0: float, xi1: float) -> PolyMatrix2:
        kfac = (1.0 - xi1) / (1.0 + xi1)
        return PolyMatrix2(
            Poly((xi0, 1)),
            Poly((kfac,)),
            Poly((-1, 0, 1)),
            Poly((-kfac * xi0, kfac)),
        )

    return {
        "assoc_order1_cfun": assoc_order1_cfun,
        "antiassoc_order1_cfun_secondkind": antiassoc_order1_cfun_secondkind,
        "assoc_order2_sfun_matrix": assoc_order2_sfun_matrix,
        "antiassoc_order2_sfun_matrix": antiassoc_order2_sfun_matrix,
    }


def _row(point: Scalar, lhs: Scalar, rhs: Scalar) -> dict:
    return {
        "point": [point.real, point.imag],
        "lhs": [lhs.real, lhs.imag],
        "rhs": [rhs.real, rhs.imag],
        "residual": abs(lhs - rhs),
    }


def corollary_rows(depth: int | None = None) -> dict[str, list[dict]]:
    """Evaluate the four explicit formulas on the Chebyshev fixtures and
    emit comparison rows {point, lhs, rhs, residual} per fixture, with the
    rhs always an independent convergent."""
    from .oprl import RealRecurrence, chebyshev_t, chebyshev_u

    if depth is None:
        depth = default_depth()
    fx = corollary_fixtures()
    rows: dict[str, list[dict]] = {}

    vs_u = geronimus_inverse(chebyshev_u(depth + 1), depth + 1)
    h_u = CFunctionHandle(vs_u, depth)
    rows["assoc_order1_cfun"] = [
        _row(z, fx["assoc_order1_cfun"](z, 1.0, 0.0, 0.5), f_convergent(h_u, z))
        for z in (complex(0.05 + 0.04 * i) for i in range(10))
    ]

    pb, pd = 0.3, 0.2
    base = chebyshev_u(depth + 2)
    vs0 = geronimus_inverse(base, depth + 1)
    vs_pre = geronimus_inverse(prepend_coefficients(base, (pb,), (pd,)), depth + 1)
    h0, hp = CFunctionHandle(vs0, depth), CFunctionHandle(vs_pre, depth)
    rows["antiassoc_order1_cfun_secondkind"] = [
        _row(z,
             fx["antiassoc_order1_cfun_secondkind"](z, f_convergent(h0, z), pb, pd),
             1.0 / f_convergent(hp, z))
        for z in (0.2 + 0j, 0.35 + 0j, -0.3 + 0j, 0.1 + 0.2j)
    ]

    vs_u2 = geronimus_inverse(chebyshev_u(depth + 2), depth + 2)
    m2 = fx["assoc_order2_sfun_matrix"](0.0, vs_u2.at(1).real)
    h_su = SFunctionHandle(chebyshev_u(depth + 2), depth)
    shifted = SFunctionHandle(
        RealRecurrence((0.0,) * (depth + 2), (1 / 3,) + (0.25,) * (depth + 1)), depth)
    rows["assoc_order2_sfun_matrix"] = [
        _row(x, homography_apply(m2, s_convergent(h_su, x), x),
             s_convergent(shifted, x))
        for x in (2.0 + 0j, -1.8 + 0j, 2.5 + 0j)
    ]

    xi0, xi1 = 0.3, -0.5
    m3 = fx["antiassoc_order2_sfun_matrix"](xi0, xi1)
    vs_z = VerblunskySeq((0.0,) * (2 * depth + 6))
    h_t = SFunctionHandle(chebyshev_t(depth + 2), depth)
    h_pre = SFunctionHandle(
        geronimus_forward(prepend_verblunsky(vs_z, (xi0, xi1)), depth + 2), depth)
    rows["antiassoc_order2_sfun_matrix"] = [
        _row(x, homography_apply(m3, s_convergent(h_t, x), x),
             s_convergent(h_pre, x))
        for x in (2.0 + 0j, -1.8 + 0j, 2.5 + 0j)
    ]
    return rows
