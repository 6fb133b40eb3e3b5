import cmath
import math
import pickle
from fractions import Fraction

import pytest

from ortho_szego.errors import AlphaOutOfRange, ComplexAlpha, InvalidXi
from ortho_szego.opuc import (
    VerblunskySeq,
    kappa,
    opuc_eval,
    prepend_verblunsky,
    second_kind,
    shift_verblunsky,
)
from ortho_szego.perturb import ORACLE, KModification, copuc_apply, coprl_verblunsky, sieve
from ortho_szego.szego import (
    alpha_from_v,
    geronimus_forward,
    geronimus_inverse,
    v_from_alpha,
)

from conftest import random_alpha


def u_pattern(n: int) -> VerblunskySeq:
    """(0, -1/2, 0, -1/3, 0, -1/4, ...): the circle side of the second-kind
    Chebyshev coefficients (derived in the bridge tests)."""
    return VerblunskySeq(tuple(
        0.0 if k % 2 == 0 else -1.0 / (k // 2 + 2) for k in range(n)
    ))


def test_modulus_invariant_enforced():
    with pytest.raises(AlphaOutOfRange):
        VerblunskySeq((0.2, 1.0))


@pytest.mark.parametrize("alpha", [
    (math.nan, 0.2),
    (0.2, math.nan),
    (complex(math.nan, 0.1), 0.2),
    (0.2, complex(0.1, math.nan)),
    (0.2, 0.8 + 0.8j),
], ids=["float-nan-first", "float-nan-later", "complex-nan-real", "complex-nan-imag",
        "complex-outside"])
def test_modulus_guard_rejects(alpha):
    with pytest.raises(AlphaOutOfRange, match="alpha_[01]"):
        VerblunskySeq(alpha)


# Real input must stay float-stored through every constructor that can
# keep it real, so that no kernel pays a complex round trip for real data.
_REAL = VerblunskySeq((0.3, -0.2, 0.1, 0.4))
_RC = geronimus_forward(_REAL, 2)


@pytest.mark.parametrize("build", [
    lambda: geronimus_inverse(_RC, 2),
    lambda: alpha_from_v(v_from_alpha(_REAL)),
    lambda: coprl_verblunsky(_RC, 1, 0.9, 0.05, 2),
    lambda: coprl_verblunsky(_RC, 1, 0.9, 0.05, 2, path=ORACLE),
    lambda: sieve(_REAL, 2),
    lambda: prepend_verblunsky(_REAL, (0.1, -0.2)),
    lambda: copuc_apply(_REAL, KModification(1, 0.5)),
    lambda: shift_verblunsky(_REAL, 1),
    lambda: second_kind(_REAL),
], ids=["geronimus_inverse", "alpha_from_v", "coprl_closed_form", "coprl_oracle", "sieve",
        "prepend_verblunsky", "copuc_apply", "shift_verblunsky", "second_kind"])
def test_real_data_stays_float_stored(build):
    vs = build()
    assert len(vs) >= 3
    assert all(type(a) is float for a in vs.alpha)
    assert vs.real_view() is vs.alpha


@pytest.mark.parametrize("build", [
    lambda: VerblunskySeq((0.5, 0)),  # an int is not a float
    lambda: VerblunskySeq((0.5, 0.25j)),
    lambda: sieve(VerblunskySeq((0.5 + 0j,)), 2),
    lambda: prepend_verblunsky(_REAL, (0.1j,)),
    lambda: prepend_verblunsky(_REAL, (0,)),
    lambda: copuc_apply(_REAL, KModification(1, 0.5 + 0j)),
], ids=["int", "complex", "sieve", "prepend_verblunsky", "prepend_int", "copuc_apply"])
def test_mixed_input_is_complex_stored(build):
    assert all(type(a) is complex for a in build().alpha)


def test_prepended_entry_of_modulus_one_once_stored_is_refused():
    # |xi_1| < 1 as a Fraction, but 1.0 once stored as a complex
    with pytest.raises(AlphaOutOfRange) as info:
        prepend_verblunsky(_REAL, (0.5, -Fraction(10**20 - 1, 10**20)))
    assert str(info.value) == "|alpha_1| = 1.0 >= 1"


def test_storage_kinds_compare_hash_print_and_pickle_alike():
    real = VerblunskySeq((0.5, -0.25, 0.0))
    cplx = VerblunskySeq((0.5 + 0j, -0.25 + 0j, 0j))
    assert type(real.alpha[0]) is float and type(cplx.alpha[0]) is complex
    assert real == cplx and hash(real) == hash(cplx)
    assert repr(real) == repr(cplx) == "VerblunskySeq(alpha=((0.5+0j), (-0.25+0j), 0j))"
    assert real.real_view() == cplx.real_view() == (0.5, -0.25, 0.0)
    assert all(type(a) is float for a in cplx.real_view())
    for vs in (real, cplx):
        again = pickle.loads(pickle.dumps(vs))
        assert again == vs and list(map(type, again.alpha)) == list(map(type, vs.alpha))


def test_lebesgue_powers():
    vs = VerblunskySeq((0.0, 0.0, 0.0))
    phi, star = opuc_eval(vs, 3, 0.5)
    assert phi == [1, 0.5, 0.25, 0.125]
    assert star == [1, 1, 1, 1]


def test_two_step_value():
    # alpha = (0, -1/2): Phi_2 = z^2 + 1/2, so Phi_2(i) = -1/2
    vs = VerblunskySeq((0.0, -0.5))
    phi, _ = opuc_eval(vs, 2, 1j)
    assert phi[2] == pytest.approx(-0.5)


def test_phi_at_zero_and_star_at_zero(rng):
    vs = random_alpha(rng, 6)
    for n in range(1, 7):
        phi, star = opuc_eval(vs, n, 0j)
        assert phi[n] == pytest.approx(-vs.at(n - 1).conjugate(), abs=1e-15)
        assert star[n] == 1.0


def test_modulus_identity_on_circle(rng):
    vs = VerblunskySeq(tuple(
        complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(5)
    ))
    for _ in range(20):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        phi, star = opuc_eval(vs, 5, z)
        for n in range(6):
            assert abs(phi[n]) == pytest.approx(abs(star[n]), rel=1e-12)


def reversed_identity_holds(vs, n, z, rtol=1e-12):
    """Phi*_n(z) = z^n conj(Phi_n(1/conj(z))), on opuc_eval's two outputs."""
    z = complex(z)
    phi_at_inv, _ = opuc_eval(vs, n, 1.0 / z.conjugate())
    _, star = opuc_eval(vs, n, z)
    lhs, rhs = star[n], z**n * phi_at_inv[n].conjugate()
    return abs(lhs - rhs) <= rtol * max(abs(lhs), abs(rhs), 1.0)


def test_reversed_poly_lebesgue():
    vs = VerblunskySeq((0.0, 0.0, 0.0))
    assert reversed_identity_holds(vs, 3, 0.7 + 0.2j)


def test_reversed_poly_direct_expansion():
    # alpha = (0, -1/2): Phi*_2 = 1 + z^2/2, both routes give 3 at z = 2
    vs = VerblunskySeq((0.0, -0.5))
    _, star = opuc_eval(vs, 2, 2.0)
    assert star[2] == pytest.approx(3.0)
    assert reversed_identity_holds(vs, 2, 2.0)


def test_reversed_poly_random(rng):
    vs = VerblunskySeq(tuple(
        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(6)
    ))
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if z == 0:
            continue
        assert reversed_identity_holds(vs, 6, z)


def test_second_kind_negates_and_involutes():
    vs = VerblunskySeq((0.0, -0.5))
    assert second_kind(vs).alpha == (0, 0.5)
    assert second_kind(second_kind(vs)) == vs
    leb = VerblunskySeq((0.0,) * 4)
    assert second_kind(leb) == leb


def test_shift_examples():
    vs = u_pattern(8)
    assert shift_verblunsky(vs, 0) == vs
    assert shift_verblunsky(vs, 2).alpha[:4] == (0, -1 / 3, 0, -0.25)
    lead = VerblunskySeq((0.0,) * 5)
    assert shift_verblunsky(lead, 1).alpha == (0.0,) * 4


def test_prepend_examples_and_roundtrip(rng):
    vs = VerblunskySeq((0.0,) * 4)
    assert prepend_verblunsky(vs, ()) == vs
    assert prepend_verblunsky(vs, (0.3,)).alpha[:3] == (0.3, 0, 0)
    with pytest.raises(InvalidXi):
        prepend_verblunsky(vs, (1.0,))
    rnd = random_alpha(rng, 5)
    xi = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(3))
    assert shift_verblunsky(prepend_verblunsky(rnd, xi), 3) == rnd


def test_kappa_values():
    assert kappa(VerblunskySeq((0.0,) * 4), 4) == 1.0
    assert kappa(VerblunskySeq((0.0, -0.5)), 2) == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert kappa(VerblunskySeq(()), 0) == 1.0


def test_determinant_identity(rng):
    # Classical Wronskian for the monic pair:
    #   Phi_n Omega*_n + Omega_n Phi*_n = 2 z^n / kappa_n^2.
    # (Hand check at n = 1: (z - conj(a))(1 + a z) + (z + conj(a))(1 - a z)
    #  = 2 z (1 - |a|^2).)
    vs = VerblunskySeq(tuple(
        complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(6)
    ))
    sk = second_kind(vs)
    for _ in range(10):
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        phi, phis = opuc_eval(vs, 6, z)
        om, oms = opuc_eval(sk, 6, z)
        for n in range(7):
            lhs = phi[n] * oms[n] + om[n] * phis[n]
            want = 2 * z**n / kappa(vs, n) ** 2
            assert lhs == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_real_view_rejects_complex():
    with pytest.raises(ComplexAlpha):
        VerblunskySeq((0.1 + 0.2j,)).real_view()
