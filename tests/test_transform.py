"""Tests for the congruence-subgroup bookkeeping and multiplier algebra."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from math import gcd

import pytest

import qsift.transform
from qsift.arith import ExactScalar, dedekind_sum
from qsift.transform import (
    BadMatrix,
    BadQ,
    BadUnit,
    BDivisibleBySix,
    NonInvertibleA,
    ParityMismatch,
    Progression,
    SuiteResult,
    UnimodularMatrix,
    _cancellation_phase,
    constancy_check,
    coverage_target,
    cusp_decompose,
    cusp_half_leading,
    cusp_identity,
    cusp_one_leading,
    cusp_q_ok,
    decompose_upper,
    eta_multiplier,
    eta_numeric,
    eta_transform_defect,
    good_progression_support_vanishes,
    good_residues,
    identity_suites,
    is_good,
    level_constant,
    level_constant_eta,
    mock_multiplier,
    omega_multiplier_even_c,
    omega_multiplier_even_d,
    orbit,
    phase_cancellation_check,
    q_divisor,
    random_unimodular,
    refine_to_good,
    t_image,
)

ONE = ExactScalar.one()


def good_ts(m, kind):
    return [t for t in range(m) if is_good(Progression(m, t), kind)]


# ----------------------------------------------------------- level data


def test_level_constant():
    assert level_constant(5) == 10
    assert level_constant(2) == 16
    assert level_constant(6) == 144
    assert level_constant(3) == 18
    assert level_constant(1) == 2


def test_level_constant_eta():
    assert level_constant_eta(5) == 5
    assert level_constant_eta(3) == 9
    assert level_constant_eta(4) == 32
    assert level_constant_eta(6) == 144


def test_q_divisor():
    assert q_divisor(12, 5) == 1
    assert q_divisor(12, 2) == 4
    assert q_divisor(12, 3) == 3
    assert q_divisor(10, -1) == 5
    with pytest.raises(BDivisibleBySix):
        q_divisor(12, 6)


# ------------------------------------------------------------- goodness


def test_is_good_examples():
    assert is_good(Progression(5, 1), "f")
    assert not is_good(Progression(1, 0), "f")
    assert is_good(Progression(5, 0), "omega")
    assert not is_good(Progression(5, 4), "f")  # 1 - 96 = -95 = 0 mod 5


def test_good_set_mod5():
    assert good_ts(5, "f") == [1, 2]
    assert good_ts(5, "omega") == [0, 2]


def test_good_residues():
    assert good_residues(1, "f") == good_residues(1, "omega") == [0]
    for m in range(2, 40):
        for kind in ("f", "omega"):
            assert good_residues(m, kind) == good_ts(m, kind)


@pytest.mark.parametrize(
    "m, kind, message",
    [
        (1, "x", "unknown kind 'x'"),
        (1, "eta", "kind 'eta' needs B"),
        (0, "f", "m must be positive"),
        (-3, "f", "m must be positive"),
        (0, "x", "m must be positive"),
    ],
)
def test_good_residues_validates_before_the_m_1_shortcut(m, kind, message):
    # as at m = 5: a bad kind or a nonpositive m is an error, never [0] or []
    with pytest.raises(ValueError, match=re.escape(message)):
        good_residues(m, kind)


def test_refine_to_good_from_trivial():
    refined = refine_to_good(Progression(1, 0), "f")
    assert refined == Progression(5, 1)
    assert is_good(refined, "f")


def test_refine_preserves_progression():
    rng = random.Random(0)
    for kind in ("f", "omega"):
        for _ in range(15):
            m = rng.randint(1, 12)
            p = Progression(m, rng.randrange(m))
            refined = refine_to_good(p, kind)
            assert is_good(refined, kind)
            assert refined.m % p.m == 0
            assert refined.t % p.m == p.t  # sub-progression of the original


def test_refine_is_identity_on_good():
    p = Progression(5, 1)
    assert refine_to_good(p, "f") is p


# ------------------------------------------------------ decompose_upper


def test_decompose_identity_matrix():
    dec = decompose_upper(UnimodularMatrix(1, 0, 0, 1), 5, 2)
    assert dec.lambda_prime == 2
    assert dec.a_lambda == UnimodularMatrix(1, 0, 0, 1)


def test_decompose_worked_example():
    dec = decompose_upper(UnimodularMatrix(1, 0, 10, 1), 5, 1)
    assert dec.lambda_prime == 1
    assert dec.a_lambda == UnimodularMatrix(11, -2, 50, -9)


def test_decompose_requires_invertible_a():
    with pytest.raises(NonInvertibleA):
        decompose_upper(UnimodularMatrix(5, 2, 12, 5), 5, 1)


def test_decompose_factorization_and_bijection():
    rng = random.Random(1)
    for _ in range(25):
        m = rng.randint(1, 9)
        A = random_unimodular(rng, level_constant(m), 2)
        if gcd(A.a, m) != 1:
            continue
        images = []
        for lam in range(m):
            dec = decompose_upper(A, m, lam)
            lam_p = dec.lambda_prime
            al = dec.a_lambda
            # (1 lam; 0 m) A == A_lam (1 lam'; 0 m)
            lhs = (
                A.a + lam * A.c,
                A.b + lam * A.d,
                m * A.c,
                m * A.d,
            )
            rhs = (
                al.a,
                al.a * lam_p + al.b * m,
                al.c,
                al.c * lam_p + al.d * m,
            )
            assert lhs == rhs
            assert al.a * al.d - al.b * al.c == 1
            images.append(lam_p)
        assert sorted(images) == list(range(m))


# -------------------------------------------------------------- t_image


def test_t_image_examples():
    assert t_image(5, Progression(7, 0), "f") == 6
    assert t_image(1, Progression(9, 4), "f") == 4
    assert t_image(1, Progression(9, 4), "omega") == 4
    assert t_image(5, Progression(7, 0), "eta", B=-1) == 6


def test_t_image_guards():
    with pytest.raises(BadUnit):
        t_image(3, Progression(5, 0), "f")
    with pytest.raises(BadUnit):
        t_image(6, Progression(5, 0), "omega")
    with pytest.raises(ValueError):
        t_image(5, Progression(5, 0), "eta")


# ---------------------------------------------------------------- orbit


def test_orbit_singleton_needs_square_fixed_point():
    # m coprime to 6: Q = m, so the guaranteed coverage is the single
    # residue t itself, always inside the orbit
    for m in (5, 7, 11):
        for t in range(m):
            p = Progression(m, t)
            assert coverage_target(p, "f") == {t}
            assert t in orbit(p, "f")


def test_orbit_f_mod10():
    p = Progression(10, 0)
    assert coverage_target(p, "f") == {0, 5}
    assert orbit(p, "f") == {0, 3, 5, 8}


def test_orbit_omega_mod9():
    # stripping the 3-part leaves Q = 1: the orbit covers every residue
    p = Progression(9, 0)
    assert coverage_target(p, "omega") == set(range(9))
    assert orbit(p, "omega") == set(range(9))


def test_orbit_omega_takes_only_units():
    # the units mod 15 square to 1 and 4, giving 0 and 2; residue 1 came
    # only from a = 5 and a = 10, which are prime to 3 but not units mod 5
    p = Progression(5, 0)
    assert orbit(p, "omega") == {0, 2}
    assert t_image(5, p, "omega") == t_image(10, p, "omega") == 1


def test_orbit_builds_the_unit_squares_once_per_window():
    squares = qsift.transform._unit_squares
    squares.cache_clear()
    for t in range(30):
        p = Progression(30, t)
        orbit(p, "f")
        orbit(p, "eta", -5)  # beta = -24 as for f: the same window, 720
        orbit(p, "omega")  # window 90
    assert squares.cache_info()[:2] == (88, 2)  # (hits, misses)
    assert sorted(squares(90)) == [1, 19, 31, 49, 61, 79]


def test_orbit_coverage_exhaustive_small():
    for m in range(1, 25):
        for t in range(m):
            p = Progression(m, t)
            assert coverage_target(p, "f") <= orbit(p, "f")
            assert coverage_target(p, "omega") <= orbit(p, "omega")
            assert coverage_target(p, "eta", -5) <= orbit(p, "eta", -5)


# ------------------------------------------- one linear form vs the oracles

# f, omega, and eta with B in each class gcd(B, 6) = 1, 2, 3, of both signs
FORM_KINDS = [("f", None), ("omega", None)] + [
    ("eta", B) for B in (-5, 7, -2, 4, -3, 9)
]


@pytest.mark.parametrize("kind,B", FORM_KINDS)
def test_unit_action_matches_per_kind_formulas(transform_oracle, kind, B):
    # every t mod m <= 40 and every a of the orbit window 1..|beta|m: the
    # image of each a prime to beta, the orbit over the oracle's units and
    # the coverage target equal the explicit per-kind formulas
    beta = 3 if kind == "omega" else 24
    for m in range(1, 41):
        window = range(1, beta * m + 1)
        admissible = [a for a in window if gcd(a, beta) == 1]
        units = set(transform_oracle.orbit_units(m, kind))
        for t in range(m):
            p = Progression(m, t)
            expected = [transform_oracle.t_image(a, m, t, kind, B) for a in admissible]
            assert [t_image(a, p, kind, B) for a in admissible] == expected, p
            images = {x for a, x in zip(admissible, expected) if a in units}
            assert orbit(p, kind, B) == images, p
            target = transform_oracle.coverage_target(m, t, kind, B)
            assert coverage_target(p, kind, B) == target, p
        for a in window:
            if gcd(a, beta) != 1:
                with pytest.raises(BadUnit):
                    t_image(a, Progression(m, 0), kind, B)


@pytest.mark.parametrize("kind", ["f", "omega"])
def test_goodness_matches_per_kind_formulas(transform_oracle, kind):
    for m in range(1, 41):
        assert good_residues(m, kind) == transform_oracle.good_residues(m, kind)
        for t in range(m):
            p = Progression(m, t)
            assert is_good(p, kind) == transform_oracle.is_good(m, t, kind), p
            assert good_progression_support_vanishes(
                p, kind
            ) == transform_oracle.support_vanishes(m, t, kind), p
    for m in range(1, 31):
        for t in range(m):
            refined = refine_to_good(Progression(m, t), kind)
            assert (refined.m, refined.t) == transform_oracle.refine_to_good(m, t, kind)


def test_linear_form_errors():
    p = Progression(10, 3)
    with pytest.raises(BadUnit):
        t_image(4, p, "f")  # shares 2 with beta = -24
    with pytest.raises(BadUnit):
        t_image(3, p, "eta", B=-5)
    with pytest.raises(BadUnit):
        t_image(9, p, "omega")  # shares 3 with beta = -3
    for B in (6, -12, 0):
        with pytest.raises(BDivisibleBySix):
            q_divisor(10, B)
        with pytest.raises(BDivisibleBySix):
            coverage_target(p, "eta", B)
    for call in (
        lambda: is_good(p, "eta"),
        lambda: t_image(5, p, "eta"),
        lambda: orbit(p, "eta"),
        lambda: coverage_target(p, "eta"),
        lambda: is_good(p, "g"),
        lambda: refine_to_good(Progression(1, 0), "g"),
        lambda: t_image(5, p, "g"),
        lambda: orbit(p, "g"),
        lambda: coverage_target(p, "g"),
        lambda: good_progression_support_vanishes(p, "g"),
        lambda: constancy_check(UnimodularMatrix(1, 0, 20, 1), p, "eta"),
    ):
        with pytest.raises(ValueError):
            call()


# ------------------------------------------------------------ multipliers


def test_mock_multiplier_worked_value():
    # s(-1, 2) = 0; the remaining phases sum to 1/3
    w = mock_multiplier(UnimodularMatrix(1, 0, 2, 1))
    assert w == ExactScalar.unit_phase(Fraction(1, 3))
    assert w**24 == ONE


def test_mock_multiplier_order_24():
    rng = random.Random(2)
    for _ in range(60):
        A = random_unimodular(rng, 2, 15)
        assert mock_multiplier(A) ** 24 == ONE


def test_mock_multiplier_guards():
    with pytest.raises(BadMatrix):
        mock_multiplier(UnimodularMatrix(1, 0, 1, 1))  # odd c
    with pytest.raises(BadMatrix):
        mock_multiplier(UnimodularMatrix(1, 0, -2, 1))  # negative c


def test_omega_multiplier_parity_guards():
    odd_c_odd_d = UnimodularMatrix(2, 1, 1, 1)
    with pytest.raises(ParityMismatch):
        omega_multiplier_even_c(odd_c_odd_d)
    with pytest.raises(ParityMismatch):
        omega_multiplier_even_d(odd_c_odd_d)


def test_omega_multiplier_even_d_worked_value():
    # D0 = (1 -1; 1 0): s(0, 1) = 0, (-1)^(32/24) phase 2/3, i^(1/2) 1/8,
    # final bracket integral: total phase 19/24
    w2 = omega_multiplier_even_d(UnimodularMatrix(1, -1, 1, 0))
    assert w2 == ExactScalar.unit_phase(Fraction(19, 24))


def test_omega_multiplier_phase_denominator():
    rng = random.Random(3)
    for _ in range(40):
        A = random_unimodular(rng, 2, 10)
        phase = omega_multiplier_even_c(A).u
        assert (24 * A.c * A.c) % phase.denominator == 0


def test_eta_multiplier_worked_value():
    nu = eta_multiplier(UnimodularMatrix(1, 0, 1, 1))
    assert nu == ExactScalar.unit_phase(Fraction(1, 12))


def test_eta_multiplier_order_24():
    rng = random.Random(4)
    for _ in range(60):
        A = random_unimodular(rng, 1, 25)
        assert eta_multiplier(A) ** 24 == ONE


MULTIPLIERS = {
    f.__name__: f
    for f in (mock_multiplier, omega_multiplier_even_c, omega_multiplier_even_d, eta_multiplier)
}


def _random_matrix(rng: random.Random, c_max: int) -> UnimodularMatrix:
    """A determinant-1 matrix with 1 <= c <= c_max, d in [-4c, 4c] (d = 0
    only at c = 1) and a of either sign."""
    while True:
        c = rng.randint(1, c_max)
        d = rng.randint(-4 * c, 4 * c)
        if gcd(d, c) == 1:
            a = pow(d, -1, c) + c * rng.randint(-3, 3)
            return UnimodularMatrix(a, (a * d - 1) // c, c, d)


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_multiplier_matches_its_fraction_oracle(multiplier_oracle, name):
    # 2,000 seeded matrices in the variant's domain, c up to 10^3, d of
    # both signs and, where the variant allows it, of both parities
    oracle, multiplier = multiplier_oracle[name], MULTIPLIERS[name]
    rng = random.Random(f"multiplier-oracle:{name}")
    seen = set()
    checked = 0
    while checked < 2000:
        A = _random_matrix(rng, 1000)
        try:
            phase = oracle(*A.entries())
        except (BadMatrix, ParityMismatch):
            continue
        assert multiplier(A) == ExactScalar.unit_phase(phase), A
        seen.add((A.c % 2, A.d % 2, A.d < 0))
        checked += 1
    assert {negative for *_, negative in seen} == {True, False}
    if name == "eta_multiplier":
        assert {(c, d) for c, d, _ in seen} == {(0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("name", sorted(MULTIPLIERS))
def test_multiplier_raises_as_its_oracle_off_its_domain(multiplier_oracle, name):
    # c < 0, c = 0 and the wrong parity raise the oracle's exception type
    oracle, multiplier = multiplier_oracle[name], MULTIPLIERS[name]
    rng = random.Random(f"multiplier-domain:{name}")
    raised = 0
    for _ in range(300):
        A = _random_matrix(rng, 1000)
        sign = rng.choice((1, -1))
        for B in (
            A,
            UnimodularMatrix(-A.a, -A.b, -A.c, -A.d),
            UnimodularMatrix(sign, rng.randint(-9, 9), 0, sign),
        ):
            try:
                oracle(*B.entries())
            except (BadMatrix, ParityMismatch) as exc:
                with pytest.raises(Exception) as info:
                    multiplier(B)
                assert info.type is type(exc), B
                raised += 1
    assert raised >= 600


def test_dedekind_integrality_for_unimodular():
    rng = random.Random(5)
    for _ in range(500):
        A = random_unimodular(rng, 1, 40)
        value = 12 * dedekind_sum(-A.d, A.c) + Fraction(A.a + A.d, A.c)
        assert value.denominator == 1


def test_dedekind_shift_parity():
    rng = random.Random(6)
    for _ in range(100):
        m = rng.randint(1, 8)
        A = random_unimodular(rng, level_constant(m), 2, prime_to=3)
        residual = (
            dedekind_sum(A.d + A.c, m * A.c)
            - dedekind_sum(A.d, m * A.c)
            - Fraction(1 - A.a * A.a, 12 * m)
        )
        assert residual.denominator == 1 and residual.numerator % 2 == 0


# ------------------------------------------------------------- constancy


@pytest.mark.parametrize("kind", ["f", "omega"])
def test_constancy_singletons(kind):
    rng = random.Random(f"constancy:{kind}")
    level_factor = 1 if kind == "f" else 2
    prime_to = 6 if kind == "f" else 3
    for _ in range(25):
        m = rng.choice((5, 7, 10, 11, 13, 14))
        p = Progression(m, rng.choice(good_ts(m, kind)))
        level = level_factor * level_constant(m)
        A = random_unimodular(rng, level, 1, prime_to=prime_to)
        values = constancy_check(A, p, kind)
        assert len(values) == 1
        assert next(iter(values)) ** (24 * m) == ONE


@pytest.mark.parametrize("kind", ["f", "omega"])
@pytest.mark.parametrize("m", [5, 7, 10, 11, 13, 14, 35, 1, 2, 3, 4, 6, 12, 24])
def test_constancy_is_the_set_of_per_lambda_products(kind, m):
    # the set built scalar by scalar from the public multiplier, on good
    # and other residues alike; every residue for the m dividing 24
    rng = random.Random(f"constancy-products:{kind}:{m}")
    if kind == "f":
        level, prime_to, shift = level_constant(m), 6, Fraction(-1, 24)
        multiplier = mock_multiplier
    else:
        level, prime_to, shift = 2 * level_constant(m), 3, Fraction(2, 3)
        multiplier = omega_multiplier_even_c
    for _ in range(4):
        A = random_unimodular(rng, level, 3, prime_to=prime_to)
        for t in range(m) if 24 % m == 0 else rng.sample(range(m), 3):
            p = Progression(m, t)
            t_a = t_image(A.a, p, kind)
            expected = set()
            for lam in range(m):
                dec = decompose_upper(A, m, lam)
                phase = (-lam * (t + shift) + dec.lambda_prime * (t_a + shift)) / m
                expected.add(multiplier(dec.a_lambda) * ExactScalar.unit_phase(phase))
            assert constancy_check(A, p, kind) == expected, (A, p)


def test_constancy_trivial_m1():
    A = random_unimodular(random.Random(7), level_constant(1), 1, prime_to=6)
    values = constancy_check(A, Progression(1, 0), "f")
    assert len(values) == 1


def test_constancy_rejects_wrong_level():
    A = UnimodularMatrix(1, 0, 2, 1)
    with pytest.raises(BadMatrix):
        constancy_check(A, Progression(5, 1), "f")  # needs 10 | c


# ---------------------------------------------------- sign cancellation


def test_sign_cancellation_holds():
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(1, 8)
        A = random_unimodular(rng, level_constant(m), 2, prime_to=6)
        lam = rng.randrange(m)
        assert phase_cancellation_check(A, m, lam)


def test_sign_cancellation_trivial_case():
    A = random_unimodular(random.Random(9), level_constant(1), 1, prime_to=6)
    assert phase_cancellation_check(A, 1, 0)


def test_cancellation_phase_matches_fraction_oracle(cancellation_oracle):
    # the integer numerator over 8 against the Fraction sum through
    # decompose_upper, with and without the curvature term
    rng = random.Random(11)
    for _ in range(5000):
        m = rng.randint(1, 13)
        A = random_unimodular(rng, level_constant(m), 3)
        lam = rng.randrange(m)
        for curvature in (True, False):
            expected = cancellation_oracle(A, m, lam, curvature)
            assert _cancellation_phase(A, m, lam, curvature) == expected, (A, m, lam)


def test_pass_upper_checks_the_determinant():
    # (2 0; 0 1) divides through for m = 1, but A_0 keeps its determinant 2
    message = "determinant of (2, 0, 0, 1) is not 1"
    with pytest.raises(BadMatrix, match=re.escape(message)):
        qsift.transform._pass_upper(2, 0, 0, 1, 1, 0, 0)


def test_cancellation_phase_checks_match_decompose_upper(cancellation_oracle):
    # the errors decompose_upper raises, raised the same way without it
    A = UnimodularMatrix(5, 2, 12, 5)
    cases = [(A, 5, 1), (A, 5, 5), (A, 5, -1), (UnimodularMatrix(1, 0, 2, 1), 5, 1)]
    for args in cases:
        with pytest.raises(Exception) as expected:
            cancellation_oracle(*args)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            _cancellation_phase(*args)


def test_corrupted_cancellation_fails_somewhere():
    rng = random.Random(10)
    failures = 0
    for _ in range(100):
        m = rng.choice((5, 7, 11, 13))
        A = random_unimodular(rng, level_constant(m), 2, prime_to=6)
        lam = rng.randrange(m)
        if _cancellation_phase(A, m, lam, include_curvature=False) != 0:
            failures += 1
    assert failures > 0


# --------------------------------------------------------- good support


def test_good_progression_support_vanishes():
    for m in (5, 7, 10, 11, 13, 14, 22, 26, 35):
        for kind in ("f", "omega"):
            for t in good_ts(m, kind):
                assert good_progression_support_vanishes(
                    Progression(m, t), kind
                ), (m, t, kind)


def test_non_good_progression_can_fail_support():
    # (1, 0) hits the pentagonal support trivially
    assert not good_progression_support_vanishes(Progression(1, 0), "f")


# ------------------------------------------------------------------ cusp


def test_cusp_decompose_examples():
    dec = cusp_decompose(2, 5, 2)
    assert dec.d_lambda == 5
    assert dec.lambda_star == 0
    assert dec.c_matrix == UnimodularMatrix(1, 2, 2, 5)

    dec = cusp_decompose(4, 5, 1)
    assert dec.d_lambda == 5
    assert dec.lambda_star == 5
    assert dec.c_matrix == UnimodularMatrix(1, -1, 1, 0)


def test_cusp_decompose_factorization():
    for Q in (5, 7, 9, 11, 15):
        for c_entry in (1, 2, 3):
            for lam in range(Q):
                dec = cusp_decompose(lam, Q, c_entry)
                d, ls, C = dec.d_lambda, dec.lambda_star, dec.c_matrix
                qd = Q // d
                # (1 lam; 0 Q)(1 0; c 1) = C (1 ls; 0 qd)(d 0; 0 1)
                lhs = (1 + lam * c_entry, lam, Q * c_entry, Q)
                rhs = (
                    C.a * d,
                    C.a * ls + C.b * qd,
                    C.c * d,
                    C.c * ls + C.d * qd,
                )
                assert lhs == rhs
                if c_entry == 1 and qd % 2 == 1:
                    assert (d - ls) % 2 == 0


def test_cusp_decompose_gives_the_leading_terms_matrices():
    # cusp_half_leading and cusp_one_leading write out C0 and D0; the
    # leading cusps' decompositions must give them, with d_lambda = Q
    for Q in range(1, 400):
        cases = []
        if cusp_q_ok("f", Q):
            cases.append(((Q - 1) // 2, 2, UnimodularMatrix(1, (Q - 1) // 2, 2, Q)))
        if cusp_q_ok("omega", Q):
            cases.append((Q - 1, 1, UnimodularMatrix(1, -1, 1, 0)))
        for lam, c_entry, matrix in cases:
            dec = cusp_decompose(lam, Q, c_entry)
            assert (dec.d_lambda, dec.c_matrix) == (Q, matrix), (Q, lam, c_entry)


def test_cusp_half_leading_powers():
    for Q in (1, 5, 7, 11, 13):
        expected = ExactScalar(Fraction(1, Q) ** (12 * Q))
        ts = [0] if Q == 1 else good_ts(Q, "f")
        assert ts, Q
        for t in ts:
            assert cusp_half_leading(Q, t) ** (24 * Q) == expected


def test_cusp_half_q1_reduces_to_multiplier():
    lead = cusp_half_leading(1, 0)
    assert lead == mock_multiplier(UnimodularMatrix(1, 0, 2, 1))
    assert lead**24 == ONE


def test_cusp_one_leading_powers():
    for Q in (1, 5, 7, 11, 13):
        sign = Fraction(1, 2) if Q % 2 else Fraction(0)
        expected = ExactScalar(Fraction(1, 2 * Q) ** (12 * Q), 1, sign)
        ts = [0] if Q == 1 else good_ts(Q, "omega")
        assert ts, Q
        for t in ts:
            assert cusp_one_leading(Q, t) ** (24 * Q) == expected


def test_cusp_one_q1_value():
    # 24th power is -(2)^(-12): magnitude 1/4096 with the sign in the phase
    value = cusp_one_leading(1, 0) ** 24
    assert value == ExactScalar(Fraction(1, 4096), 1, Fraction(1, 2))


@pytest.mark.parametrize("Q", [1, 2, 4, 5, 7, 11, 13, 25])
def test_cusp_identity_gives_the_literal_powers(Q):
    # the exact values written out here, not read from the library
    sign = Fraction(1, 2) if Q % 2 else Fraction(0)
    cases = [("omega", ExactScalar(Fraction(1, 2 * Q) ** (12 * Q), 1, sign))]
    if Q % 2:
        cases.append(("f", ExactScalar(Fraction(1, Q) ** (12 * Q))))
    for kind, expected in cases:
        for t in range(Q):
            assert cusp_identity(kind, Q, t) == (expected, expected), (kind, Q, t)


def test_cusp_q_ok_is_the_domain_of_both_leading_terms():
    for Q in range(-3, 40):
        assert cusp_q_ok("f", Q) == (Q >= 1 and gcd(Q, 6) == 1)
        assert cusp_q_ok("omega", Q) == (Q >= 1 and Q % 3 != 0)
        for kind, leading in (("f", cusp_half_leading), ("omega", cusp_one_leading)):
            if cusp_q_ok(kind, Q):
                leading(Q, 0)
                continue
            with pytest.raises(BadQ):
                leading(Q, 0)
            with pytest.raises(BadQ):
                cusp_identity(kind, Q, 0)
    with pytest.raises(ValueError, match="unknown kind 'eta'"):
        cusp_identity("eta", 5, 0)


def test_cusp_guards():
    with pytest.raises(BadQ):
        cusp_half_leading(6, 1)
    with pytest.raises(BadQ):
        cusp_one_leading(6, 1)
    with pytest.raises(BadQ):
        cusp_one_leading(9, 1)


# ---------------------------------------------------------- numeric eta


def test_eta_numeric_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    import math

    expected = math.gamma(0.25) / (2 * math.pi**0.75)
    assert abs(eta_numeric(1j) - expected) < 1e-12


def test_eta_numeric_matches_the_per_term_sum(monkeypatch, eta_numeric_oracle):
    # every point the eta-transform-numeric suite evaluates over eight
    # seeds, Im z down to about 0.004, and short sums
    points = []

    def spy(z, terms=200):
        points.append((z, terms))
        return eta_numeric(z, terms)

    monkeypatch.setattr(qsift.transform, "eta_numeric", spy)
    for seed in range(8):
        rng = random.Random(f"{seed}:eta-transform-numeric")
        for _ in range(120):
            qsift.transform._trial_eta_numeric(rng)
    monkeypatch.undo()
    assert len(points) == 1920 and min(z.imag for z, _ in points) < 0.01
    points += [(0.3 + 0.2j, terms) for terms in (0, 1, 2, 5)]
    for z, terms in points:
        assert abs(eta_numeric(z, terms) - eta_numeric_oracle(z, terms)) <= 1e-12, z
    with pytest.raises(ValueError, match="terms must be nonnegative"):
        eta_numeric(1j, -1)


def test_eta_numeric_rejects_points_off_the_upper_half_plane():
    # eta is undefined there and the pentagonal sum diverges or is meaningless
    for z in (0.25, 0.1 - 0.01j, 0j, -1j, 3 - 2j, complex("nan+nanj")):
        with pytest.raises(ValueError, match="Im z > 0"):
            eta_numeric(z)


def test_eta_numeric_stops_within_4_ulp_of_the_full_sum(monkeypatch, eta_full_sum_oracle):
    # every point the eta-transform-numeric suite evaluates over seeds 0-7,
    # then 300 more with Im z from 1e-3 (about 60 terms needed) to e^3
    points = []
    real = qsift.transform.eta_numeric
    monkeypatch.setattr(
        qsift.transform, "eta_numeric", lambda z, terms=200: points.append(z) or real(z, terms)
    )
    for seed in range(8):
        identity_suites(seed, 120)
    monkeypatch.undo()
    assert len(points) == 1920
    rng = random.Random(28)
    for _ in range(300):
        points.append(complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(1e-3), 3))))
    for z in points:
        full = eta_full_sum_oracle(z, 200)
        assert abs(eta_numeric(z, 200) - full) <= 4 * math.ulp(abs(full)), z


def test_eta_transform_numeric():
    rng = random.Random(11)
    for _ in range(50):
        A = random_unimodular(rng, 1, 20)
        x = -A.d / A.c + rng.uniform(-0.3, 0.3)
        z = complex(x, rng.uniform(0.3, 0.5))
        assert eta_transform_defect(A, z) < 1e-9


# --------------------------------------------------------------- suites


def test_identity_suites_all_pass():
    results = identity_suites(trials=25)
    assert all(r.passed for r in results), [
        (r.name, r.first_failure) for r in results if not r.passed
    ]
    assert len(results) == 9


def test_identity_suites_reproducible():
    a = identity_suites(seed=123, trials=10)
    b = identity_suites(seed=123, trials=10)
    assert [(r.name, r.failures) for r in a] == [(r.name, r.failures) for r in b]


# At 120 trials every suite passes for seeds 0-7; the negative control's
# (failures, first failure) for the same seeds.  Recorded with the full
# 200-term eta sum and Fraction unit-phase arithmetic.
RECORDED_NEGATIVE_CONTROL = {
    0: (31, "m=7 lam=3 A=(23 64; 14 39) phase=1/2"),
    1: (30, "m=11 lam=1 A=(25 -83; 22 -73) phase=1/2"),
    2: (25, "m=11 lam=9 A=(1 -4; 22 -87) phase=1/2"),
    3: (33, "m=11 lam=3 A=(43 84; 22 43) phase=1/2"),
    4: (34, "m=11 lam=4 A=(1 3; 22 67) phase=1/2"),
    5: (34, "m=7 lam=3 A=(1 -2; 14 -27) phase=1/2"),
    6: (22, "m=11 lam=4 A=(31 -55; 22 -39) phase=1/2"),
    7: (21, "m=7 lam=3 A=(5 -19; 14 -53) phase=1/2"),
}


def test_identity_suites_match_the_recorded_results():
    names = [
        "dedekind-integrality",
        "mock-multiplier-order-24",
        "dedekind-shift-parity",
        "sign-cancellation",
        "phase-constancy-f",
        "phase-constancy-omega",
        "orbit-coverage",
        "good-progression-support",
        "eta-transform-numeric",
    ]
    for seed, (failures, first) in RECORDED_NEGATIVE_CONTROL.items():
        assert identity_suites(seed, 120) == [SuiteResult(n, 120, 0, None) for n in names]
        control = identity_suites(seed, 120, negative_control=True)
        assert control == [SuiteResult("corrupted-sign-cancellation", 120, failures, first)]


# Each suite's trial's description of its instance at random.Random(0).
TRIAL_DETAILS_AT_SEED_0 = {
    "dedekind-integrality": "A=(4 15; 25 94) value=2",
    "mock-multiplier-order-24": "A=(13 38; 14 41)",
    "dedekind-shift-parity": "m=7 A=(31 -10; 28 -9) residual=14",
    "sign-cancellation": "m=7 lam=6 A=(31 -10; 28 -9)",
    "corrupted-sign-cancellation": "m=13 lam=7 A=(1 1; 52 53) phase=0",
    "phase-constancy-f": "p=Progression(m=35, t=17) A=(41 -140; 70 -239) values=1",
    "phase-constancy-omega": "p=Progression(m=35, t=20) A=(23 80; 140 487) values=1",
    "orbit-coverage": "kind=omega p=Progression(m=27, t=1) B=None",
    "good-progression-support": "kind=omega p=Progression(m=35, t=21)",
    "eta-transform-numeric": (
        "A=(11 38; 13 45) z=(-3.2273921090361832+0.3080968756361555j) defect=1.221e-14"
    ),
}


@pytest.mark.parametrize("name", list(TRIAL_DETAILS_AT_SEED_0))
def test_trial_details_are_unchanged(name):
    trials = dict(qsift.transform._SUITES)
    trials["corrupted-sign-cancellation"] = qsift.transform._trial_corrupted_cancellation
    ok, detail = trials[name](random.Random(0))
    assert ok is True
    assert detail() == TRIAL_DETAILS_AT_SEED_0[name]


def test_only_a_first_failure_is_described(monkeypatch):
    # trial k fails when k % 3 == 1; its description is asked for once per
    # suite, for trial 1
    described = []

    def suite(name):
        count = iter(range(10**6))

        def trial(rng):
            k = next(count)
            return k % 3 != 1, lambda: described.append((name, k)) or f"{name} k={k}"

        return name, trial

    monkeypatch.setattr(qsift.transform, "_SUITES", (suite("a"), suite("b")))
    results = identity_suites(trials=30)
    assert results == [SuiteResult("a", 30, 10, "a k=1"), SuiteResult("b", 30, 10, "b k=1")]
    assert described == [("a", 1), ("b", 1)]


def test_negative_control_detects():
    results = identity_suites(trials=40, negative_control=True)
    assert len(results) == 1
    assert results[0].failures > 0
    assert results[0].first_failure


@pytest.mark.parametrize("trials", [0, -5])
def test_identity_suites_reject_a_nonpositive_trial_count(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        identity_suites(trials=trials)
    with pytest.raises(ValueError, match="trials must be positive"):
        identity_suites(trials=trials, negative_control=True)


# --------------------------------------------------------------- guards


def test_unimodular_matrix_rejects_bad_det():
    with pytest.raises(BadMatrix):
        UnimodularMatrix(1, 1, 1, 1)


def test_progression_normalizes():
    p = Progression(5, 12)
    assert p.t == 2
    with pytest.raises(ValueError):
        Progression(0, 0)


@pytest.mark.parametrize("level", [0, -1])
def test_random_unimodular_rejects_a_nonpositive_level(level):
    # level 0 makes c = 0, for which no draw of d is ever accepted
    with pytest.raises(ValueError, match="level and prime_to must be positive"):
        random_unimodular(random.Random(1), level)


@pytest.mark.parametrize("prime_to", [0, -6])
def test_random_unimodular_rejects_a_nonpositive_prime_to(prime_to):
    with pytest.raises(ValueError, match="level and prime_to must be positive"):
        random_unimodular(random.Random(1), 2, prime_to=prime_to)


def test_random_unimodular_keeps_a_prime_to():
    rng = random.Random(12)
    for prime_to in (1, 3, 6, 35):
        for _ in range(100):
            A = random_unimodular(rng, rng.randint(1, 30), 3, prime_to=prime_to)
            assert A.c > 0 and gcd(A.a, prime_to) == 1


# ----------------------------------------------------------- input checks


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: level_constant(0), ValueError),
        (lambda: level_constant_eta(0), ValueError),
        (lambda: q_divisor(0, 1), ValueError),
        (lambda: phase_cancellation_check(UnimodularMatrix(1, 0, 0, 1), 1, 0), BadMatrix),
        (lambda: phase_cancellation_check(UnimodularMatrix(3, 1, 2, 1), 1, 0), BadUnit),
        (lambda: cusp_decompose(0, 0, 1), ValueError),
        (lambda: cusp_decompose(0, 5, 0), ValueError),
    ],
    ids=[
        "level-constant-0", "level-constant-eta-0", "q-divisor-0", "phase-c-0",
        "phase-a-3", "cusp-q-0", "cusp-c-0",
    ],
)
def test_input_checks(call, error):
    with pytest.raises(error):
        call()
