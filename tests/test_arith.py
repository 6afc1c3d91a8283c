"""Tests for the exact number-theoretic primitives."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsift.arith import (
    _dedekind_12c,
    EvenInput,
    ExactScalar,
    NonCoprimeModuli,
    crt,
    dedekind_sum,
    epsilon_d,
    jacobi,
    is_prime,
    prime_factors,
)


# -------------------------------------------------------------- dedekind


def test_dedekind_empty_sum():
    for d in (-7, 0, 1, 12):
        assert dedekind_sum(d, 1) == 0


def test_dedekind_two_terms():
    # r=1: (1/3-1/2)^2, r=2: (2/3-1/2)^2
    assert dedekind_sum(1, 3) == Fraction(1, 18)


def test_dedekind_odd_in_first_argument():
    rng = random.Random(0)
    for _ in range(40):
        c = rng.randint(2, 60)
        d = rng.randint(1, 200)
        if gcd(d, c) != 1:
            continue
        assert dedekind_sum(-d, c) == -dedekind_sum(d, c)


def test_dedekind_reciprocity_oracle():
    # s(d,c) + s(c,d) = -1/4 + (d/c + c/d + 1/(c d))/12.  dedekind_sum is now
    # computed by this very law, so this is no longer an independent check;
    # the literal-sum oracle (dedekind_oracle) plays that role.
    rng = random.Random(1)
    for _ in range(40):
        c = rng.randint(2, 80)
        d = rng.randint(1, c - 1)
        if gcd(d, c) != 1:
            continue
        lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
        rhs = Fraction(-1, 4) + (
            Fraction(d, c) + Fraction(c, d) + Fraction(1, c * d)
        ) / 12
        assert lhs == rhs


def test_dedekind_matches_literal_sum_exhaustively(dedekind_oracle):
    # every d in [-3c, 3c]: gcd(d, c) > 1, d = 0 (mod c) and negative d
    for c in range(1, 151):
        for d in range(-3 * c, 3 * c + 1):
            assert dedekind_sum(d, c) == dedekind_oracle(d, c), (d, c)


def test_dedekind_matches_literal_sum_at_random(dedekind_oracle):
    rng = random.Random(9)
    for _ in range(150):
        c = rng.randint(1, 20000)
        d = rng.randint(-10**6, 10**6)
        assert dedekind_sum(d, c) == dedekind_oracle(d, c), (d, c)


def test_dedekind_12c_is_the_integer_numerator(dedekind_oracle):
    # 12c s(d, c) is an integer, and dedekind_sum is it over 12c
    for c in range(1, 61):
        for d in range(-3 * c, 3 * c + 1):
            assert _dedekind_12c(d, c) == 12 * c * dedekind_oracle(d, c), (d, c)
    rng = random.Random(11)
    for _ in range(200):
        c = rng.randrange(1, 10**40)
        d = rng.randrange(-(10**40), 10**40)
        assert Fraction(_dedekind_12c(d, c), 12 * c) == dedekind_sum(d, c)


def test_dedekind_laws_at_sixty_digits():
    rng = random.Random(10)
    for _ in range(30):
        c = rng.randrange(10**59, 10**60)
        d = rng.randrange(1, c)
        s = dedekind_sum(d, c)
        assert dedekind_sum(-d, c) == -s
        assert dedekind_sum(d + c, c) == s
        assert dedekind_sum(d - 7 * c, c) == s
        g = rng.randint(2, 10**6)
        assert dedekind_sum(g * d, g * c) == s
        if gcd(d, c) == 1:
            lhs = s + dedekind_sum(c, d)
            rhs = Fraction(-1, 4) + (
                Fraction(d, c) + Fraction(c, d) + Fraction(1, c * d)
            ) / 12
            assert lhs == rhs


def test_dedekind_returns_beyond_a_hundred_digits():
    # the literal O(c) sum could never finish this
    c = 10**101 + 267
    value = dedekind_sum(3**200, c)
    assert (6 * c * c) % value.denominator == 0


def test_dedekind_denominator_bound():
    rng = random.Random(2)
    for _ in range(40):
        c = rng.randint(1, 50)
        d = rng.randint(-100, 100)
        if c > 1 and gcd(d, c) != 1:
            continue
        assert (6 * c * c) % dedekind_sum(d, c).denominator == 0


# ---------------------------------------------------------------- jacobi


def test_jacobi_examples():
    assert jacobi(2, 5) == -1
    assert jacobi(0, 3) == 0
    for n in (1, 3, 5, 7, 9, 15, 21):
        assert jacobi(1, n) == 1


def test_jacobi_euler_criterion_oracle():
    rng = random.Random(3)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        for _ in range(10):
            a = rng.randint(-50, 50)
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if e == 0 else (1 if e == 1 else -1)
            assert jacobi(a, p) == expected


def test_jacobi_multiplicative_in_top():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.choice((3, 5, 9, 15, 21, 35))
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even():
    with pytest.raises(ValueError):
        jacobi(3, 4)


# ------------------------------------------------------------------- crt


def test_crt_examples():
    assert crt([(4, 5), (1, 7)]) == 29
    assert crt([(3, 5)]) == 3
    assert crt([(0, 2), (0, 3)]) == 0


def test_crt_exhaustive_oracle():
    rng = random.Random(5)
    for _ in range(25):
        m1, m2 = rng.choice(((2, 3), (3, 4), (4, 9), (5, 7), (8, 15)))
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        brute = next(
            x for x in range(m1 * m2) if x % m1 == r1 and x % m2 == r2
        )
        assert crt([(r1, m1), (r2, m2)]) == brute


def test_crt_rejects_common_factor():
    with pytest.raises(NonCoprimeModuli):
        crt([(1, 4), (3, 6)])


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}


def test_is_prime_by_sieve():
    sieve = [False, False] + [True] * 1999
    for p in range(2, 2001):
        if sieve[p]:
            for k in range(p * p, 2001, p):
                sieve[k] = False
    assert [n for n in range(-3, 2001) if is_prime(n)] == [
        n for n in range(2001) if sieve[n]
    ]


# ----------------------------------------------------------- ExactScalar


def test_scalar_normal_form():
    assert ExactScalar(Fraction(1), 12) == ExactScalar(Fraction(2), 3)
    assert ExactScalar(Fraction(-2)) == ExactScalar(2, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        ExactScalar(Fraction(0))


def test_scalar_mul_examples():
    sqrt2 = ExactScalar(1, 2)
    assert sqrt2 * sqrt2 == ExactScalar(2)
    i = ExactScalar.unit_phase(Fraction(1, 4))
    assert i * i == ExactScalar.unit_phase(Fraction(1, 2))
    lhs = ExactScalar(1, 3, Fraction(1, 8)) * ExactScalar(2, 6, Fraction(7, 8))
    assert lhs == ExactScalar(6, 2, 0)


def test_scalar_pow():
    q = 7
    assert ExactScalar(1, q) ** 2 == ExactScalar(q)
    assert ExactScalar.unit_phase(Fraction(1, 24)) ** 24 == ExactScalar.one()
    assert ExactScalar(Fraction(3, 2), 5, Fraction(1, 3)) ** -1 == ExactScalar(
        Fraction(2, 15), 5, Fraction(2, 3)
    )


def test_scalar_pow_matches_repeated_mul():
    rng = random.Random(6)
    for _ in range(30):
        x = ExactScalar(
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            rng.randint(1, 30),
            Fraction(rng.randint(0, 23), 24),
        )
        acc = x
        for e in range(2, 8):
            acc = acc * x
            assert x**e == acc


def test_scalar_mul_associative_commutative():
    rng = random.Random(7)
    for _ in range(30):
        xs = [
            ExactScalar(
                Fraction(rng.randint(1, 5)), rng.randint(1, 12),
                Fraction(rng.randint(0, 11), 12),
            )
            for _ in range(3)
        ]
        a, b, c = xs
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_scalar_matches_complex_evaluation():
    rng = random.Random(8)
    for _ in range(50):
        x = ExactScalar(
            Fraction(rng.randint(1, 20), rng.randint(1, 20)),
            rng.randint(1, 40),
            Fraction(rng.randint(0, 47), 48),
        )
        y = ExactScalar(
            Fraction(rng.randint(1, 20), rng.randint(1, 20)),
            rng.randint(1, 40),
            Fraction(rng.randint(0, 47), 48),
        )
        direct = complex(x * y)
        floated = complex(x) * complex(y)
        assert abs(direct - floated) <= 1e-12 * abs(floated)


def test_scalar_rejects_inexact_components():
    # int(2.5) would truncate to sqrt(2); Fraction(0.1) is a binary fraction
    for args in ((1, 2.5), (1, 1, 0.1), (0.5,), (1j,), (1, 2, 1j)):
        with pytest.raises(TypeError):
            ExactScalar(*args)
    with pytest.raises(TypeError):
        ExactScalar.unit_phase(0.25)
    with pytest.raises(TypeError):
        ExactScalar.minus_one_pow(0.5)
    with pytest.raises(TypeError):
        ExactScalar.sqrt_of(2.0)


def test_scalar_rejects_a_radicand_that_is_not_an_integer():
    for s in (Fraction(5, 2), Fraction(1, 3)):
        with pytest.raises(ValueError):
            ExactScalar(1, s)
    assert ExactScalar(1, Fraction(8)) == ExactScalar(2, 2)


# Unit phases e^(2 pi i n/d) with d up to 10^4, and scalars with r != 1 or
# s != 1 (the constructor normalizes the drawn radicand).
_units = st.builds(
    lambda d, n: ExactScalar.unit_phase(Fraction(n % d, d)),
    st.integers(1, 10**4),
    st.integers(0, 10**4),
)
_mixed = st.builds(
    lambda a, b, s, d, n: ExactScalar(Fraction(a, b), s, Fraction(n, d)),
    st.integers(1, 50),
    st.integers(1, 50),
    st.integers(1, 60),
    st.integers(1, 10**4),
    st.integers(-(10**4), 10**4),
).filter(lambda x: x.r != 1 or x.s != 1)
_scalars = st.one_of(_units, _mixed)


def _components(x: ExactScalar) -> tuple:
    assert type(x.r) is Fraction and type(x.s) is int and type(x.u) is Fraction
    return x.r, x.s, x.u


@settings(max_examples=300, deadline=None)
@given(x=_scalars, y=_scalars)
@example(x=ExactScalar.one(), y=ExactScalar.one())
@example(x=ExactScalar.unit_phase(Fraction(1, 2)), y=ExactScalar.unit_phase(Fraction(1, 2)))
@example(x=ExactScalar.unit_phase(Fraction(1, 3)), y=ExactScalar(Fraction(1, 2), 2))
def test_scalar_mul_matches_the_fraction_oracle(x, y, scalar_oracle):
    assert _components(x * y) == scalar_oracle.mul(x, y)


@settings(max_examples=300, deadline=None)
@given(x=_scalars, e=st.integers(-50, 50))
@example(x=ExactScalar.unit_phase(Fraction(9999, 10**4)), e=0)
@example(x=ExactScalar(Fraction(3, 2), 5, Fraction(1, 3)), e=0)
@example(x=ExactScalar.unit_phase(Fraction(1, 24)), e=-50)
def test_scalar_pow_matches_the_fraction_oracle(x, e, scalar_oracle):
    assert _components(x**e) == scalar_oracle.pow(x, e)


@settings(max_examples=200, deadline=None)
@given(
    r=st.fractions(min_value=Fraction(1, 100), max_value=100),
    u=st.fractions(min_value=0, max_value=Fraction(9999, 10**4)),
    bad=st.sampled_from(
        [
            ("r", 0.5, TypeError),
            ("r", 1j, TypeError),
            ("u", 0.25, TypeError),
            ("u", 0.5j, TypeError),
            ("s", 1.0, TypeError),
            ("r", Fraction(0), ValueError),
            ("r", 0, ValueError),
            ("s", 0, ValueError),
            ("s", -3, ValueError),
            ("s", Fraction(3, 2), ValueError),
            ("s", Fraction(1, 7), ValueError),
        ]
    ),
)
def test_scalar_still_rejects_every_invalid_component(r, u, bad):
    # valid normal-form components with one replaced by an invalid value
    components = {"r": r, "s": 1, "u": u}
    name, value, error = bad
    components[name] = value
    with pytest.raises(error):
        ExactScalar(**components)


def test_sqrt_of():
    assert ExactScalar.sqrt_of(Fraction(1, 25)) == ExactScalar(Fraction(1, 5))
    assert ExactScalar.sqrt_of(Fraction(1, 10)) == ExactScalar(Fraction(1, 10), 10)
    assert ExactScalar.sqrt_of(18) == ExactScalar(3, 2)


def test_epsilon_d():
    assert epsilon_d(1) == ExactScalar.one()
    assert epsilon_d(3) == ExactScalar.unit_phase(Fraction(1, 4))
    assert epsilon_d(-1) == ExactScalar.unit_phase(Fraction(1, 4))
    assert epsilon_d(5) == ExactScalar.one()
    with pytest.raises(EvenInput):
        epsilon_d(4)


# ----------------------------------------------------------- input checks


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: dedekind_sum(1, 0), ValueError),
        (lambda: dedekind_sum(1, -3), ValueError),
        (lambda: crt([(0, 3), (1, 0)]), ValueError),
        (lambda: prime_factors(0), ValueError),
        (lambda: ExactScalar.sqrt_of(0), ValueError),
        (lambda: ExactScalar.sqrt_of(Fraction(-1, 4)), ValueError),
        (lambda: ExactScalar(2) * 2, TypeError),
        (lambda: ExactScalar(2) ** Fraction(1, 2), TypeError),
        (lambda: str(ExactScalar(2, 3, Fraction(1, 4))), "2*sqrt(3)*e(2*pi*i*1/4)"),
    ],
    ids=[
        "dedekind-c-0", "dedekind-c-negative", "crt-modulus-0", "prime-factors-0",
        "sqrt-of-0", "sqrt-of-negative", "times-int", "power-fraction", "str-radicand-phase",
    ],
)
def test_input_checks(call, outcome):
    # each check that the other tests never reach: a refused input raises,
    # and a scalar with a radicand and a phase prints both
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome
