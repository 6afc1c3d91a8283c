"""Unit and property tests for the truncated-series ring."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsift import qseries
from qsift.qseries import (
    INTEGER,
    BeyondPrecision,
    CoefficientRing,
    IncompatibleModulus,
    NonUnitLeadingCoefficient,
    OffsetMismatch,
    QSeries,
    RingMismatch,
    _conv_decimal,
    _conv_kronecker,
    _conv_schoolbook,
    _decimal_digits,
    _div_sparse,
    _division_cost,
    _divide,
    _divide_newton,
    _miller_is_cheaper,
    _pow_sparse,
    _read_slots,
    _slot_bound,
    _sparse_sum,
    _transform_product,
    integer_mod,
    monomial,
)

RINGS = (INTEGER, integer_mod(257), integer_mod(3), integer_mod(4), integer_mod(12))


def series(offset, coeffs, ring=INTEGER):
    return QSeries(Fraction(offset), tuple(coeffs), ring)


def random_series(rng, ring, prec, offset_choices=(0,)):
    offset = Fraction(rng.choice(offset_choices))
    coeffs = [rng.randint(-9, 9) for _ in range(prec)]
    return QSeries(offset, tuple(coeffs), ring)


# ------------------------------------------------------------- constructors


def test_monomial_basic():
    m = monomial(Fraction(-1, 24), INTEGER, 3)
    assert m.offset == Fraction(-1, 24)
    assert m.coeffs == (1, 0, 0)

    one = monomial(0, integer_mod(3), 1)
    assert one.coeffs == (1,)

    frac = monomial(Fraction(2, 3), INTEGER, 2)
    assert frac.offset == Fraction(2, 3)
    assert frac.coeffs == (1, 0)


def test_monomial_rejects_empty():
    with pytest.raises(ValueError):
        monomial(0, INTEGER, 0)


def test_mod_ring_normalizes():
    s = series(0, (5, -1, 3), integer_mod(3))
    assert s.coeffs == (2, 2, 0)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_constructor_normalizes_like_the_ring(ring):
    raw = (5, -1, True, 7.9, Fraction(7, 2), 2**70 + 1)
    s = QSeries(Fraction(0), raw, ring)
    assert s.coeffs == tuple(ring.normalize(c) for c in raw)
    assert all(type(c) is int for c in s.coeffs)


# --------------------------------------------------------------------- add


def test_add_plain():
    a = series(0, (1, 1))
    b = series(0, (1, -1))
    assert (a + b).coeffs == (2, 0)


def test_add_offset_shift():
    a = series(Fraction(-1, 24), (1, 1))
    b = series(Fraction(23, 24), (1,))
    total = a + b
    assert total.offset == Fraction(-1, 24)
    assert total.coeffs == (1, 2)


def test_add_offset_mismatch():
    with pytest.raises(OffsetMismatch):
        series(0, (1, 1)) + series(Fraction(1, 2), (1,))


def test_add_ring_mismatch():
    with pytest.raises(RingMismatch):
        series(0, (1,)) + series(0, (1,), integer_mod(3))


def test_add_precision_is_min_exact_exponent():
    a = series(0, (1, 2, 3))          # exact below 3
    b = series(2, (5, 6, 7, 8))       # exact below 6
    total = a + b
    assert total.offset == 0
    assert total.prec == 3
    assert total.coeffs == (1, 2, 8)


# --------------------------------------------------------------------- mul


def test_mul_plain():
    a = series(0, (1, 1, 0))
    b = series(0, (1, -1, 0))
    assert (a * b).coeffs == (1, 0, -1)


def test_mul_offsets_add():
    a = monomial(Fraction(-1, 24), INTEGER, 4)
    b = monomial(Fraction(1, 24), INTEGER, 4)
    assert (a * b) == monomial(0, INTEGER, 4)


def test_mul_ring_mismatch():
    with pytest.raises(RingMismatch):
        series(0, (1,)) * series(0, (1,), integer_mod(5))


@pytest.mark.parametrize("ring", [INTEGER, integer_mod(3), integer_mod(256)])
def test_kronecker_matches_schoolbook(ring):
    rng = random.Random(f"kron:{ring}")
    for _ in range(25):
        n = rng.randint(1, 60)
        xs = [ring.normalize(rng.randint(-50, 50)) for _ in range(n)]
        ys = [ring.normalize(rng.randint(-50, 50)) for _ in range(rng.randint(1, 60))]
        n_out = min(len(xs), len(ys))
        assert list(_conv_kronecker(xs, ys, n_out, ring)) == _conv_schoolbook(
            xs, ys, n_out, ring
        )


def test_fast_path_dispatch_at_large_precision():
    # sparse inputs keep the schoolbook reference cheap at fast-path size
    rng = random.Random(99)
    prec = (1 << 14) + 10
    coeffs_a = [0] * prec
    coeffs_b = [0] * prec
    for _ in range(40):
        coeffs_a[rng.randrange(prec)] = rng.randint(-7, 7)
        coeffs_b[rng.randrange(prec)] = rng.randint(-7, 7)
    coeffs_a[0] = coeffs_b[0] = 1
    a = series(0, coeffs_a)
    b = series(0, coeffs_b)
    fast = (a * b).coeffs
    slow = _conv_schoolbook(list(coeffs_a), list(coeffs_b), prec, INTEGER)
    assert list(fast) == slow


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_dispatched_product_matches_schoolbook(data):
    # a modulus near 2^61 needs slots wider than a machine word
    ring = data.draw(st.sampled_from(KERNEL_RINGS + (integer_mod(2**61 - 1),)))
    a = data.draw(coefficients(ring, data.draw(st.integers(1, 300))))
    b = data.draw(coefficients(ring, data.draw(st.integers(1, 300))))
    n_out = min(len(a), len(b))
    product = series(0, a, ring) * series(0, b, ring)
    assert list(product.coeffs) == _conv_schoolbook(a, b, n_out, ring)
    lo = data.draw(st.integers(0, n_out))
    expected = _conv_schoolbook(a, b, n_out, ring)[lo:]
    assert list(_conv_kronecker(a, b, n_out, ring, lo)) == expected


@pytest.mark.parametrize("ring", [INTEGER, integer_mod(3), integer_mod(1000)], ids=str)
def test_zero_length_product_is_empty(ring):
    xs = [ring.normalize(c) for c in (1, 2, 3, 4)]
    assert qseries._convolve(xs, xs, 0, ring) == []
    assert qseries._convolve([], [], 0, ring) == []


# ------------------------------------------------------------------ invert


def test_invert_geometric():
    inv = series(0, (1, -1, 0, 0, 0)).invert()
    assert inv.coeffs == (1, 1, 1, 1, 1)


def test_invert_monomial_offset_negates():
    m = monomial(Fraction(1, 24), INTEGER, 3)
    assert m.invert() == monomial(Fraction(-1, 24), INTEGER, 3)


def test_invert_mod4():
    s = series(0, (1, 2, 0, 0), integer_mod(4))
    assert s.invert().coeffs == (1, 2, 0, 0)
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, (2, 1, 0), integer_mod(4)).invert()


def test_invert_requires_unit():
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, (2, 1)).invert()
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, (0, 1), integer_mod(5)).invert()


@pytest.mark.parametrize("ring", [INTEGER, integer_mod(257), integer_mod(7), integer_mod(9)])
def test_invert_two_sided(ring):
    rng = random.Random(f"inv:{ring}")
    for _ in range(20):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 12))]
        coeffs[0] = 1
        s = QSeries(Fraction(0), tuple(coeffs), ring)
        assert (s * s.invert()) == monomial(0, ring, s.prec)
        assert (s.invert() * s) == monomial(0, ring, s.prec)


# Division kernels: the sparse recurrence and Newton iteration on the
# dispatched product, against each other and against schoolbook.

KERNEL_RINGS = (
    INTEGER,
    integer_mod(2),
    integer_mod(3),
    integer_mod(9),
    integer_mod(355),
)
EDGE_PRECS = sorted({1, 2, 3} | {2**k + d for k in range(1, 8) for d in (-1, 1)})
BIG = 2**80


def coefficients(ring, n):
    """n coefficients of ring, signed and up to 80 bits before reduction.
    Hypothesis picks the density of zeros, the magnitude and a seed; the
    values come from the seeded generator, which keeps long lists cheap."""

    @st.composite
    def build(draw):
        p_zero = draw(st.sampled_from((0, 0.5, 0.95)))
        bound = draw(st.sampled_from((1, 2**8, BIG)))
        rng = random.Random(draw(st.integers(0, 2**64)))
        return [
            0 if rng.random() < p_zero else ring.normalize(rng.randint(-bound, bound))
            for _ in range(n)
        ]

    return build()


def unit(ring):
    if ring.kind == "int":
        return st.sampled_from((1, -1))
    return st.integers(1, ring.modulus - 1).filter(lambda u: gcd(u, ring.modulus) == 1)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
@pytest.mark.parametrize("n", EDGE_PRECS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_division_kernels_agree(ring, n, data):
    num = data.draw(coefficients(ring, n))
    den = data.draw(coefficients(ring, n))
    den[0] = data.draw(unit(ring))
    support = [(k, c) for k, c in enumerate(den) if c and k]
    by_recurrence = _div_sparse(num, support, ring.inverse(den[0]), n, ring)
    if ring.kind == "mod":  # Newton runs over Z/m only
        assert by_recurrence == list(_divide_newton(num, den, n, ring))
        constant = [num[0]] + [0] * (n - 1)  # runs the same Newton steps as num
        assert list(_divide_newton(constant, den, n, ring)) == _div_sparse(
            constant, support, ring.inverse(den[0]), n, ring
        )
    assert _conv_schoolbook(den, by_recurrence, n, ring) == [
        ring.normalize(v) for v in num
    ]
    quotient = series(0, num, ring) / series(Fraction(1, 24), den, ring)
    assert quotient.offset == Fraction(-1, 24)
    assert list(quotient.coeffs) == by_recurrence


# The grouped recurrence against its per-term loop, kept in conftest.

ORACLE_RINGS = (
    INTEGER,
    integer_mod(2),
    integer_mod(3),
    integer_mod(256),  # the largest modulus on bytes
    integer_mod(257),  # the smallest on tuples
    integer_mod(355),
)


def ring_values(ring):
    """Values as the ring's series store them: integers up to 2^200 in
    magnitude, or residues."""
    if ring.kind == "int":
        return st.integers(-(2**200), 2**200)
    return st.integers(0, ring.modulus - 1)


def stored(ring, values):
    return bytes(values) if ring.stores_bytes else tuple(values)


@st.composite
def sparse_divisions(draw, ring):
    """(num, support, inv0, n_out) for ``_div_sparse``.  The support has one
    term, many terms of one value, pairwise distinct values or any values,
    and may be empty or reach past n_out; inv0 is any unit; the numerator
    may be nonzero only in its last slots, and is stored as the ring's
    series store it."""
    n_out = draw(st.integers(1, 48))
    nonzero = ring_values(ring).filter(bool)
    ks = sorted(draw(st.sets(st.integers(1, n_out + 8), max_size=24)))
    shape = draw(st.sampled_from(("one", "equal", "distinct", "any")))
    if shape == "one":
        ks = ks[:1]
    if shape == "equal":
        values = [draw(nonzero)] * len(ks)
    else:
        if shape == "distinct" and ring.kind == "mod":
            ks = ks[: ring.modulus - 1]
        size = len(ks)
        values = draw(
            st.lists(nonzero, min_size=size, max_size=size, unique=shape == "distinct")
        )
    inv0 = draw(unit(ring))
    late = draw(st.integers(0, n_out))  # leading zero slots of the numerator
    size = n_out - late
    tail = draw(st.lists(ring_values(ring), min_size=size, max_size=size))
    return stored(ring, [0] * late + tail), list(zip(ks, values)), inv0, n_out


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_div_sparse_matches_the_per_term_recurrence(ring, data, div_sparse_oracle):
    num, support, inv0, n_out = data.draw(sparse_divisions(ring))
    expected = div_sparse_oracle(num, support, inv0, n_out, ring)
    assert _div_sparse(num, support, inv0, n_out, ring) == expected


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
@pytest.mark.parametrize(
    "num, support, n_out",
    [
        ([5, 7], [(1, 2)], 1),  # one slot: the terms are never reached
        ([3, 1, 4, 1, 5], [], 5),  # no terms: the scaled numerator
        ([0] * 11 + [1], [(1, 1), (2, 1), (5, 2), (7, 1)], 12),  # nonzero only last
        ([1, 2, 3], [(3, 1), (4, 2)], 3),  # every term at k >= n_out
        ([1] + [0] * 39, [(1, -1), (2, -1), (5, 1), (7, 1)], 40),  # 1/eta
    ],
    ids=["n_out-1", "no-terms", "late-numerator", "terms-past-n_out", "eta"],
)
def test_div_sparse_matches_the_per_term_recurrence_at_the_edges(
    ring, num, support, n_out, div_sparse_oracle
):
    num = stored(ring, [ring.normalize(v) for v in num])
    support = [(k, ring.normalize(b)) for k, b in support]
    for inv0 in {ring.normalize(1), ring.inverse(ring.normalize(-1))}:
        expected = div_sparse_oracle(num, support, inv0, n_out, ring)
        assert _div_sparse(num, support, inv0, n_out, ring) == expected


@st.composite
def lattice_factor(draw, ring, d):
    """Slots of a series in q^d over ring, as the ring's series store them:
    up to 200 slots, every slot off the multiples of d zero, slot 0 maybe
    zero too."""
    n = draw(st.integers(1, 200))
    values = [0] * n
    values[::d] = draw(coefficients(ring, len(range(0, n, d))))
    if draw(st.booleans()):
        values[0] = 0
    return stored(ring, values)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_convolve_on_lattice_factors_matches_the_unreduced_product(ring, data):
    # factors in q^d1 and q^d2: with g = gcd(d1, d2) > 1 (or a larger common
    # lattice where slots happen to be zero) every kernel runs on q^g slices
    d1, d2 = (data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 10))) for _ in "xy")
    xs = data.draw(lattice_factor(ring, d1))
    ys = xs if data.draw(st.booleans()) else data.draw(lattice_factor(ring, d2))
    n_out = data.draw(st.integers(1, len(xs) + len(ys) + 5))
    lo = data.draw(st.integers(0, n_out))
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_conv_schoolbook", "_conv_kronecker", "_conv_decimal"):

            def spy(*args, kernel=getattr(qseries, name)):
                sizes.append(args[2])
                return kernel(*args)

            patch.setattr(qseries, name, spy)
        out = qseries._convolve(xs, ys, n_out, ring, lo)
    assert type(out) is (bytes if ring.stores_bytes else list)
    assert list(out) == _conv_schoolbook(xs, ys, n_out, ring)[lo:]
    support = [k for k in range(1, n_out) for v in (xs, ys) if k < len(v) and v[k]]
    g = gcd(*support)
    ran = any(xs[:n_out]) and any(ys[:n_out])  # a factor of zeros runs no kernel
    assert sizes == ([-(-n_out // g) if g > 1 else n_out] if ran else [])


def newton_calls(n):
    """The (n_out, lo) of every product Newton division makes to n slots:
    two per step of the inverse's halving chain h, ceil(h/2), ..., 2 (where
    h = ceil(n/2)), from the bottom up, then three for the step to n."""
    h = k2 = (n + 1) // 2
    chain = []
    while k2 > 1:
        chain.append(k2)
        k2 = (k2 + 1) // 2
    calls, k = [], 1
    for k2 in reversed(chain):
        calls += [(k2, k), (k2 - k, 0)]
        k = k2
    return calls + [(h, 0), (n, h), (n - h, 0)]


NEWTON_CASES = [
    (ring, n)
    for ring in (integer_mod(3), integer_mod(355))
    for n in (2, 3, 5, 100, 1000)
] + [(integer_mod(3), 4097)]


@pytest.mark.parametrize("ring, n", NEWTON_CASES, ids=str)
def test_newton_division_makes_two_products_per_halving_then_three(
    monkeypatch, ring, n
):
    calls = []
    convolve = qseries._convolve

    def spy(xs, ys, n_out, ring, lo=0):
        calls.append((n_out, lo))
        return convolve(xs, ys, n_out, ring, lo)

    monkeypatch.setattr(qseries, "_convolve", spy)
    rng = random.Random(n)
    den = [1] + [ring.normalize(rng.randint(-1, 1)) for _ in range(n - 1)]
    num = [ring.normalize(rng.randint(-9, 9)) for _ in range(n)]
    quotient = _divide_newton(num, den, n, ring)
    assert calls == newton_calls(n)
    calls.clear()
    constant = [2] + [0] * (n - 1)
    scaled_inverse = _divide_newton(constant, den, n, ring)
    assert calls == newton_calls(n)
    support = [(k, c) for k, c in enumerate(den) if c and k]
    assert list(quotient) == _div_sparse(num, support, 1, n, ring)
    assert list(scaled_inverse) == _div_sparse(constant, support, 1, n, ring)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_times_inverse_is_one(data):
    ring = data.draw(st.sampled_from(KERNEL_RINGS))
    coeffs = data.draw(coefficients(ring, data.draw(st.integers(1, 40))))
    coeffs[0] = data.draw(unit(ring))
    s = series(Fraction(5, 24), coeffs, ring)
    assert s * s.invert() == monomial(0, ring, s.prec)
    assert s**-2 == s.invert() * s.invert()


def test_division_by_series_in_q_power():
    # the divisor lives in q^3, so each residue class divides separately
    ring = integer_mod(3)
    num = random_series(random.Random(8), ring, 5000)
    eta = QSeries(Fraction(0), tuple(eta_coeffs(1667)), ring)
    den = eta.substitute_power(3)
    quotient = num / den
    assert quotient * den == num
    assert den.invert() == eta.invert().substitute_power(3)


@pytest.mark.parametrize("m", [3, 9])
def test_residue_classes_share_one_inverse(monkeypatch, m):
    # dividing by E(q^2) to P slots makes one Newton inverse, of E(q) to
    # P/2 slots, which the two classes of P/2 slots are multiplied by
    ring, P = integer_mod(m), 50000
    num = random_series(random.Random(m), ring, P)
    den = QSeries(Fraction(0), eta_coeffs(P // 2), ring).substitute_power(2)
    calls, depth = [], 0
    newton = qseries._divide_newton

    def spy(num, den, n_out, ring):
        nonlocal depth
        if not depth:  # the calls from outside Newton's own recursion
            calls.append((num, den, n_out))
        depth += 1
        try:
            return newton(num, den, n_out, ring)
        finally:
            depth -= 1

    monkeypatch.setattr(qseries, "_divide_newton", spy)
    quotient = num / den
    assert calls == [(None, den.slots[::2], P // 2)]
    monkeypatch.undo()
    for r in (0, 1):  # each class as its own Newton division gives
        alone = newton(num.slots[r::2], den.slots[::2], P // 2, ring)
        assert list(quotient.slots[r::2]) == list(alone)


DENSE_DIVISOR_RINGS = (
    INTEGER,
    integer_mod(2),
    integer_mod(3),
    integer_mod(9),
    integer_mod(355),
)


@pytest.mark.parametrize("ring", DENSE_DIVISOR_RINGS, ids=str)
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [61, 1201])  # below and above every crossover
def test_division_by_dense_series_in_q_power_matches_recurrence(ring, d, n):
    rng = random.Random(f"{ring}:{d}:{n}")
    b = [ring.normalize(rng.randint(-1, 1)) for _ in range(-(-n // d))]
    b[0], b[1] = ring.normalize(rng.choice((1, -1))), 1  # support gcd is d
    den = [0] * n
    den[::d] = b
    num = [ring.normalize(rng.randint(-9, 9)) for _ in range(n)]
    support = [(k, c) for k, c in enumerate(den) if c and k]
    if ring.kind == "mod":
        _, newton = _division_cost(len(support), n, ring, d)
        assert newton == (n > 1000)
    expected = _div_sparse(num, support, ring.inverse(den[0]), n, ring)
    assert list(_divide(num, den, n, ring)) == expected
    quotient = series(0, num, ring) / series(0, den, ring)  # on stored slots
    assert list(quotient.coeffs) == expected


SPARSE_FILLS = [
    (0, 1, 5),  # every slot
    (3, 40, -7),  # a single slot (step >= prec), then the same fill again
    (3, 40, -7),
    (39, 2, 300),  # the last slot only
    (40, 1, 9),  # starts at prec: adds nothing
    (57, 3, -1),  # starts past prec
    (2, 3, 255),
    (2, 3, -256),
    (1, 7, 0),
]


@pytest.mark.parametrize("m", [2, 3, 9, 256, 257])
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 60), st.integers(-600, 600))))
@settings(max_examples=40, deadline=None)
def test_sparse_sum_over_residues_is_the_integer_sum_reduced(m, drawn):
    prec, fills = 40, SPARSE_FILLS + drawn
    expected = [0] * prec
    for start, step, value in fills:
        for i in range(start, prec, step):
            expected[i] += value
    over_z = _sparse_sum(prec, INTEGER, fills, Fraction(1, 24))
    assert over_z == QSeries(Fraction(1, 24), expected, INTEGER)
    assert _sparse_sum(prec, integer_mod(m), fills, Fraction(1, 24)) == over_z.reduce_mod(m)


def test_division_ring_mismatch():
    with pytest.raises(RingMismatch):
        series(0, (1,)) / series(0, (1,), integer_mod(5))


# The decimal kernel (libmpdec) against schoolbook and Kronecker.

DECIMAL_MODULI = (2, 3, 9, 355, 2**61 - 1)


def residues(m, n, rng, fill):
    """n residues mod m: all m - 1 (every slot then meets the a-priori
    bound), all 0, or seeded random."""
    if fill == "top":
        return [m - 1] * n
    if fill == "zero":
        return [0] * n
    return [rng.randrange(m) for _ in range(n)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_decimal_kernel_agrees(data):
    m = data.draw(st.sampled_from(DECIMAL_MODULI))
    ring = integer_mod(m)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fills = st.sampled_from(("top", "random", "zero"))
    xs = residues(m, data.draw(st.integers(1, 200)), rng, data.draw(fills))
    if data.draw(st.booleans()):
        ys = xs  # a square packs once
    else:
        ys = residues(m, data.draw(st.integers(1, 200)), rng, data.draw(fills))
    n_out = data.draw(st.integers(1, len(xs) + len(ys) + 5))
    lo = data.draw(st.integers(0, n_out))
    expected = _conv_schoolbook(xs, ys, n_out, ring)[lo:]
    assert list(_conv_decimal(xs, ys, n_out, ring, lo)) == expected
    assert list(_conv_kronecker(xs, ys, n_out, ring, lo)) == expected


SLOT_BOUND_SHAPES = [
    (1, 1, 1, 0, False),
    (100, 100, 199, 0, True),  # the middle slot is the bound itself
    (100, 100, 250, 0, False),  # n_out > nx + ny
    (37, 80, 100, 13, False),
    (80, 37, 60, 59, False),
    (64, 64, 127, 126, True),
    (30, 30, 30, 30, False),  # an empty window
]


@pytest.mark.parametrize("m", DECIMAL_MODULI)
@pytest.mark.parametrize("nx, ny, n_out, lo, square", SLOT_BOUND_SHAPES)
def test_decimal_kernel_at_the_slot_bound(m, nx, ny, n_out, lo, square):
    ring = integer_mod(m)
    xs = [m - 1] * nx
    ys = xs if square else [m - 1] * ny
    expected = _conv_schoolbook(xs, ys, n_out, ring)[lo:]
    assert list(_conv_decimal(xs, ys, n_out, ring, lo)) == expected
    assert list(_conv_kronecker(xs, ys, n_out, ring, lo)) == expected
    zeros = [0] * nx
    assert list(_conv_decimal(zeros, ys, n_out, ring, lo)) == [0] * (n_out - lo)


def test_decimal_kernel_past_the_crossover():
    ring = integer_mod(3)
    rng = random.Random(2024)
    n = 20000
    xs = [rng.randrange(3) for _ in range(n)]
    ys = [rng.randrange(3) for _ in range(n + 500)]  # read as a prefix
    bound = _slot_bound(xs, ys, n, ring)
    assert _transform_product(n, bound, ring)[1] is _conv_decimal
    assert list(_conv_decimal(xs, ys, n, ring)) == list(_conv_kronecker(xs, ys, n, ring))
    product = series(0, xs, ring) * series(0, ys, ring)
    assert list(product.coeffs) == list(_conv_kronecker(xs, ys, n, ring))


def test_products_without_libmpdec_match_schoolbook(monkeypatch):
    # decimal would fall back to the quadratic _pydecimal: use Kronecker
    ring = integer_mod(2**61 - 1)
    rng = random.Random(61)
    n = 1500
    a = [rng.randrange(ring.modulus) for _ in range(n)]
    b = [rng.randrange(ring.modulus) for _ in range(n)]
    bound = _slot_bound(a, b, n, ring)
    assert _transform_product(n, bound, ring)[1] is _conv_decimal
    monkeypatch.setitem(sys.modules, "_decimal", None)  # import now fails
    assert _transform_product(n, bound, ring)[1] is _conv_kronecker
    product = series(0, a, ring) * series(0, b, ring)
    assert list(product.coeffs) == _conv_schoolbook(a, b, n, ring)


def test_no_decimal_kernel_past_the_int_str_limit():
    # slots too long for str() cannot be packed as decimal digit groups
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")
    m = 10 ** (limit // 2) + 1  # (m-1)^2 has one digit more than the limit
    ring = integer_mod(m)
    bound = _slot_bound([1], [1], 1, ring)
    assert _decimal_digits(bound, ring) is None
    assert _transform_product(10**6, bound, ring)[1] is _conv_kronecker
    a = series(0, [m - 1, 2, 3], ring)
    assert list((a * a).coeffs) == _conv_schoolbook(a.coeffs, a.coeffs, 3, ring)



# The decimal kernel over Z: signed slots, against schoolbook.

SIGNED_FILLS = ("top", "bottom", "alternating", "growing", "spike", "random", "zero")


def signed_slots(magnitude, n, rng, fill):
    """n integers of at most ``magnitude``: all +magnitude, all -magnitude,
    alternating in sign (products of two such factors reach +-bound),
    magnitude * (-2)^i (whose square, truncated to n slots, reaches the
    bound of ``_slot_bound`` over pairs i + j < n), a spike (slot 1 is 1
    and the last slot -10^6 * magnitude, so product slots past n dwarf the
    bound of the slots below), all 0, or seeded random."""
    if fill == "top":
        return [magnitude] * n
    if fill == "bottom":
        return [-magnitude] * n
    if fill == "alternating":
        return [magnitude * (-1) ** i for i in range(n)]
    if fill == "growing":
        return [magnitude * (-2) ** i for i in range(n)]
    if fill == "spike":
        values = [0] * n
        values[min(1, n - 1)] = 1
        if n > 2:
            values[-1] = -(10**6) * magnitude
        return values
    if fill == "zero":
        return [0] * n
    return [rng.randint(-magnitude, magnitude) for _ in range(n)]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_signed_decimal_kernel_agrees(data):
    magnitude = data.draw(st.sampled_from((1, 9, 10**6, 2**61 - 1, 10**40)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fills = st.sampled_from(SIGNED_FILLS)
    xs = signed_slots(magnitude, data.draw(st.integers(1, 200)), rng, data.draw(fills))
    if data.draw(st.booleans()):
        ys = xs  # a square packs once
    else:
        ys = signed_slots(magnitude, data.draw(st.integers(1, 200)), rng, data.draw(fills))
    n_out = data.draw(st.integers(1, len(xs) + len(ys) + 5))
    lo = data.draw(st.integers(0, n_out))
    expected = _conv_schoolbook(xs, ys, n_out, INTEGER)[lo:]
    assert _conv_decimal(xs, ys, n_out, INTEGER, lo) == expected
    assert _conv_kronecker(xs, ys, n_out, INTEGER, lo) == expected


@pytest.mark.parametrize("magnitude", (1, 2**61 - 1, 10**40))
@pytest.mark.parametrize(
    "fills", [("top", "top"), ("bottom", "top"), ("alternating", "bottom"), ("growing", "growing")]
)
@pytest.mark.parametrize(
    # truncated to 100 slots, the last slot of a growing square is +-bound
    "nx, ny, n_out, lo, square", SLOT_BOUND_SHAPES + [(100, 100, 100, 0, True)]
)
def test_signed_decimal_kernel_at_the_slot_bound(magnitude, fills, nx, ny, n_out, lo, square):
    rng = random.Random(0)
    xs = signed_slots(magnitude, nx, rng, fills[0])
    ys = xs if square else signed_slots(magnitude, ny, rng, fills[1])
    full = _conv_schoolbook(xs, ys, n_out, INTEGER)
    if square and (fills[0] != "growing" or n_out <= nx):  # a slot meets the bound
        assert max(map(abs, full)) == _slot_bound(xs, ys, n_out, INTEGER)
    assert _conv_decimal(xs, ys, n_out, INTEGER, lo) == full[lo:]
    assert _conv_kronecker(xs, ys, n_out, INTEGER, lo) == full[lo:]
    zeros = [0] * nx  # a zero operand
    assert _conv_decimal(zeros, ys, n_out, INTEGER, lo) == [0] * (n_out - lo)
    assert _conv_decimal(xs, zeros, n_out, INTEGER, lo) == [0] * (n_out - lo)


@pytest.mark.parametrize("n_out, lo", [(5, 0), (5, 3), (6, 0), (9, 2)])
def test_integer_kernels_cut_off_the_slots_past_n_out(n_out, lo):
    # slots 0..4 are at most 1, slot 8 is -10^30: only the slots asked
    # for are bounded, and the rest must not carry into them
    xs = [0, 1, 0, 0, -(10**15)]
    ys = [0, 1, 2, 0, -(10**15)]
    for a, b in ((xs, xs), (xs, ys), (ys, xs)):
        expected = _conv_schoolbook(a, b, n_out, INTEGER)[lo:]
        assert _conv_decimal(a, b, n_out, INTEGER, lo) == expected
        assert _conv_kronecker(a, b, n_out, INTEGER, lo) == expected


@pytest.mark.parametrize(
    "ring", [INTEGER, integer_mod(3), integer_mod(355), integer_mod(2**61 - 1)], ids=str
)
@pytest.mark.parametrize(
    "kernel", [_conv_kronecker, _conv_decimal], ids=lambda k: k.__name__
)
def test_packed_kernels_convert_slot_by_slot(monkeypatch, ring, kernel):
    # with no machine item for a slot (a big-endian host, or slots past
    # eight bytes) _pack, _unpack and _decimal_slots convert slot by slot
    asked = []
    monkeypatch.setattr(qseries, "_array_code", lambda width: asked.append(width))
    rng = random.Random(355)

    def operand(n, fill):
        if ring.kind == "int":
            return signed_slots(10**6, n, rng, fill)
        values = residues(ring.modulus, n, rng, "random" if fill == "growing" else fill)
        return bytes(values) if ring.stores_bytes else values

    shapes = SLOT_BOUND_SHAPES + [(150, 90, 400, 7, False), (120, 120, 120, 60, True)]
    for fill in ("top", "random", "growing"):
        for nx, ny, n_out, lo, square in shapes:
            xs = operand(nx, fill)
            ys = xs if square else operand(ny, "random")
            expected = _conv_schoolbook(xs, ys, n_out, ring)[lo:]
            assert list(kernel(xs, ys, n_out, ring, lo)) == expected
    assert bool(asked) is not ring.stores_bytes  # residue bytes have no fallback


# Residue bytes (Z/m, m <= 256): the column read-back and Newton's
# subtraction against their slot-by-slot lists, kept in conftest.  The
# moduli straddle the lane widths: m - 1 <= 127 lets two residues share a
# byte lane, m = 129..256 needs the masked subtraction, and 256 is the last
# modulus on bytes.

BYTE_MODULI = (2, 3, 5, 127, 128, 129, 205, 255, 256)
RESIDUE_FILLS = ("top", "zero", "last", "random")


def residue_bytes(m, n, rng, fill):
    """n residues mod m as bytes: all m - 1 (the largest lane sums), all
    0, 0 but for a nonzero last slot (one nonzero slot), or random."""
    if fill == "last":
        return bytes(n - 1) + bytes((rng.randrange(1, m),))
    return bytes(residues(m, n, rng, fill))


@st.composite
def packed_products(draw):
    """(data, width, radix, lo, hi, n_out): the digits of a packed product
    cut to hi slots as the kernels pass them to ``_read_slots``, its
    little-endian bytes for radix 256 and its decimal string, most
    significant first, for radix 10.  Every digit is its largest, every
    digit 0, all are 0 but for the last slot, or they are random; 257
    digits is the widest slot a two-byte lane holds."""
    radix = draw(st.sampled_from((256, 10)))
    width = draw(st.integers(1, 14) | st.just(257))
    hi = draw(st.integers(0, 40))
    lo = draw(st.integers(0, hi))
    n_out = hi + draw(st.integers(0, 3))
    fill = draw(st.sampled_from(RESIDUE_FILLS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = width * hi
    if fill == "top":
        digits = [radix - 1] * count
    elif fill == "zero":
        digits = [0] * count
    elif fill == "last":
        digits = [0] * (count - width) + [rng.randrange(radix) for _ in range(min(width, count))]
    else:
        digits = [rng.randrange(radix) for _ in range(count)]
    if radix == 10:  # digits are listed least significant first
        return "".join(map(str, reversed(digits))), width, radix, lo, hi, n_out
    return bytes(digits), width, radix, lo, hi, n_out


LANE_COUNTS = tuple(range(1, 13)) + (255, 256, 257)


def check_lane_sums(columns, m):
    expected = [sum(slot) % m for slot in zip(*columns)] if columns[0] else []
    sums = qseries._sum_residues(columns, m)
    assert type(sums) is bytes and list(sums) == expected


@pytest.mark.parametrize("m", BYTE_MODULI)
@pytest.mark.parametrize("k", LANE_COUNTS)
def test_residue_lane_sums_at_their_largest(m, k):
    # all m - 1 puts every lane at its largest sum, k * (m - 1): 256 for
    # two columns mod 129 and for 256 columns mod 2, one past a byte lane
    check_lane_sums([bytes([m - 1]) * 9] * k, m)


@pytest.mark.parametrize("m", BYTE_MODULI)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_residue_lane_sums_match_the_per_slot_sum(m, data):
    count = data.draw(st.integers(0, 30))
    k = data.draw(st.sampled_from(LANE_COUNTS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fills = data.draw(st.lists(st.sampled_from(("top", "zero", "random")), min_size=k, max_size=k))
    check_lane_sums([bytes(residues(m, count, rng, fill)) for fill in fills], m)


@pytest.mark.parametrize("m", BYTE_MODULI)
@given(product=packed_products())
@settings(max_examples=60, deadline=None)
def test_residue_read_back_matches_the_per_slot_list(m, product, residue_read_back_oracle):
    data, width, radix, lo, hi, n_out = product
    slots = _read_slots(data, width, radix, lo, hi, n_out, integer_mod(m))
    assert type(slots) is bytes
    assert list(slots) == residue_read_back_oracle(data, width, radix, lo, hi, n_out, m)


@pytest.mark.parametrize("m", BYTE_MODULI)
@pytest.mark.parametrize("kernel", [_conv_kronecker, _conv_decimal], ids=lambda k: k.__name__)
@pytest.mark.parametrize("fill", RESIDUE_FILLS)
def test_packed_kernels_return_residue_bytes(m, kernel, fill):
    # at the dense bound the kernels take alone, and at the nonzero count
    # that _convolve passes, which the "top" and "last" fills meet exactly
    ring, rng = integer_mod(m), random.Random(f"{m}:{fill}")
    for nx, ny, n_out, lo, square in SLOT_BOUND_SHAPES + [(150, 90, 400, 7, False)]:
        xs = residue_bytes(m, nx, rng, fill)
        ys = xs if square else residue_bytes(m, ny, rng, fill)
        expected = _conv_schoolbook(xs, ys, n_out, ring)[lo:]
        nnz = min(qseries._prefix_nonzeros(xs, n_out), qseries._prefix_nonzeros(ys, n_out))
        for bound in (None, _slot_bound(xs, ys, n_out, ring, nnz)):
            slots = kernel(xs, ys, n_out, ring, lo, bound)
            assert type(slots) is bytes
            assert list(slots) == expected


def test_slot_bound_over_residues_counts_the_sparser_operand():
    ring = integer_mod(3)
    xs, ys = bytes([1, 0, 2, 0, 0, 1]), bytes([2] * 6)
    assert _slot_bound(xs, ys, 6, ring) == 6 * 4  # dense: the shorter prefix
    assert _slot_bound(xs, ys, 6, ring, 3) == 3 * 4
    # unreduced, a product slot sums at most nnz = 3 nonzero terms
    assert max(_conv_schoolbook(list(xs), list(ys), 6, INTEGER)) <= 3 * 4


@pytest.mark.parametrize("m", BYTE_MODULI)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_newton_subtraction_matches_the_per_slot_list(m, data, newton_rest_oracle):
    # every step's den * y from slot h (``_convolve`` with lo = h) is
    # followed by the product g * rest; the last step folds num in
    ring, rng = integer_mod(m), random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 90))
    den = bytearray(residue_bytes(m, n, rng, data.draw(st.sampled_from(RESIDUE_FILLS))))
    den[0] = data.draw(unit(ring))
    den = bytes(den)
    num = data.draw(
        st.none() | st.sampled_from(RESIDUE_FILLS).map(lambda f: residue_bytes(m, n, rng, f))
    )
    calls, convolve = [], qseries._convolve

    def spy(xs, ys, n_out, ring, lo=0):
        out = convolve(xs, ys, n_out, ring, lo)
        calls.append((ys, n_out, lo, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_convolve", spy)
        quotient = _divide_newton(num, den, n, ring)
    highs = [i for i, (_, _, lo, _) in enumerate(calls) if lo]
    for i in highs:
        _, n_out, h, high = calls[i]
        rest = calls[i + 1][0]
        top = num if i == highs[-1] else None
        assert type(high) is bytes and type(rest) is bytes
        assert list(rest) == newton_rest_oracle(top, high, h, n_out, m)
    one = bytes((1,)) + bytes(n - 1)
    support = [(k, c) for k, c in enumerate(den) if c and k]
    expected = _div_sparse(one if num is None else num, support, ring.inverse(den[0]), n, ring)
    assert type(quotient) is bytes and list(quotient) == expected


def kernel_spies(monkeypatch):
    """Record the name of every product kernel ``_convolve`` runs."""
    ran = []
    for name in ("_conv_schoolbook", "_conv_kronecker", "_conv_decimal"):
        kernel = getattr(qseries, name)

        def spy(*args, _kernel=kernel, _name=name):
            ran.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(qseries, name, spy)
    return ran


def test_integer_kernel_at_the_benchmark_shape(monkeypatch):
    # 1/eta to 4096 slots over Z, and its square: products of the
    # Ramanujan identity's right side
    inv = QSeries(0, eta_coeffs(4096), INTEGER).invert()
    square = inv * inv
    for a, b in ((inv, inv), (square, square), (inv, square)):
        bound = _slot_bound(a.slots, b.slots, 4096, INTEGER)
        assert _transform_product(4096, bound, INTEGER)[1] is _conv_decimal
    slow = _conv_kronecker(inv.slots, square.slots, 4096, INTEGER)
    ran = kernel_spies(monkeypatch)
    assert list((inv * square).coeffs) == slow
    assert ran == ["_conv_decimal"]


@pytest.mark.parametrize("n, kernel", [(8, "_conv_schoolbook"), (128, "_conv_kronecker")])
def test_integer_kernel_at_small_sizes(monkeypatch, n, kernel):
    inv = QSeries(0, eta_coeffs(n), INTEGER).invert()
    expected = _conv_schoolbook(inv.slots, inv.slots, n, INTEGER)
    ran = kernel_spies(monkeypatch)
    assert list((inv * inv).coeffs) == expected
    assert ran == [kernel]


def test_integer_products_without_libmpdec_use_kronecker(monkeypatch):
    inv = QSeries(0, eta_coeffs(1500), INTEGER).invert()
    bound = _slot_bound(inv.slots, inv.slots, 1500, INTEGER)
    assert _transform_product(1500, bound, INTEGER)[1] is _conv_decimal
    with_decimal = (inv * inv).coeffs
    monkeypatch.setitem(sys.modules, "_decimal", None)  # import now fails
    assert _transform_product(1500, bound, INTEGER)[1] is _conv_kronecker
    ran = kernel_spies(monkeypatch)
    assert (inv * inv).coeffs == with_decimal
    assert ran == ["_conv_kronecker"]


def test_no_integer_decimal_kernel_past_the_int_str_limit():
    # over Z the digit groups hold 2 * bound: past the limit, Kronecker runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")
    big = 10 ** (limit // 2)  # 2 * big^2 has one digit more than the limit
    bound = _slot_bound([big], [-big], 1, INTEGER)
    assert _decimal_digits(bound, INTEGER) is None
    assert _transform_product(10**6, bound, INTEGER)[1] is _conv_kronecker
    a = series(0, [big, -2, 3])
    assert list((a * a).coeffs) == _conv_schoolbook(a.coeffs, a.coeffs, 3, INTEGER)

def eta_coeffs(prec):
    coeffs = [0] * prec
    for k in range(-prec, prec):
        e = k * (3 * k + 1) // 2
        if 0 <= e < prec:
            coeffs[e] = -1 if k % 2 else 1
    return coeffs


# --------------------------------------------------------------------- pow


def test_pow_square():
    assert (series(0, (1, 1, 0)) ** 2).coeffs == (1, 2, 1)


def test_pow_zero_is_one():
    s = series(Fraction(5, 24), (3, 1, 4))
    assert s**0 == monomial(0, INTEGER, 3)


def test_pow_negative_one_of_eta_gives_partitions():
    from qsift.generators import eta_series

    inv = eta_series(7) ** -1
    assert inv.offset == Fraction(-1, 24)
    assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11)


def test_pow_matches_repeated_mul():
    rng = random.Random(5)
    s = random_series(rng, integer_mod(11), 9)
    prod = s
    for e in range(2, 7):
        prod = prod * s
        assert s**e == prod


@st.composite
def sparse_powers(draw):
    """(a, support, e) for a**e over Z: a has constant slot +-1 and its other
    nonzero slots on a lattice d in {1, 2, 3, 5}, all +-1 or up to 2^200 in
    magnitude; e is in +-2..+-12, and the sizes reach past the crossover of
    ``_miller_is_cheaper`` (eta**-2 turns to Miller at about 200 slots)."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    big = draw(st.booleans())
    n = draw(st.integers(1, 60 if big else 300))  # big slots grow fast
    values = ring_values(INTEGER).filter(bool) if big else st.sampled_from((1, -1))
    ks = sorted(draw(st.sets(st.integers(1, n + 4).map(lambda k: k * d), max_size=40)))
    a = [0] * n
    a[0] = draw(unit(INTEGER))
    support = []
    for k in ks:
        if k < n:
            a[k] = draw(values)
            support.append((k, a[k]))
    return a, support, draw(st.integers(2, 12)) * draw(st.sampled_from((1, -1)))


@given(case=sparse_powers())
@settings(max_examples=120, deadline=None)
def test_pow_sparse_matches_divisions_and_products(case, div_sparse_oracle):
    # a**e as |e| sparse divisions of 1 for e < 0, as e - 1 schoolbook
    # products for e > 0; both by Miller's recurrence and by ``**``
    a, support, e = case
    n = len(a)
    if e < 0:
        expected = [1] + [0] * (n - 1)
        for _ in range(-e):
            expected = div_sparse_oracle(expected, support, a[0], n, INTEGER)
    else:
        expected = a
        for _ in range(e - 1):
            expected = _conv_schoolbook(expected, a, n, INTEGER)
    assert _pow_sparse(support, a[0], e, n) == expected
    power = QSeries(Fraction(1, 24), a, INTEGER) ** e
    assert list(power.coeffs) == expected and power.offset == Fraction(e, 24)


@pytest.mark.parametrize("e", [-6, -2, 2])
def test_pow_is_raised_on_both_sides_of_the_crossover(e, div_sparse_oracle):
    # eta**e by the price's pick at 64 slots and at 300, and by the other way
    picks = []
    for n in (64, 300):
        eta = QSeries(0, eta_coeffs(n), INTEGER)
        support = [(k, c) for k, c in enumerate(eta.coeffs) if c and k]
        picks.append(_miller_is_cheaper(eta.slots, support, e))
        assert list((eta**e).coeffs) == _pow_sparse(support, 1, e, n)
    assert picks == {-6: [True, True], -2: [False, True], 2: [False, False]}[e]


def pow_sparse_spy(monkeypatch):
    """Record the exponent of every power that runs ``_pow_sparse``."""
    ran, kernel = [], qseries._pow_sparse

    def spy(support, a0, e, n_out):
        ran.append(e)
        return kernel(support, a0, e, n_out)

    monkeypatch.setattr(qseries, "_pow_sparse", spy)
    return ran


def test_negative_powers_of_eta_over_z_run_millers_recurrence(monkeypatch):
    from qsift.generators import eta_series

    eta = eta_series(4096)
    inverse = eta.invert()
    ran = pow_sparse_spy(monkeypatch)
    power = eta**-6
    assert ran == [-6]
    assert eta**-1 == inverse and ran == [-6]
    monkeypatch.undo()
    cube = inverse * inverse * inverse
    assert power == cube * cube


@pytest.mark.parametrize("m", [2, 3, 41, 205, 355])
def test_powers_over_z_mod_m_run_no_recurrence(monkeypatch, m):
    from qsift.generators import eta_series

    exponents = (-6, -2, -1, 2, 5)
    expected = [(eta_series(4096) ** e).reduce_mod(m) for e in exponents]
    eta = eta_series(4096, integer_mod(m))
    ran = pow_sparse_spy(monkeypatch)
    assert [eta**e for e in exponents] == expected
    assert ran == []


def test_pow_of_a_series_in_q_power_is_spread_from_its_slice():
    from qsift.generators import eta_series

    for ring in (INTEGER, integer_mod(3), integer_mod(355)):
        eta5 = eta_series(820, ring).substitute_power(5)
        for e in (5, -3):
            power = eta5**e
            assert power.prec == eta5.prec and power.offset == eta5.offset * e
            assert power == (eta_series(820, ring) ** e).substitute_power(5)
    constant = series(Fraction(1, 3), [-1, 0, 0, 0])
    assert constant**-3 == series(Fraction(-1), [-1, 0, 0, 0])
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, [2, 0, 1]) ** -2
    with pytest.raises(NonUnitLeadingCoefficient):
        series(0, [2, 0, 1, 0, 0, 1]) ** -4


# -------------------------------------------------------------- reduce_mod


def test_reduce_mod_integers():
    s = series(0, (1, 3, 5))
    assert s.reduce_mod(3).coeffs == (1, 0, 2)


def test_reduce_mod_from_compatible_mod():
    s = series(0, (1, 3, 5), integer_mod(6))
    assert s.reduce_mod(3).ring == integer_mod(3)


def test_reduce_mod_incompatible():
    with pytest.raises(IncompatibleModulus):
        series(0, (1,), integer_mod(5)).reduce_mod(3)
    with pytest.raises(IncompatibleModulus):
        series(0, (1,), integer_mod(4)).reduce_mod(8)


@pytest.mark.parametrize("m", [3, 355])
def test_reduce_mod_to_its_own_modulus_is_the_series_itself(m):
    s = series(Fraction(1, 24), (1, 3, 5, 7), integer_mod(m))
    assert s.reduce_mod(m) is s


# ------------------------------------------------- extract / substitute


def test_extract_progression_identity():
    s = series(Fraction(-1, 24), (1, 1, 2, 3, 5))
    assert s.extract_progression(1, 0) == s


def test_extract_partition_mod5_slots(partition_oracle):
    from qsift.generators import eta_quotient, EtaQuotientSpec

    part = eta_quotient(EtaQuotientSpec(((1, -1),)), 16)
    sub = part.extract_progression(5, 4)
    p = partition_oracle(15)
    assert sub.coeffs == (p[4], p[9], p[14])
    assert sub.coeffs == (5, 30, 135)
    assert all(c % 5 == 0 for c in sub.coeffs)
    assert sub.offset == (Fraction(-1, 24) + 4) / 5


def test_extract_vs_coefficient_at():
    rng = random.Random(11)
    s = random_series(rng, INTEGER, 23, offset_choices=(Fraction(-1, 24),))
    for m, t in ((2, 1), (3, 0), (5, 4), (7, 3)):
        sub = s.extract_progression(m, t)
        for n in range(sub.prec):
            exp = s.offset + m * n + t
            assert sub.coeffs[n] == s.coefficient_at(exp)


def test_substitute_power():
    assert series(0, (1, 1)).substitute_power(2).coeffs == (1, 0, 1, 0)
    assert series(Fraction(-1, 24), (1,)).substitute_power(5).offset == Fraction(-5, 24)


def test_substitute_then_extract_recovers():
    rng = random.Random(3)
    for ring in (INTEGER, integer_mod(5)):
        s = random_series(rng, ring, 14, offset_choices=(Fraction(1, 24), 0))
        for k in (2, 3, 5):
            assert s.substitute_power(k).extract_progression(k, 0) == s


# ---------------------------------------------------------- coefficient_at


def test_coefficient_at_basic():
    s = series(Fraction(-1, 24), (1, 1))
    assert s.coefficient_at(Fraction(-1, 24)) == 1
    assert s.coefficient_at(0) is None
    assert s.coefficient_at(Fraction(-49, 24)) == 0  # integral gap below offset


def test_coefficient_at_beyond_precision():
    with pytest.raises(BeyondPrecision):
        series(0, (1, 1)).coefficient_at(5)


# -------------------------------------------------------- ring properties


@pytest.mark.parametrize("ring", RINGS)
def test_ring_axioms(ring):
    rng = random.Random(f"axioms:{ring}")
    for _ in range(15):
        a = random_series(rng, ring, rng.randint(1, 9))
        b = random_series(rng, ring, rng.randint(1, 9))
        c = random_series(rng, ring, rng.randint(1, 9))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


@pytest.mark.parametrize("op", ["add", "mul", "pow", "extract"])
def test_reduce_mod_commutes(op):
    rng = random.Random(f"commute:{op}")
    for _ in range(15):
        a = random_series(rng, INTEGER, rng.randint(4, 12))
        b = random_series(rng, INTEGER, rng.randint(4, 12))
        m = rng.choice((2, 3, 5, 12))
        if op == "add":
            left = (a + b).reduce_mod(m)
            right = a.reduce_mod(m) + b.reduce_mod(m)
        elif op == "mul":
            left = (a * b).reduce_mod(m)
            right = a.reduce_mod(m) * b.reduce_mod(m)
        elif op == "pow":
            e = rng.randint(1, 5)
            left = (a**e).reduce_mod(m)
            right = a.reduce_mod(m) ** e
        else:
            step, t = rng.choice(((2, 1), (3, 2), (4, 0)))
            left = a.extract_progression(step, t).reduce_mod(m)
            right = a.reduce_mod(m).extract_progression(step, t)
        assert left == right


# ------------------------------------------------------------ byte storage
#
# Over Z/m with m <= 256 a series stores its residues as bytes.  Every
# operation on such a series must equal the same operation over Z/(k m),
# a modulus past 256 that stores tuples, reduced to Z/m (reduction is a ring
# homomorphism).  The sizes straddle the kernel crossovers for dense
# factors: schoolbook and the recurrence (1-20), Kronecker with the
# recurrence (40) and with Newton (300), the decimal kernel (5000).

STORAGE_MODULI = (2, 3, 9, 255, 256, 257)
STORAGE_SIZES = (1, 2, 20, 40, 300, 5000)


@pytest.mark.parametrize("m", STORAGE_MODULI)
@pytest.mark.parametrize("n", STORAGE_SIZES)
def test_byte_storage_matches_tuple_storage(m, n):
    ring, wide = integer_mod(m), integer_mod(m * (512 // m + 1))
    rng = random.Random(f"storage:{m}:{n}")
    raw_a = [rng.randrange(-wide.modulus, wide.modulus) for _ in range(n)]
    raw_b = [1] + [rng.randrange(-wide.modulus, wide.modulus) for _ in range(n + 1)]
    a, wa = (QSeries(Fraction(1, 24), raw_a, r) for r in (ring, wide))
    b, wb = (QSeries(Fraction(-23, 24), raw_b, r) for r in (ring, wide))
    assert type(a.slots) is (bytes if m <= 256 else tuple)
    assert type(wa.slots) is tuple

    def same(byte_result, tuple_result):
        assert byte_result == tuple_result.reduce_mod(m)
        assert byte_result.coeffs == tuple_result.reduce_mod(m).coeffs

    same(a + b, wa + wb)
    same(a - b, wa - wb)
    same(-a, -wa)
    same(a * b, wa * wb)
    same(a * a, wa * wa)
    same(a / b, wa / wb)
    same(b.invert(), wb.invert())
    same(a**3, wa**3)
    same(b**-2, wb**-2)
    same(a.substitute_power(3), wa.substitute_power(3))
    if n > 1:
        same(a.extract_progression(2, 1), wa.extract_progression(2, 1))
    d = max(p for p in (2, 3, 5, 257) if m % p == 0)
    assert a.reduce_mod(d) == wa.reduce_mod(d)
    for k in range(n):
        assert a.coefficient_at(Fraction(1, 24) + k) == wa.coefficient_at(
            Fraction(1, 24) + k
        ) % m


@pytest.mark.parametrize("ring", [integer_mod(3), integer_mod(257), INTEGER, integer_mod(2)])
def test_coeffs_is_one_tuple_kept_after_first_access(ring):
    s = QSeries(Fraction(0), [1, 5, -2], ring) * QSeries(Fraction(0), [1, 1, 1], ring)
    assert type(s.coeffs) is tuple
    assert s.coeffs is s.coeffs
    with pytest.raises(AttributeError):
        s.slots = (0, 0, 0)


def test_equal_series_hash_equal_whichever_path_built_them():
    ring = integer_mod(3)
    a = QSeries(Fraction(0), [1, 2, 0, 1, 1], ring)
    product = a * a  # a kernel result, taken without normalizing
    built = [
        product,
        QSeries(Fraction(0), product.coeffs, ring),
        QSeries(Fraction(0), [c + 3 * k for k, c in enumerate(product.coeffs)], ring),
        QSeries(Fraction(0), bytes(c + 3 for c in product.coeffs), ring),
        QSeries(Fraction(0), product.coeffs, integer_mod(9)).reduce_mod(3),
        (a.substitute_power(2) * a.substitute_power(2)).extract_progression(2, 0),
    ]
    for series_ in built:
        assert type(series_.slots) is bytes
        assert series_ == product
        assert hash(series_) == hash(product)
    assert len(set(built)) == 1
    assert QSeries(Fraction(0), product.coeffs, integer_mod(257)) != product


@pytest.mark.parametrize("ring", [integer_mod(3), integer_mod(355), INTEGER], ids=str)
def test_series_survives_pickle_and_deepcopy(ring):
    import copy
    import pickle

    s = QSeries(Fraction(-1, 24), [1, -2, 0, 5, 354, Fraction(7, 1)], ring)
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert copied == s and hash(copied) == hash(s)
        assert (copied.offset, copied.ring, copied.coeffs) == (s.offset, s.ring, s.coeffs)
        assert type(copied.slots) is (bytes if ring.stores_bytes else tuple)
        assert [type(c) for c in copied.slots] == [type(c) for c in s.slots]


# ------------------------------------------------------------------- str


def test_str_at_zero_offset():
    s = QSeries(Fraction(0), [1, 0, -2, 3], INTEGER)
    assert str(s) == "1*q^0 + -2*q^2 + 3*q^3 + O(q^4)"


def test_str_at_a_fractional_offset():
    s = QSeries(Fraction(-1, 24), [1, 1, 2], INTEGER)
    assert str(s) == "q^(-1/24)*(1*q^0 + 1*q^1 + 2*q^2) + O(q^(71/24))"
    s = QSeries(Fraction(2), [1, 0, -3], INTEGER)
    assert str(s) == "q^(2)*(1*q^0 + -3*q^2) + O(q^(5))"


def test_str_of_the_zero_series():
    assert str(QSeries(Fraction(0), [0, 0, 0], integer_mod(5))) == "0 + O(q^3)"
    assert str(QSeries(Fraction(1, 3), [0, 0], INTEGER)) == "q^(1/3)*(0) + O(q^(7/3))"


def test_str_shows_exactly_six_nonzero_slots_without_an_ellipsis():
    for coeffs in ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0, 0]):
        s = QSeries(Fraction(0), coeffs, INTEGER)
        assert str(s) == (
            f"1*q^0 + 2*q^1 + 3*q^2 + 4*q^3 + 5*q^4 + 6*q^5 + O(q^{len(coeffs)})"
        )


def test_str_hides_a_seventh_nonzero_slot_behind_an_ellipsis():
    s = QSeries(Fraction(0), [1, 2, 3, 4, 5, 6, 7], INTEGER)
    assert str(s) == "1*q^0 + 2*q^1 + 3*q^2 + 4*q^3 + 5*q^4 + 6*q^5 + ... + O(q^7)"


def test_str_shows_six_nonzero_slots_then_an_ellipsis():
    s = QSeries(Fraction(0), [0] + list(range(1, 10)), integer_mod(7))
    # 7 reduces to 0, so the six shown are 1..6 at slots 1..6
    assert str(s) == (
        "1*q^1 + 2*q^2 + 3*q^3 + 4*q^4 + 5*q^5 + 6*q^6 + ... + O(q^10)"
    )


@pytest.mark.parametrize("n", [0, 1, 3, 5, 8])
def test_prefix_nonzeros_counts_the_same_on_bytes_lists_and_tuples(n):
    values = [0, 3, 0, 0, 1, 2]
    expected = sum(1 for v in values[:n] if v)
    for form in (bytes(values), list(values), tuple(values)):
        assert qseries._prefix_nonzeros(form, n) == expected


def test_ring_inverse_of_units_and_non_units():
    assert integer_mod(9).inverse(4) == 7
    assert integer_mod(9).inverse(-2) == 4
    assert INTEGER.inverse(-1) == -1 and INTEGER.inverse(1) == 1
    for ring, value in ((integer_mod(9), 6), (INTEGER, 2), (INTEGER, 0)):
        with pytest.raises(NonUnitLeadingCoefficient, match=f"is not a unit in {ring}"):
            ring.inverse(value)


def test_the_rings_are_z_and_z_mod_m():
    # Q went with the theta series' fills: they are eta-quotients over Z
    assert not hasattr(qseries, "RATIONAL")
    for kind in ("rat", "Q"):
        with pytest.raises(ValueError, match="unknown ring kind"):
            CoefficientRing(kind)
