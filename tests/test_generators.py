"""Tests for the generating-function constructors and their oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsift import generators, qseries
from qsift.generators import (
    THETA_SERIES,
    EtaQuotientSpec,
    UnknownSeries,
    build_series,
    catalog,
    catalog_entry,
    eta_quotient,
    eta_series,
    mock_f,
    mock_omega,
)
from qsift.generators import (
    _build_plan,
    _digit_plans,
    _ell_rewrite,
    _euler_product,
    _frobenius_factors,
    _jacobi_cube,
    _pentagonal_ks,
    _pick_plan,
    _plan_steps,
    _series_offset,
    _triangular_count,
    level_mod_ell,
    resolve_series,
)
from qsift.qseries import INTEGER, QSeries, monomial, integer_mod
from qsift.scanner import _omega_parity_js, verify_known
from test_scanner import _class_totals


# ---------------------------------------------------------------- eta


def test_eta_first_slots():
    eta = eta_series(6)
    assert eta.offset == Fraction(1, 24)
    assert eta.coeffs == (1, -1, -1, 0, 0, 1)


def test_eta_leading_exponent():
    assert eta_series(3).coefficient_at(Fraction(1, 24)) == 1


def test_eta_matches_product_expansion(euler_product_oracle):
    prec = 80
    assert list(eta_series(prec).coeffs) == euler_product_oracle(prec)


def test_eta_pentagonal_support():
    eta = eta_series(120)
    support = {k * (3 * k + 1) // 2 for k in range(-10, 11)}
    for n, c in enumerate(eta.coeffs):
        assert (c != 0) == (n in support)


# ------------------------------------------------------------ eta quotient


def test_partition_series(partition_oracle):
    part = eta_quotient(EtaQuotientSpec(((1, -1),)), 60)
    assert part.offset == Fraction(-1, 24)
    assert list(part.coeffs) == partition_oracle(59)
    assert part.coeffs[:6] == (1, 1, 2, 3, 5, 7)


def test_partition_times_eta_is_one():
    prec = 40
    part = eta_quotient(EtaQuotientSpec(((1, -1),)), prec)
    assert part * eta_series(prec) == monomial(0, INTEGER, prec)


def test_inverse_eta_gives_the_classical_partition_values():
    # p(200), computed by MacMahon for Hardy and Ramanujan (1918), and p(1000)
    part = eta_series(1001, INTEGER).invert()
    assert part.offset == Fraction(-1, 24)
    assert part.coeffs[200] == 3972999029388
    assert part.coeffs[1000] == 24061467864032622473692149727991


def test_cubic_example():
    cubic = eta_quotient(catalog_entry("cubic").spec, 10)
    assert cubic.offset == Fraction(-3, 24)
    assert cubic.coeffs[3] == 4  # four cubic partitions of 3


def test_crank_diff_offset():
    spec = catalog_entry("crank_diff").spec
    assert spec.B == 1 * 3 + 2 * -2 == -1
    series = eta_quotient(spec, 8)
    assert series.offset == Fraction(-1, 24)
    assert series.coeffs[0] == 1


def _truncate(series, prec):
    from qsift.qseries import QSeries

    return QSeries(series.offset, series.coeffs[:prec], series.ring)


def test_eta_quotient_matches_generic_power_route():
    # sparse construction agrees with substitute_power + generic pow
    for factors in (((1, -2),), ((1, -1), (2, -1)), ((1, 3), (2, -2)), ((2, 2),)):
        spec = EtaQuotientSpec(factors)
        prec = 30
        generic = monomial(0, INTEGER, prec)
        for delta, r in factors:
            base = _truncate(eta_series(prec).substitute_power(delta), prec)
            generic = generic * base**r
        assert eta_quotient(spec, prec) == generic


def test_multipartition_is_eta_power():
    for k in (2, 3):
        prec = 25
        quotient = eta_quotient(EtaQuotientSpec(((1, -k),)), prec)
        assert quotient == eta_series(prec) ** -k


def test_eta_quotient_stores_the_kernel_result(monkeypatch):
    # the last product's slots are already in the ring: the only normalizing
    # constructions are the fills, one per sparse factor of the plan (J_1,
    # E_2 and E_3 over Z and Z/355; over Z/5 those of the priced plan)
    built = []
    init = QSeries.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(QSeries, "__init__", spy)
    spec = EtaQuotientSpec(((1, 3), (2, -1), (3, 2)))
    for ring in (INTEGER, integer_mod(5), integer_mod(355)):
        built.clear()
        series = eta_quotient(spec, 300, ring)
        _, _, numerator, denominator = _plan_steps(_pick_plan(spec, 300, ring), 300)
        sparse = {(delta, cube) for delta, cube, _ in numerator + denominator}
        assert len(built) == len(sparse)
        assert len(built) == 3 or ring == integer_mod(5)
        assert QSeries(series.offset, series.slots, ring) == series


def test_eta_quotient_mod_ring_matches_reduction():
    rng = random.Random(10)
    for _ in range(8):
        factors = []
        used = set()
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            if d in used:
                continue
            used.add(d)
            factors.append((d, rng.choice((-3, -2, -1, 1, 2, 3))))
        if not factors:
            continue
        spec = EtaQuotientSpec(tuple(factors))
        m = rng.choice((2, 3, 5))
        direct = eta_quotient(spec, 40, integer_mod(m))
        reduced = eta_quotient(spec, 40).reduce_mod(m)
        assert direct == reduced


# Z/ell with ell prime, where the Frobenius rewrite fires, and prime powers
# and a composite, where it must not.
PRIME_RINGS = tuple(integer_mod(m) for m in (2, 3, 5, 7))
NON_PRIME_RINGS = tuple(integer_mod(m) for m in (4, 9, 25, 6))

# 1-3 slots, and either side of the schoolbook/Kronecker product and the
# sparse/Newton division crossovers (near 50 and 150-300 slots here).
EDGE_PRECS = (1, 2, 3, 20, 60, 150, 300, 600)


@st.composite
def eta_specs(draw):
    deltas = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    exponents = [draw(st.integers(-6, 6).filter(bool)) for _ in deltas]
    return EtaQuotientSpec(tuple(zip(deltas, exponents)))


@pytest.mark.parametrize("ring", PRIME_RINGS + NON_PRIME_RINGS, ids=str)
@given(
    spec=eta_specs(),
    prec=st.one_of(st.sampled_from(EDGE_PRECS), st.integers(1, 600)),
)
@settings(max_examples=25, deadline=None)
def test_eta_quotient_matches_pass_oracle_mod_m(ring, spec, prec, eta_quotient_oracle):
    series = eta_quotient(spec, prec, ring)
    assert series.offset == Fraction(spec.B, 24)
    assert list(series.coeffs) == eta_quotient_oracle(spec.factors, prec, ring.modulus)


@given(
    spec=eta_specs(),
    prec=st.one_of(st.sampled_from(EDGE_PRECS[:5]), st.integers(1, 500)),
)
@settings(max_examples=40, deadline=None)
def test_eta_quotient_matches_pass_oracle_over_z(spec, prec, eta_quotient_oracle):
    series = eta_quotient(spec, prec)
    assert series.offset == Fraction(spec.B, 24)
    assert list(series.coeffs) == eta_quotient_oracle(spec.factors, prec)


def test_frobenius_rewrite_examples():
    cphi2, core4 = catalog_entry("cphi2").spec, catalog_entry("core4").spec
    assert _frobenius_factors(cphi2, integer_mod(5)) == ((1, -4), (4, -2), (10, 1))
    assert _frobenius_factors(core4, integer_mod(2)) == ((1, -1), (16, 1))
    # mod 2 the odd exponent 5 stays; 1^-4 and 4^-2 become (4, -1), (8, -1)
    assert _frobenius_factors(cphi2, integer_mod(2)) == ((2, 5), (4, -1), (8, -1))


@pytest.mark.parametrize("ring", (INTEGER,) + NON_PRIME_RINGS, ids=str)
def test_frobenius_rewrite_needs_a_prime_modulus(ring):
    for name in ("cphi2", "core4", "multipartition_3", "crank_diff"):
        spec = catalog_entry(name).spec
        assert _frobenius_factors(spec, ring) == spec.factors


@pytest.mark.parametrize("ring", PRIME_RINGS, ids=str)
def test_frobenius_rewrite_changes_nothing_mod_ell(ring, eta_quotient_oracle):
    ell, prec = ring.modulus, 200
    for factors in (((1, ell),), ((1, -2 * ell), (3, ell)), ((2, ell * ell), (5, -1))):
        spec = EtaQuotientSpec(factors)
        rewritten = _frobenius_factors(spec, ring)
        assert rewritten != spec.factors
        assert sum(d * r for d, r in rewritten) == spec.B
        assert eta_quotient_oracle(rewritten, prec, ell) == eta_quotient_oracle(
            factors, prec, ell
        )


def test_frobenius_rewrite_can_cancel_every_factor():
    # eta(q)^7 / eta(q^7) = 1 mod 7, and eta(q)^2 / eta(q^2) = 1 mod 2
    for factors, m in ((((1, 7), (7, -1)), 7), (((1, 2), (2, -1)), 2)):
        spec = EtaQuotientSpec(factors)
        assert _frobenius_factors(spec, integer_mod(m)) == ()
        series = eta_quotient(spec, 50, integer_mod(m))
        assert series.offset == 0
        assert series == monomial(0, integer_mod(m), 50)
        assert series == eta_quotient(spec, 50).reduce_mod(m)


def test_frobenius_rewrite_merges_until_no_exponent_is_divisible_by_ell():
    ring = integer_mod(2)
    # 1^2 -> 2^1 merges with 2^1 into 2^2 -> 4^1, which cancels 4^-1
    spec = EtaQuotientSpec(((1, 2), (2, 1), (4, -1)))
    assert _frobenius_factors(spec, ring) == ()
    assert eta_quotient(spec, 60, ring) == monomial(0, ring, 60)
    assert eta_quotient(spec, 60).reduce_mod(2) == monomial(0, ring, 60)
    # 3^2 -> 6^1 merges with 6^1 into 6^2 -> 12^1, which cancels 12^-1
    spec = EtaQuotientSpec(((3, 2), (5, -1), (6, 1), (12, -1)))
    assert _frobenius_factors(spec, ring) == ((5, -1),)
    assert eta_quotient(spec, 60, ring) == eta_quotient(spec, 60).reduce_mod(2)


def test_level_mod_ell_is_the_lcm_and_gcd_of_the_rewritten_deltas():
    cphi2 = catalog_entry("cphi2").spec
    assert level_mod_ell(cphi2, 2) == (8, 2)  # (2, 5), (4, -1), (8, -1)
    assert level_mod_ell(cphi2, 5) == (20, 1)  # (1, -4), (4, -2), (10, 1)
    # E_1^2 / E_2 = 1 mod 2: no delta is left
    assert level_mod_ell(EtaQuotientSpec(((1, 2), (2, -1))), 2) == (1, 0)
    # no exponent divisible by 3: the deltas as given
    assert level_mod_ell(EtaQuotientSpec(((3, 1), (6, -2))), 3) == (6, 3)


def test_spec_values_are_computed_once_and_stay_out_of_equality_and_pickles(monkeypatch):
    import copy
    import pickle

    calls = []
    monkeypatch.setattr(
        generators, "_ell_rewrite", lambda *a: calls.append(a) or _ell_rewrite(*a)
    )
    spec = EtaQuotientSpec(((2, 5), (1, -4), (4, -2)))  # cphi2
    fresh = pickle.dumps(EtaQuotientSpec(((1, -4), (2, 5), (4, -2))))
    for _ in range(3):
        assert (spec.B, spec.weight_twice, spec.level, str(spec)) == (-2, -1, 4, "1^-4,2^5,4^-2")
        assert level_mod_ell(spec, 2) == (8, 2) and level_mod_ell(spec, 5) == (20, 1)
    assert calls == [(spec.factors, 2), (spec.factors, 5)]
    twin = EtaQuotientSpec(spec.factors)
    assert spec == twin and hash(spec) == hash(twin)
    assert pickle.dumps(spec) == fresh
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert copied == spec and str(copied) == str(spec)
        assert level_mod_ell(copied, 2) == (8, 2)


# ------------------------------------------------- closed-form term ranges


def _edge_precs(exponent, ks) -> list[int]:
    """Every positive prec equal to a term's exponent or one either side."""
    return sorted({exponent(k) + d for k in ks for d in (-1, 0, 1)} - {-1, 0})


def _ks_below(sparse_terms_oracle, exponent, prec: int, least: int | None = None):
    """The k of the terms with exponent(k) < prec, k >= least, ascending."""
    ks = (k for _, k in sparse_terms_oracle(exponent, prec))
    return sorted(k for k in ks if least is None or k >= least)


@pytest.mark.parametrize("delta", range(1, 13))
def test_term_ranges_are_the_brute_force_terms(delta, sparse_terms_oracle):
    def pentagonal(k):
        return delta * k * (3 * k + 1) // 2

    def triangular(k):
        return delta * k * (k + 1) // 2

    for prec in _edge_precs(pentagonal, range(-25, 26)):
        ks = _ks_below(sparse_terms_oracle, pentagonal, prec)
        assert list(_pentagonal_ks(prec, delta)) == ks
    for prec in _edge_precs(triangular, range(50)):
        ks = _ks_below(sparse_terms_oracle, triangular, prec, 0)
        assert list(range(_triangular_count(prec, delta))) == ks


def test_omega_parity_range_is_the_brute_force_terms(sparse_terms_oracle):
    def parity(j):
        return 6 * j * j + 4 * j

    for prec in _edge_precs(parity, range(-30, 31)):
        assert list(_omega_parity_js(prec)) == _ks_below(sparse_terms_oracle, parity, prec)


def test_mock_numerators_fill_exactly_the_brute_force_terms(monkeypatch, sparse_terms_oracle):
    # the first fill of a mock build is its numerator's: mock_f's is 1 then
    # one head and one tail per k, steps 2k; mock_omega's one head and one
    # tail per n, steps prec and 2n + 1
    numerators = []
    sparse_sum = generators._sparse_sum

    def spy(prec, ring, fills, *args):
        fills = list(fills)
        numerators.append(fills)
        return sparse_sum(prec, ring, fills, *args)

    monkeypatch.setattr(generators, "_sparse_sum", spy)

    def f_head(k):
        return k * (3 * k + 1) // 2

    def omega_head(n):
        return 3 * n * (n + 1)

    for prec in _edge_precs(f_head, range(1, 31)):
        numerators.clear()
        mock_f(prec)
        fills = numerators[0]
        heads = fills[1 : 1 + len(fills) // 2]
        ks = _ks_below(sparse_terms_oracle, f_head, prec, 1)
        assert [step // 2 for _, step, _ in heads] == ks
    for prec in _edge_precs(omega_head, range(31)):
        numerators.clear()
        mock_omega(prec)
        fills = numerators[0]
        tails = fills[len(fills) // 2 :]
        ns = _ks_below(sparse_terms_oracle, omega_head, prec, 0)
        assert [step // 2 for _, step, _ in tails] == ns


# ------------------------------------------------- Jacobi cubes and plans

JACOBI_RINGS = (INTEGER,) + tuple(integer_mod(m) for m in (2, 3, 5, 256, 257, 355))


@pytest.mark.parametrize("delta", range(1, 7))
def test_jacobi_cube_is_the_cube_of_the_euler_product(delta, eta_quotient_oracle):
    top = 10**4
    oracle = eta_quotient_oracle(((delta, 3),), top)  # over Z, then reduced
    for ring in JACOBI_RINGS:
        for prec in EDGE_PRECS + (top,):
            cube = _jacobi_cube(prec, delta, ring)
            assert cube == _euler_product(prec, delta, ring) ** 3
            assert list(cube.coeffs) == [ring.normalize(c) for c in oracle[:prec]]


def test_jacobi_cube_is_one_fill_and_no_product(monkeypatch):
    built, products = [], []
    init = QSeries.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(QSeries, "__init__", spy)
    monkeypatch.setattr(qseries, "_convolve", lambda *args: products.append(args))
    for ring in JACOBI_RINGS:
        for delta in range(1, 7):
            built.clear()
            _jacobi_cube(10**4, delta, ring)
            assert len(built) == 1
    assert products == []


@st.composite
def plan_specs(draw):
    deltas = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    exponents = [draw(st.integers(-12, 12).filter(bool)) for _ in deltas]
    return EtaQuotientSpec(tuple(zip(deltas, exponents)))


@pytest.mark.parametrize("ring", PRIME_RINGS, ids=str)
@given(
    spec=plan_specs(),
    prec=st.one_of(st.sampled_from(EDGE_PRECS), st.integers(1, 600)),
)
@settings(max_examples=40, deadline=None)
def test_every_plan_builds_the_quotient(ring, spec, prec, eta_quotient_oracle):
    # not only the pick: every plan priced keeps B and each class total, and
    # builds the slots of the canonical plan and of the oracle
    ell = ring.modulus
    canonical = _ell_rewrite(spec.factors, ell)
    plans = list(_digit_plans(canonical, ell, prec))
    assert plans[0] == canonical
    assert _pick_plan(spec, prec, ring) in plans
    totals = _class_totals(spec.factors, ell)
    expected = bytes(eta_quotient_oracle(spec.factors, prec, ell))
    assert _build_plan(canonical, prec, ring) == expected
    for plan in plans:
        assert sum(delta * r for delta, r in plan) == spec.B
        assert _class_totals(plan, ell) == totals
        assert _build_plan(plan, prec, ring) == expected


@pytest.mark.parametrize("ring", (INTEGER,) + NON_PRIME_RINGS, ids=str)
def test_plan_is_the_factors_as_given_without_a_prime_modulus(ring):
    for name in ("cphi2", "core4", "multipartition_3", "crank_diff"):
        spec = catalog_entry(name).spec
        assert _pick_plan(spec, 20000, ring) == spec.factors


def test_plan_writes_cubes_as_jacobi_sums():
    # 1^7 2^-4 5^2: E_1^7 = J_1^2 E_1, E_2^-4 = 1/(J_2 E_2), E_5^2 as it is
    plan = ((1, 7), (2, -4), (5, 2))
    g, n, numerator, denominator = _plan_steps(plan, 100)
    assert (g, n) == (1, 100)
    assert numerator == [(5, False, 2), (1, True, 2), (1, False, 1)]
    assert denominator == [(2, True, 1), (2, False, 1)]
    # deltas at or past prec are 1 to prec slots: no step builds them
    assert _plan_steps(((4, -1), (6, 2), (50, 3)), 50)[:2] == (2, 25)
    assert _plan_steps(((50, 3),), 50) == (0, 0, [], [])


def test_quotient_in_q_power_is_built_at_its_slice_length(monkeypatch, eta_quotient_oracle):
    fills = []
    sparse_sum = generators._sparse_sum

    def spy(prec, ring, *args):
        fills.append(prec)
        return sparse_sum(prec, ring, *args)

    monkeypatch.setattr(generators, "_sparse_sum", spy)
    spec = EtaQuotientSpec(((2, -1), (6, 4)))  # a series in q^2
    for ring in (INTEGER, integer_mod(5), integer_mod(355)):
        fills.clear()
        series = eta_quotient(spec, 301, ring)
        assert fills and set(fills) == {151}
        assert list(series.coeffs) == eta_quotient_oracle(spec.factors, 301, ring.modulus)


# ------------------------------------------------------------- mock theta


def test_mock_f_constant_term():
    assert mock_f(1).coeffs[0] == 1


def test_mock_f_matches_rank_oracle(rank_diff_oracle):
    f = mock_f(31)
    assert f.coeffs[0] == 1
    for n in range(1, 31):
        assert f.coeffs[n] == rank_diff_oracle(n)


def test_mock_f_parity_matches_partitions(partition_oracle):
    bound = 300
    f = mock_f(bound + 1)
    p = partition_oracle(bound)
    for n in range(bound + 1):
        assert (f.coeffs[n] - p[n]) % 2 == 0


def test_mock_f_mod_ring_matches_reduction():
    assert mock_f(200, integer_mod(3)) == mock_f(200).reduce_mod(3)


def test_mock_f_progression_leading_slot():
    sub = mock_f(12).extract_progression(3, 0)
    assert sub.coeffs[0] == 1  # a(0)


def test_eta_substitute_power_doubled_support():
    doubled = eta_series(40).substitute_power(2)
    assert doubled.offset == Fraction(2, 24)
    signs = {2 * (k * (3 * k + 1) // 2): (-1) ** k for k in range(-5, 6)}
    for n, c in enumerate(doubled.coeffs):
        assert c == signs.get(n, 0)


def test_mock_omega_values():
    w = mock_omega(13)
    assert w.coeffs == (1, 2, 3, 4, 6, 8, 10, 14, 18, 22, 29, 36, 44)


def test_mock_omega_matches_oracle(omega_partition_oracle):
    w = mock_omega(31)
    for n in range(31):
        assert w.coeffs[n] == omega_partition_oracle(n)


def test_mock_omega_parity_characterization():
    bound = 400
    w = mock_omega(bound + 1)
    odd_slots = set()
    for j in range(-20, 21):
        slot = 6 * j * j + 4 * j
        if 0 <= slot <= bound:
            odd_slots.add(slot)
    for n in range(bound + 1):
        assert (w.coeffs[n] % 2 == 1) == (n in odd_slots)


def test_mock_omega_mod_ring_matches_reduction():
    assert mock_omega(200, integer_mod(3)) == mock_omega(200).reduce_mod(3)


@pytest.mark.parametrize("prec", [1, 2, 3, 4, 17, 100, 3000])
def test_mock_builders_match_hypergeometric_over_z(
    prec, mock_f_oracle, mock_omega_oracle
):
    assert list(mock_f(prec).coeffs) == mock_f_oracle(prec)
    assert list(mock_omega(prec).coeffs) == mock_omega_oracle(prec)


@pytest.mark.parametrize("m", [2, 3, 9])
def test_mock_builders_match_hypergeometric_mod_m(m, mock_f_oracle, mock_omega_oracle):
    prec = 20000
    assert list(mock_f(prec, integer_mod(m)).coeffs) == mock_f_oracle(prec, m)
    assert list(mock_omega(prec, integer_mod(m)).coeffs) == mock_omega_oracle(prec, m)


def test_mock_builders_over_z9_reduce_to_z3(monkeypatch):
    # at P = 10^5 the Newton division's long products run on the decimal kernel
    import qsift.qseries

    prec = 100000
    kernel = qsift.qseries._conv_decimal
    seen = set()

    def spy(xs, ys, n_out, ring, lo=0, bound=None):
        if n_out >= prec // 2:
            seen.add(ring.modulus)
        return kernel(xs, ys, n_out, ring, lo, bound)

    monkeypatch.setattr(qsift.qseries, "_conv_decimal", spy)
    for build in (mock_f, mock_omega):
        seen.clear()
        assert build(prec, integer_mod(9)).reduce_mod(3) == build(prec, integer_mod(3))
        assert seen == {3, 9}


def test_mock_builders_over_z_reduce_to_z3():
    prec = 4000
    for build in (mock_f, mock_omega):
        assert build(prec).reduce_mod(3) == build(prec, integer_mod(3))


@pytest.mark.parametrize(
    "ring, prec",
    [(INTEGER, 2000)] + [(integer_mod(m), 20000) for m in (2, 3, 5, 7)],
    ids=str,
)
def test_watson_relation_ties_mock_f_omega_and_eta_quotient(ring, prec):
    # Watson (1936): f(q^8) + 2q omega(q) + 2q^3 omega(-q^4) is the
    # eta-quotient 1^-2,2^1,4^6,8^-4 without its q^(-1/3)
    f = mock_f(-(-prec // 8), ring).coeffs
    omega = mock_omega(prec, ring).coeffs
    lhs = [0] * prec
    lhs[::8] = f
    for n, w in enumerate(omega):
        if n + 1 < prec:
            lhs[n + 1] += 2 * w
        if 4 * n + 3 < prec:
            lhs[4 * n + 3] += 2 * (-1) ** n * w
    spec = EtaQuotientSpec(((1, -2), (2, 1), (4, 6), (8, -4)))
    rhs = eta_quotient(spec, prec, ring)
    assert rhs.offset == Fraction(-1, 3)
    assert rhs.coeffs == tuple(ring.normalize(v) for v in lhs)


def test_zero_classes_of_the_numerator_run_no_kernel(monkeypatch):
    # mod 3, E_1 / E_1000 divides by b(q^1000): one product with 1/b per
    # residue class of E_1 mod 1000, and most classes hold no pentagonal
    # number below 2*10^4, so they are zero and need no product
    spec, prec, ring = EtaQuotientSpec(((1, 1), (1000, -1))), 20000, integer_mod(3)
    factors = []
    for name in ("_conv_schoolbook", "_conv_kronecker", "_conv_decimal"):

        def spy(xs, ys, n_out, *rest, kernel=getattr(qseries, name)):
            factors.append((any(xs[:n_out]), any(ys[:n_out])))
            return kernel(xs, ys, n_out, *rest)

        monkeypatch.setattr(qseries, name, spy)
    series = eta_quotient(spec, prec, ring)
    monkeypatch.undo()
    assert factors and all(x and y for x, y in factors)
    assert series == eta_quotient(spec, prec).reduce_mod(3)


# ------------------------------------------------------------------ theta


def scaled_theta(index: int, prec: int) -> tuple[Fraction, list[Fraction]]:
    """g_index as (offset, coefficients): its scale times the integral
    eta-quotient that ``build_series`` builds for it."""
    name = f"theta_g{index}"
    series = build_series(name, prec)
    scale = THETA_SERIES[name][1]
    return series.offset, [scale * c for c in series.coeffs]


def test_theta_g1_leading(theta_oracle):
    for offset, g1 in (theta_oracle(1, 8), scaled_theta(1, 8)):
        assert offset == Fraction(1, 24)
        assert g1 == [
            Fraction(-1, 6), Fraction(5, 6), Fraction(-7, 6), 0, 0,
            Fraction(11, 6), 0, Fraction(-13, 6),
        ]


def test_theta_g0_leading(theta_oracle):
    # g0/g2 exponents live on a half-integer lattice, so both are stored in
    # the variable q^(1/2): the q-exponent 1/6 leading term sits at doubled
    # exponent 1/3.
    for offset, g0 in (theta_oracle(0, 6), scaled_theta(0, 6)):
        assert offset == Fraction(1, 3)
        assert g0[0] == Fraction(1, 3)


def test_theta_g0_plus_g2_cancellation(theta_oracle):
    prec = 80
    for (_, g0), (_, g2) in (
        (theta_oracle(0, prec), theta_oracle(2, prec)),
        (scaled_theta(0, prec), scaled_theta(2, prec)),
    ):
        total = [a + b for a, b in zip(g0, g2)]
        for n in range(-5, 6):
            slot = 3 * n * n + 2 * n
            if not 0 <= slot < prec:
                continue
            if n % 2:
                assert total[slot] == 0
            else:
                assert total[slot] == 2 * Fraction(3 * n + 1, 3)
        # nothing outside the support
        support = {3 * n * n + 2 * n for n in range(-8, 9)}
        for slot, c in enumerate(total):
            if slot not in support:
                assert c == 0


@pytest.mark.parametrize("index", [0, 1, 2])
def test_theta_g_matches_its_defining_sum(theta_oracle, index):
    # g_1 = sum -(n + 1/6) q^((6n+1)^2/24) and, in the variable q^(1/2),
    # g_0, g_2 = sum (-1)^n (n + 1/3), resp. (n + 1/3), q^((3n+1)^2/3),
    # each over n in Z; every term with |n| > 60 lies past slot 5000
    prec = 2000
    expected = {}
    for n in range(-60, 61):
        if index == 1:
            exponent, coef = Fraction((6 * n + 1) ** 2, 24), -(n + Fraction(1, 6))
        else:
            exponent, coef = Fraction((3 * n + 1) ** 2, 3), n + Fraction(1, 3)
            if index == 0 and n % 2:
                coef = -coef
        expected[exponent] = expected.get(exponent, 0) + coef
    offset, g = theta_oracle(index, prec)
    assert offset == min(expected)
    assert len(g) == prec
    for slot, c in enumerate(g):
        assert c == expected.get(offset + slot, 0), slot


@pytest.mark.parametrize("index", [0, 1, 2])
def test_theta_series_are_scaled_eta_quotients(theta_oracle, index):
    # g_1 = -1/6 * 1^5,2^-2, and in the variable q^(1/2)
    # g_0 = 1/3 * 1^-2,2^5 and g_2 = 1/3 * 1^2,2^-1,4^2
    assert scaled_theta(index, 2000) == theta_oracle(index, 2000)


# ---------------------------------------------------------------- oracles


def test_rank_oracle_small(rank_diff_oracle):
    assert rank_diff_oracle(0) == 1
    assert rank_diff_oracle(4) == -3  # ranks of the 5 partitions of 4
    assert rank_diff_oracle(5) == mock_f(6).coeffs[5]


def test_rank_oracle_bound(rank_diff_oracle):
    assert rank_diff_oracle(35) == mock_f(36).coeffs[35]


def test_omega_oracle_examples(omega_partition_oracle):
    assert omega_partition_oracle(0) == 1
    assert omega_partition_oracle(4) == 6  # the six decorated partitions of 5
    assert omega_partition_oracle(10) == mock_omega(11).coeffs[10]


# ---------------------------------------------------------------- catalog


def test_catalog_names_unique():
    names = [entry.name for entry in catalog()]
    assert len(names) == len(set(names))


def test_catalog_b_values():
    assert catalog_entry("cphi2").spec.B == -4 + 10 - 8 == -2
    assert catalog_entry("core4").spec.B == 15
    assert catalog_entry("crank_diff").spec.B == -1
    assert catalog_entry("cubic").spec.B == -3
    assert catalog_entry("eta5inv").spec.B == -5


def test_catalog_offsets_are_b_over_24():
    for entry in catalog():
        if isinstance(entry.spec, EtaQuotientSpec):
            series = eta_quotient(entry.spec, 5)
            assert series.offset == Fraction(entry.spec.B, 24)
            assert series.coeffs[0] == 1


def test_build_series_offset_is_the_derived_offset():
    # the one rule the cache reads the offset by: B/24 for an eta-quotient
    # (a theta series's own among them), 0 for f and omega
    rng = random.Random(35)
    specs = [entry.name for entry in catalog()]
    for _ in range(24):
        deltas = rng.sample(range(1, 13), rng.randint(1, 3))
        specs.append(EtaQuotientSpec(tuple((d, rng.choice((-3, -2, -1, 1, 2, 4))) for d in deltas)))
    for spec in specs:
        for modulus in (None,) if spec in THETA_SERIES else (None, 2, 3, 355):
            canonical = resolve_series(spec, modulus)[0]
            if isinstance(canonical, EtaQuotientSpec):
                expected = Fraction(canonical.B, 24)
            else:
                expected = 0
            assert _series_offset(canonical) == expected
            assert build_series(spec, 40, modulus).offset == expected, (spec, modulus)


def test_catalog_unknown():
    with pytest.raises(UnknownSeries):
        catalog_entry("nosuch")


@pytest.mark.parametrize("ell", (2, 3, 5, 7))
@pytest.mark.parametrize(  # a theta series takes no modulus
    "name", [entry.name for entry in catalog() if entry.name not in THETA_SERIES]
)
def test_a_shorter_build_is_a_prefix_of_a_longer_one(name, ell):
    # the CLI scan reads a 16*m_max-slot probe in place of its full budget
    # whenever every progression has a witness there, which rests on this
    full = build_series(name, 5000, ell)
    for prec in (31, 240, 480, 4096):
        part = build_series(name, prec, ell)
        assert part.offset == full.offset
        assert part.slots == full.slots[:prec]


def test_build_series_dispatch():
    assert build_series("mock_f", 5).coeffs == mock_f(5).coeffs
    assert build_series("theta_g1", 4) == eta_quotient(THETA_SERIES["theta_g1"][0], 4)
    with pytest.raises(ValueError):
        build_series("theta_g0", 4, modulus=3)


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaQuotientSpec(())
    with pytest.raises(ValueError):
        EtaQuotientSpec(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((0, 1),))
    with pytest.raises(ValueError):
        EtaQuotientSpec(((2, 0),))
    spec = EtaQuotientSpec(((4, 1), (1, -1)))
    assert spec.factors == ((1, -1), (4, 1))  # sorted
    assert spec.level == 4
    assert spec.weight_twice == 0


# ------------------------------------------------------- division choice

# The eta-quotient scans of the benchmark, each built mod ell to 2*10^4.
ETA_SCAN_BUILDS = (
    ("cphi2", 5),
    ("partition", 5),
    ("cubic", 3),
    ("core4", 2),
    ("crank_diff", 5),
    ("multipartition_3", 3),
)


# The plans these builds pick by price at 2*10^4, each the fastest of its
# plans in timings on a 2-core x86-64 guest (CPython 3.11.7): a pricing
# change that flips one shows here.
SCAN_BUILD_PLANS = {
    ("cphi2", 5): ((1, 1), (4, 3), (5, -1), (10, 1), (20, -1)),
    ("partition", 5): ((1, 4), (5, -1)),
    ("cubic", 3): ((1, -1), (2, -1)),
    ("core4", 2): ((1, 3), (4, 3)),
    ("crank_diff", 5): ((1, 3), (2, 3), (10, -1)),
    ("multipartition_3", 3): ((3, -1),),
}


def test_the_scan_builds_pick_their_plans():
    assert set(SCAN_BUILD_PLANS) == set(ETA_SCAN_BUILDS)
    for (name, ell), plan in SCAN_BUILD_PLANS.items():
        assert _pick_plan(catalog_entry(name).spec, 20000, integer_mod(ell)) == plan


def test_series_builds_mod_ell_divide_by_newton(monkeypatch):
    # every division of the mock builds mod 3 at 2*10^4 and 10^5, of the
    # eta-quotient scan builds and of verify_known is far past the crossover
    # of the recurrence with Newton, so each must run Newton
    divisions, newton, recurrences, depth = [], [], [], 0
    divide, divide_newton = qseries._divide, qseries._divide_newton
    div_sparse = qseries._div_sparse

    def divide_spy(num, den, n_out, ring):
        divisions.append((str(ring), n_out))
        return divide(num, den, n_out, ring)

    def newton_spy(num, den, n_out, ring):
        nonlocal depth
        if not depth:  # the calls from outside Newton's own recursion
            newton.append(n_out)
        depth += 1
        try:
            return divide_newton(num, den, n_out, ring)
        finally:
            depth -= 1

    def sparse_spy(num, support, inv0, n_out, ring):
        recurrences.append((str(ring), n_out))
        return div_sparse(num, support, inv0, n_out, ring)

    monkeypatch.setattr(qseries, "_divide", divide_spy)
    monkeypatch.setattr(qseries, "_divide_newton", newton_spy)
    monkeypatch.setattr(qseries, "_div_sparse", sparse_spy)
    for prec in (20000, 100000):
        mock_f(prec, integer_mod(3))
        mock_omega(prec, integer_mod(3))
    assert len(divisions) == 4
    for name, ell in ETA_SCAN_BUILDS:
        build_series(name, 20000, modulus=ell)
    assert all(passed for _, passed in verify_known())
    assert recurrences == []
    assert len(newton) == len(divisions)


# ----------------------------------------------------------- input checks


@pytest.mark.parametrize(
    "build",
    [
        eta_series,
        lambda prec: eta_quotient(EtaQuotientSpec(((1, -1),)), prec),
        mock_f,
        mock_omega,
    ],
    ids=["eta_series", "eta_quotient", "mock_f", "mock_omega"],
)
@pytest.mark.parametrize("prec", [0, -1])
def test_a_generator_refuses_a_precision_below_1(build, prec):
    with pytest.raises(ValueError, match="prec must be >= 1"):
        build(prec)
