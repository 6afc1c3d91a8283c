"""Shared independent oracles for the test suite.

These deliberately avoid the package's construction paths: partition counts
come from the bounded-part DP recurrence, product prefixes from naive dense
polynomial multiplication, eta-quotients from one sparse pentagonal
multiply or divide pass per unit of exponent (no rewrite, no series
operations), and the mock theta functions from their q-hypergeometric
definitions, term by term, so they can serve as ground truth for the eta
machinery and for the Appell-Lerch builders.  Their combinatorial readings
come from exhaustive enumeration of partitions: f's coefficient of q^n is
N_e(n) - N_o(n), the partitions of n counted by rank parity, and omega's is
the number of omega-partitions of n + 1.  The weight-3/2 theta series
g_0, g_1, g_2 come from their defining sums over n in Z, one Fraction per
term (the fill construction they were built by before they became
eta-quotients), against the scaled eta-quotients of
``generators.THETA_SERIES``.  Dedekind sums come from their
defining sum, O(c) terms, against the reciprocity algorithm.  The
progression rules of ``transform`` (goodness, refinement, unit images,
orbits, coverage, support) come from their explicit per-kind formulas,
against the one linear form alpha + beta*t they are derived from.  The
four multiplier phases come from their transformation laws written term by
term in Fractions (with the public ``dedekind_sum``), against the integer
numerators of ``transform``, and numerical eta from one exponential per
term of the pentagonal sum, against the running products of
``eta_numeric``; the running products summed to their full term count,
without the early stop, bound how far that stop may move the float.
Products and powers of ``ExactScalar`` values come from their components
in Fractions (r r' gcd(s, s'), s s'/gcd(s, s')^2, u + u' mod 1, and
r^e s^floor(e/2), s^(e mod 2), e u mod 1), against the integer phase
arithmetic and the normalizing constructor of ``arith``.  The
sign/eighth-root phase of the cancellation check is summed in Fractions
through ``decompose_upper``, against the integer numerator over 8 of
``transform``.  The level of the non-congruence
criterion, and the ell-free part of its lattice, come from moving
ell-powers out of the deltas into the exponents, against the build rewrite
of ``generators``, which moves them the other way.  The terms of a sparse
sum over k in Z come from trying k = 0, +-1, +-2, ... until both signs
pass the limit, against the closed-form ranges of ``generators`` and
``scanner``.  The sparse division
recurrence comes from its per-term loop, one interpreted multiply-subtract
per slot and term, against the grouped gathers of ``qseries._div_sparse``.
A product comes from a dict of each factor's nonzero slots, every pair
with i + j < n_out summed into a dict keyed by i + j, against the bisected
support lists of ``qseries._conv_schoolbook``.
Over Z/m with m <= 256, a packed product's slots come from its digit string
one slot at a time, each reduced by ``v % m``, and a Newton step's
num - den*y from one subtraction per slot, against the column tables and
lane sums of ``qseries._read_slots`` and ``qseries._divide_newton``.
A scan report's records come from its columns one entry at a time, its
JSON from the dict of those records that the standard library's indenting
encoder writes, and its CSV from ``csv.writer`` over them, against the
writers of ``ScanReport``, which build no record.
A progression's verdict comes from reading its residues one slot at a time
until the first nonzero one, against the block search of
``scanner._first_nonzero``.
The criterion's reading of an eta-quotient comes from its hypotheses
checked in turn into a list, one new ``Applicability`` a call, with the
surviving divisor from the public ``q_divisor``, against the shared answers
of ``scanner.theorem_applies``.  A series is read back from the JSON that
``qsift expand`` prints, its ring and offset parsed from their strings and
its coefficients passed through the cache's own checks.
"""

from __future__ import annotations

import cmath
import csv
import io
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, isqrt, lcm
from types import SimpleNamespace

import pytest

from qsift.arith import dedekind_sum
from qsift.cli import _checked_series, _parse_ring
from qsift.generators import level_mod_ell
from qsift.scanner import Applicability, ScanVerdict
from qsift.transform import (
    BadMatrix,
    ParityMismatch,
    UnimodularMatrix,
    decompose_upper,
    q_divisor,
)


def _partition_counts(n_max: int) -> list[int]:
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            ways[total] += ways[total - part]
    return ways


def _euler_product_prefix(prec: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n) by direct dense multiplication."""
    coeffs = [0] * prec
    coeffs[0] = 1
    for n in range(1, prec):
        # multiply by (1 - q^n) in place
        for i in range(prec - 1, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return coeffs


def _terms_over_z(exponent, limit: int) -> list[tuple[int, int]]:
    """The (exponent(k), k) pairs with exponent(k) < limit, k over Z: the
    terms of a sparse sum over k in Z whose exponent, a quadratic in k,
    grows with |k| (k = 0, +-1, +-2, ... until both k and -k reach the
    limit)."""
    terms = []
    k = 0
    while True:
        hit = False
        for kk in {k, -k}:
            e = exponent(kk)
            if e < limit:
                terms.append((e, kk))
                hit = True
        if not hit:
            return terms
        k += 1


def _divide_by_sparse(coeffs: list, tail, modulus: int | None) -> list:
    """Divide a dense prefix by 1 + sum(c * q^e for e, c in tail), tail
    ascending in e."""
    out = list(coeffs)
    for i in range(len(out)):
        v = out[i]
        for e, c in tail:
            if e > i:
                break
            v -= c * out[i - e]
        out[i] = v if modulus is None else v % modulus
    return out


def _div_sparse_per_term(num, support, inv0, n_out: int, ring) -> list:
    """Slots 0..n_out-1 of num / b, where b has constant slot 1/inv0 and its
    other nonzero slots are the ascending (k, b_k) pairs of ``support``:
    out[i] = num[i] - sum b_k out[i-k], one term at a time, after scaling
    both sides by inv0."""
    mod = ring.modulus
    if inv0 == 1:
        out = list(islice(num, n_out))
    else:
        support = [(k, ring.normalize(inv0 * bk)) for k, bk in support]
        out = [ring.normalize(inv0 * a) for a in islice(num, n_out)]
    for i in range(n_out):
        v = out[i]
        for k, bk in support:
            if k > i:
                break
            h = out[i - k]
            if h:
                v -= bk * h
        out[i] = v % mod if mod is not None else v
    return out


def _product_by_pairs(xs, ys, n_out: int, lo: int, ring) -> list:
    """Slots lo..n_out-1 of the product: the nonzero slots of each factor
    as a dict, and every pair of them with i + j < n_out added into a dict
    keyed by i + j, reduced into the ring at the end."""
    x_terms = {i: v for i, v in enumerate(xs) if v}
    y_terms = {j: v for j, v in enumerate(ys) if v}
    sums: dict[int, int] = {}
    for i, x in x_terms.items():
        for j, y in y_terms.items():
            if i + j < n_out:
                sums[i + j] = sums.get(i + j, 0) + x * y
    return [ring.normalize(sums.get(k, 0)) for k in range(lo, n_out)]


def _slot_digits(data, width: int, radix: int, lo: int, hi: int) -> list[int]:
    """Slots lo..hi-1, ``width`` digits of ``radix`` each, of a packed
    product, parsed one slot at a time: ``data`` is its little-endian bytes
    for radix 256, and its decimal string, most significant digit first,
    for radix 10."""
    if radix == 256:
        return [int.from_bytes(data[width * k : width * (k + 1)], "little") for k in range(lo, hi)]
    end = len(data)
    return [int(data[end - width * (k + 1) : end - width * k]) for k in range(lo, hi)]


def _read_residues_per_slot(
    data, width: int, radix: int, lo: int, hi: int, n_out: int, m: int
) -> list[int]:
    """Slots lo..n_out-1 over Z/m of a packed product cut to its slots
    0..hi-1, one ``v % m`` per slot."""
    return [v % m for v in _slot_digits(data, width, radix, lo, hi)] + [0] * (n_out - hi)


def _newton_rest_per_slot(num, high, h: int, n_out: int, m: int) -> list[int]:
    """Slots h..n_out-1 of num - den*y in one Newton step over Z/m, from
    ``high`` (those slots of den*y), one subtraction per slot; num None
    stands for 1, whose slots from h on are 0."""
    top = repeat(0) if num is None else islice(num, h, n_out)
    return [(a - b) % m for a, b in zip(top, high)]


def _pentagonal_support(prec: int, delta: int) -> list[tuple[int, int]]:
    """(exponent, sign) of prod(1 - q^(delta*n)) below ``prec``, from
    Euler's pentagonal theorem, ascending; the constant term is included."""
    terms = []
    for k in range(-prec, prec + 1):
        e = delta * k * (3 * k - 1) // 2
        if e < prec:
            terms.append((e, -1 if k % 2 else 1))
    return sorted(terms)


def _multiply_by_sparse(coeffs: list, terms, modulus: int | None) -> list:
    """Multiply a dense prefix by sum(c * q^e for e, c in terms)."""
    out = [0] * len(coeffs)
    for e, c in terms:
        for i in range(len(coeffs) - e):
            out[i + e] += c * coeffs[i]
    return out if modulus is None else [v % modulus for v in out]


def _eta_quotient_passes(factors, prec: int, modulus: int | None = None) -> list[int]:
    """Coefficients of prod prod(1 - q^(delta*n))^r over (delta, r) in
    ``factors`` (the eta-quotient without its q^(B/24)), by one sparse pass
    per unit of exponent: a multiply pass for r > 0, a divide pass for
    r < 0."""
    coeffs = [1] + [0] * (prec - 1)
    for delta, r in factors:
        terms = _pentagonal_support(prec, delta)
        for _ in range(abs(r)):
            if r > 0:
                coeffs = _multiply_by_sparse(coeffs, terms, modulus)
            else:
                coeffs = _divide_by_sparse(coeffs, terms[1:], modulus)
    return coeffs if modulus is None else [v % modulus for v in coeffs]


def _mock_f_hypergeometric(prec: int, modulus: int | None = None) -> list[int]:
    """f(q) = 1 + sum_{n>=1} q^(n^2) / ((1+q)...(1+q^n))^2: the running
    product gains a factor (1+q^n)^(-2) per term."""
    acc = [0] * prec
    acc[0] = 1
    running = [1] + [0] * (prec - 1)
    n = 1
    while n * n < prec:
        running = _divide_by_sparse(
            running[: prec - n * n], [(n, 2), (2 * n, 1)], modulus
        )
        for i, v in enumerate(running):
            acc[n * n + i] += v
        n += 1
    return acc if modulus is None else [v % modulus for v in acc]


def _mock_omega_hypergeometric(prec: int, modulus: int | None = None) -> list[int]:
    """omega(q) = sum_{n>=0} q^(2n^2+2n) / ((q;q^2)_{n+1})^2: the running
    product gains a factor (1-q^(2n+1))^(-2) per term."""
    acc = [0] * prec
    running = [1] + [0] * (prec - 1)
    n = 0
    while 2 * n * n + 2 * n < prec:
        base = 2 * n * n + 2 * n
        odd = 2 * n + 1
        running = _divide_by_sparse(
            running[: prec - base], [(odd, -2), (2 * odd, 1)], modulus
        )
        for i, v in enumerate(running):
            acc[base + i] += v
        n += 1
    return acc if modulus is None else [v % modulus for v in acc]


def _theta_fills(index: int, prec: int) -> tuple[Fraction, list[Fraction]]:
    """g_index to ``prec`` slots as (offset, coefficients), one term per n
    in Z: g_1 = sum -(n + 1/6) q^((6n+1)^2/24), slot n(3n+1)/2 above
    offset 1/24; g_0 and g_2 in the variable q^(1/2), sum (-1)^n (n + 1/3)
    resp. (n + 1/3) q^((3n+1)^2/3), slot 3n^2 + 2n above offset 1/3.  Every
    slot is at least n^2, so |n| <= sqrt(prec) covers the prefix."""
    if index not in (0, 1, 2):
        raise ValueError("index must be 0, 1 or 2")
    coeffs = [Fraction(0)] * prec
    reach = isqrt(prec) + 1
    for n in range(-reach, reach + 1):
        if index == 1:
            slot, value = n * (3 * n + 1) // 2, -Fraction(6 * n + 1, 6)
        else:
            slot, value = 3 * n * n + 2 * n, Fraction(3 * n + 1, 3)
            if index == 0 and n % 2:
                value = -value
        if slot < prec:
            coeffs[slot] += value
    return Fraction(1, 24) if index == 1 else Fraction(1, 3), coeffs


def _iter_partition_shapes(n: int):
    """Yield (largest_part, number_of_parts) over all partitions of n."""
    if n == 0:
        yield (0, 0)
        return

    def rec(remaining: int, cap: int, largest: int, count: int):
        if remaining == 0:
            yield (largest, count)
            return
        top = min(remaining, cap)
        for part in range(top, 0, -1):
            yield from rec(remaining - part, part, largest or part, count + 1)

    yield from rec(n, n, 0, 0)


def _rank_diff(n: int) -> int:
    """N_e(n) - N_o(n) by exhaustive enumeration: the signed count of
    partitions by parity of rank = largest part - number of parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for largest, count in _iter_partition_shapes(n):
        total += 1 if (largest - count) % 2 == 0 else -1
    return total


def _omega_partitions(n: int) -> int:
    """The count c(n) of partitions of n+1 in which every part except
    possibly the largest occurs inside a consecutive pair (k+1) + k, k >= 0.

    Concretely a configuration is one marked part L >= 1 plus a multiset of
    pairs (k+1, k) with k+1 <= L (pair weight 2k+1); the six listed
    partitions of 5 arise exactly this way, with the k = 0 pair written
    (1 + 0).  Exhaustive recursive enumeration.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    target = n + 1

    def count_pairs(remaining: int, max_weight: int) -> int:
        # multisets of odd pair weights <= max_weight summing to remaining
        if remaining == 0:
            return 1
        total = 0
        w = min(max_weight, remaining)
        if w % 2 == 0:
            w -= 1
        while w >= 1:
            total += count_pairs(remaining - w, w)
            w -= 2
        return total

    total = 0
    for largest in range(1, target + 1):
        total += count_pairs(target - largest, 2 * largest - 1)
    return total


def _ell_free_classes(factors, ell: int) -> list[int]:
    """The rewrite the other way round: a factor (ell^s d', r) becomes
    (d', ell^s r), congruent mod ell with B unchanged; the d' whose merged
    exponent is nonzero."""
    merged: dict[int, int] = {}
    for delta, r in factors:
        power = 1
        while delta % ell == 0:
            delta //= ell
            power *= ell
        merged[delta] = merged.get(delta, 0) + power * r
    return [d for d, r in merged.items() if r != 0]


def _level_after_ell_rewrite(factors, ell: int) -> int:
    """The criterion's level: the lcm of the ell-free classes (1 when none
    is left).  The result is coprime to ell."""
    return lcm(*_ell_free_classes(factors, ell))


def _lattice_after_ell_rewrite(factors, ell: int) -> int:
    """The ell-free part of the lattice: the gcd of the ell-free classes (0
    when none is left)."""
    return gcd(*_ell_free_classes(factors, ell))


def _dedekind_literal(d: int, c: int):
    """s(d, c) term by term: sum over r = 1..c-1 of (r/c - 1/2)((dr mod c)/c
    - 1/2).  A term with c | dr reads ((0)) as -1/2, not 0; those terms,
    r = k c/g for k = 1..g-1 with g = gcd(d, c), add up to 0."""
    total = 0
    for r in range(1, c):
        total += (2 * r - c) * (2 * ((d * r) % c) - c)
    return Fraction(total, 4 * c * c)


def _odd_prime_divisors(m: int) -> list[int]:
    """The odd primes dividing m, by trial division."""
    while m % 2 == 0:
        m //= 2
    primes, q = [], 3
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 2
    return primes + [m] if m > 1 else primes


def _legendre(a: int, q: int) -> int:
    """(a | q) for an odd prime q, by Euler's criterion."""
    r = pow(a, (q - 1) // 2, q)
    return -1 if r == q - 1 else r


def _oracle_is_good(m: int, t: int, kind: str) -> bool:
    if kind == "f":
        arg = 1 - 24 * t
    elif kind == "omega":
        arg = -3 * t - 2
    else:
        raise ValueError(kind)
    return any(_legendre(arg, q) == -1 for q in _odd_prime_divisors(m))


def _oracle_good_residues(m: int, kind: str) -> list[int]:
    if m == 1:
        return [0]
    return [t for t in range(m) if _oracle_is_good(m, t, kind)]


def _oracle_refine_to_good(m: int, t: int, kind: str) -> tuple[int, int]:
    """(m', t') of the first good refinement: primes q >= 5 prime to m, then
    non-residues x mod q, with 1 - 24T = x (f) or -3T - 2 = x (omega) mod q."""
    if _oracle_is_good(m, t, kind):
        return m, t
    q = 5
    while True:
        if _odd_prime_divisors(q) == [q] and m % q:
            for x in range(2, q):
                if _legendre(x, q) != -1:
                    continue
                if kind == "f":
                    res = (1 - x) * pow(24, -1, q) % q
                else:
                    res = (-2 - x) * pow(3, -1, q) % q
                T = next(T for T in range(t, m * q, m) if T % q == res)
                if _oracle_is_good(m * q, T, kind):
                    return m * q, T
        q += 2


def _oracle_t_image(a: int, m: int, t: int, kind: str, B: int | None = None) -> int:
    aa = a * a
    if kind == "f":
        corr = (1 - aa) // 24
    elif kind == "omega":
        corr = 2 * (aa - 1) // 3
    else:
        corr = -B * (1 - aa) // 24
    return (t * aa + corr) % m


def _oracle_orbit_units(m: int, kind: str) -> list[int]:
    """The a that ``orbit`` scans: the units mod |beta|m, that is mod 3m
    for omega and mod 24m otherwise."""
    n = (3 if kind == "omega" else 24) * m
    return [a for a in range(1, n + 1) if gcd(a, n) == 1]


def _oracle_coverage_target(m: int, t: int, kind: str, B: int | None = None) -> set[int]:
    """{t + jQ mod m}: Q strips 2 and 3 from m for f, 3 for omega, and for
    eta both, 3 or 2 according to gcd(B, 6) = 1, 2 or 3."""
    strip = {"f": (2, 3), "omega": (3,)}.get(kind)
    if strip is None:
        strip = {1: (2, 3), 2: (3,), 3: (2,)}[gcd(B, 6)]
    q = m
    for prime in strip:
        while q % prime == 0:
            q //= prime
    return {(t + j * q) % m for j in range(m // q)}


def _oracle_support_vanishes(m: int, t: int, kind: str) -> bool:
    """No k with k(3k+1)/2 = -t (f), or 3k^2 + 2k = -t-1 (omega), mod m."""
    if kind == "f":
        return all(k * (3 * k + 1) // 2 % m != (-t) % m for k in range(2 * m))
    return all((3 * k * k + 2 * k) % m != (-t - 1) % m for k in range(m))


def _mock_phase_literal(a: int, b: int, c: int, d: int) -> Fraction:
    """u with mock_multiplier((a b; c d)) = e(u): i^(-1/2) e^(-pi i s(-d,c))
    (-1)^((c+1+ad)/2) e^(2 pi i (-(a+d)/24c - a/4 + 3dc/8))."""
    if c <= 0 or c % 2:
        raise BadMatrix("need c > 0 and c even")
    return (
        Fraction(-1, 8)
        - dedekind_sum(-d, c) / 2
        + Fraction(c + 1 + a * d, 2) * Fraction(1, 2)
        - Fraction(a + d, 24 * c)
        - Fraction(a, 4)
        + Fraction(3 * d * c, 8)
    )


def _omega_even_c_phase_literal(a: int, b: int, c: int, d: int) -> Fraction:
    """u with omega_multiplier_even_c((a b; c d)) = e(u): (-i)^(1/2)
    (-1)^((a-1)/2) e^(-pi i s(-d, c/2)) e^(2 pi i (3ab/4 - (a+d)/12c))."""
    if c <= 0:
        raise BadMatrix("need c > 0")
    if c % 2:
        raise ParityMismatch("this variant needs c even")
    return (
        Fraction(-1, 8)
        + Fraction(a - 1, 2) * Fraction(1, 2)
        - dedekind_sum(-d, c // 2) / 2
        + Fraction(3 * a * b, 4)
        - Fraction(a + d, 12 * c)
    )


def _omega_even_d_phase_literal(a: int, b: int, c: int, d: int) -> Fraction:
    """u with omega_multiplier_even_d((a b; c d)) = e(u): i^(1/2)
    (-1)^((32a-d)/24c) e^(-pi i s(-d/2, c)) e^(-(pi i/2)(2a + b - 3 - 3ab
    + 3a/c))."""
    if c <= 0:
        raise BadMatrix("need c > 0")
    if d % 2:
        raise ParityMismatch("this variant needs d even")
    return (
        Fraction(1, 8)
        + Fraction(32 * a - d, 24 * c) / 2
        - dedekind_sum(-(d // 2), c) / 2
        - (Fraction(2 * a + b - 3 - 3 * a * b) + Fraction(3 * a, c)) / 4
    )


def _eta_phase_literal(a: int, b: int, c: int, d: int) -> Fraction:
    """u with eta_multiplier((a b; c d)) = e(u): exp((pi i/12)((a+d)/c -
    12 s(d,c)))."""
    if c <= 0:
        raise BadMatrix("need c > 0")
    return (Fraction(a + d, c) - 12 * dedekind_sum(d, c)) / 24


def _cancellation_phase_fractions(
    A: UnimodularMatrix, m: int, lam: int, include_curvature: bool = True
) -> Fraction:
    """Phase of (-1)^((-ac lam' + cd lam)/2) e^(2 pi i(-c lam/4 - 3mc^2 lam'/8))
    mod 1, each term a Fraction, lam' from ``decompose_upper``."""
    dec = decompose_upper(A, m, lam)
    lam_p = dec.lambda_prime
    a, _, c, d = A.entries()
    phase = Fraction(-a * c * lam_p + c * d * lam, 2) * Fraction(1, 2)
    phase += Fraction(-c * lam, 4)
    if include_curvature:
        phase += Fraction(-3 * m * c * c * lam_p, 8)
    return phase % 1


def _eta_per_term(z: complex, terms: int = 200) -> complex:
    """sum_{|k| <= terms} (-1)^k e^(2 pi i z (k(3k+1)/2 + 1/24)), one
    exponential per term."""
    total = 0j
    for k in range(-terms, terms + 1):
        e = k * (3 * k + 1) // 2
        total += (-1) ** k * cmath.exp(2j * cmath.pi * z * (e + 1 / 24))
    return total


def _eta_full_sum(z: complex, terms: int = 200) -> complex:
    """The running products of ``eta_numeric`` over every index |k| <= terms,
    with no early stop."""
    q = cmath.exp(2j * cmath.pi * z)
    q3 = q * q * q
    total = 1 + 0j
    up, up_step = 1 + 0j, q * q
    down, down_step = 1 + 0j, q
    sign = -1
    for _ in range(terms):
        up *= up_step
        down *= down_step
        total += sign * (up + down)
        up_step *= q3
        down_step *= q3
        sign = -sign
    return cmath.exp(2j * cmath.pi * z / 24) * total


def _scalar_mul_fractions(x, y) -> tuple[Fraction, int, Fraction]:
    """(r, s, u) of x * y for normal-form x and y: with g = gcd(s, s') of
    squarefree radicands, s s' = g^2 (s/g)(s'/g) and (s/g)(s'/g) is
    squarefree."""
    g = gcd(x.s, y.s)
    return x.r * y.r * g, (x.s // g) * (y.s // g), (x.u + y.u) % 1


def _scalar_pow_fractions(x, e: int) -> tuple[Fraction, int, Fraction]:
    """(r, s, u) of x**e for normal-form x and any integer e:
    (r sqrt(s))^e = r^e s^floor(e/2) sqrt(s)^(e mod 2)."""
    return (
        Fraction(x.r) ** e * Fraction(x.s) ** (e // 2),
        x.s if e % 2 else 1,
        (x.u * e) % 1,
    )


@pytest.fixture(scope="session")
def multiplier_oracle():
    """Phase oracles by the name of the public multiplier they check."""
    return {
        "mock_multiplier": _mock_phase_literal,
        "omega_multiplier_even_c": _omega_even_c_phase_literal,
        "omega_multiplier_even_d": _omega_even_d_phase_literal,
        "eta_multiplier": _eta_phase_literal,
    }


@pytest.fixture(scope="session")
def cancellation_oracle():
    return _cancellation_phase_fractions


@pytest.fixture(scope="session")
def eta_numeric_oracle():
    return _eta_per_term


@pytest.fixture(scope="session")
def eta_full_sum_oracle():
    return _eta_full_sum


@pytest.fixture(scope="session")
def scalar_oracle():
    return SimpleNamespace(mul=_scalar_mul_fractions, pow=_scalar_pow_fractions)


@pytest.fixture(scope="session")
def transform_oracle():
    return SimpleNamespace(
        is_good=_oracle_is_good,
        good_residues=_oracle_good_residues,
        refine_to_good=_oracle_refine_to_good,
        t_image=_oracle_t_image,
        orbit_units=_oracle_orbit_units,
        coverage_target=_oracle_coverage_target,
        support_vanishes=_oracle_support_vanishes,
    )


def _report_json_dict(report, verdicts=None) -> dict:
    """The content of ``report.to_json()`` as a dict, keys in output order,
    with ``verdicts`` (``report.verdicts`` by default) as its records."""
    entries = []
    for v in report.verdicts if verdicts is None else verdicts:
        entry: dict = {"m": v.m, "t": v.t, "status": v.status}
        if v.status == "witness":
            entry["n"] = v.n
            entry["value"] = v.value
        else:
            entry["checked"] = v.checked
        entries.append(entry)
    return {
        "series": report.series_name,
        "modulus": report.modulus,
        "m_max": report.m_max,
        "budget": report.coeff_budget,
        "verdicts": entries,
    }


def _report_csv(verdicts) -> str:
    """The CSV of a report with these records, as ``csv.writer`` writes
    them: a header of the record fields, then one row per record, None as
    the empty string."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ScanVerdict._fields)
    writer.writerows(verdicts)
    return buf.getvalue()


def _records_from_columns(first, slots, prog=None) -> list[ScanVerdict]:
    """The records of a report's columns, one entry of ``first`` at a time,
    with (m, t) counted up beside them: a witness reads its value at slot
    m*n + t, a candidate is checked to the last n with m*n + t in
    ``slots``; a single progression's one entry is named (prog.m, prog.t)."""
    records, m, t = [], 1, 0
    for n in first:
        name = (prog.m, prog.t) if prog else (m, t)
        if n is None:
            n_max = max(k for k in range(len(slots)) if m * k + t < len(slots))
            records.append(ScanVerdict(*name, "candidate", checked=n_max))
        else:
            records.append(ScanVerdict(*name, "witness", n=n, value=slots[m * n + t]))
        m, t = (m, t + 1) if t + 1 < m else (m + 1, 0)
    return records


def _verdict_per_slot(slots, m: int, t: int, n_max: int) -> ScanVerdict:
    """The verdict on slots m*n + t of ``slots`` (residues mod ell, as a
    series stores them) for n <= n_max: a witness at the first nonzero one,
    where the search stops, or a candidate that checked all of them."""
    for n in range(n_max + 1):
        value = slots[m * n + t]
        if value:
            return ScanVerdict(m, t, "witness", n=n, value=value)
    return ScanVerdict(m, t, "candidate", checked=n_max)


def _theorem_applies_listed(spec, ell: int, m: int) -> Applicability:
    """The criterion's hypotheses on (spec, ell, m), each failed one
    appended to a list in turn, as one new ``Applicability``."""
    if ell not in (2, 3):
        raise ValueError("ell must be 2 or 3")
    if m < 1:
        raise ValueError("m must be positive")
    reasons = []
    B = spec.B
    if B % ell == 0:
        reasons.append("ell-divides-B")
    if B >= 0:
        reasons.append("no-pole")
    if B % ell != 0 and (divisor := q_divisor(m, B)) > 1:
        if gcd(divisor, level_mod_ell(spec, ell)[0]) != 1:
            reasons.append("q-divisor-shares-level")
    return Applicability(tuple(reasons))


def _series_from_payload(payload: dict):
    """The series of a payload that ``qsift expand`` prints as JSON, over Z
    or Z/m (a theta series's Q is printed, never read back).  Raises
    ValueError unless the ring and the offset are strings as the writer
    prints them, the ring is Z or Z/m, and the coefficients pass the checks
    of ``cli._checked_series`` that guard the cache."""
    ring, offset = payload["ring"], payload["offset"]
    if type(ring) is not str or type(offset) is not str:
        raise ValueError("the ring or the offset is not a string")
    return _checked_series(_parse_ring(ring), Fraction(offset), payload["coefficients"])


@pytest.fixture(scope="session")
def theorem_applies_oracle():
    return _theorem_applies_listed


@pytest.fixture(scope="session")
def payload_oracle():
    return _series_from_payload


@pytest.fixture(scope="session")
def scan_verdict_oracle():
    return _verdict_per_slot


@pytest.fixture(scope="session")
def report_json_oracle():
    return _report_json_dict


@pytest.fixture(scope="session")
def report_csv_oracle():
    return _report_csv


@pytest.fixture(scope="session")
def report_records_oracle():
    return _records_from_columns


@pytest.fixture(scope="session")
def ell_level_oracle():
    return _level_after_ell_rewrite


@pytest.fixture(scope="session")
def ell_lattice_oracle():
    return _lattice_after_ell_rewrite


@pytest.fixture(scope="session")
def dedekind_oracle():
    return _dedekind_literal


@pytest.fixture(scope="session")
def div_sparse_oracle():
    return _div_sparse_per_term


@pytest.fixture(scope="session")
def product_by_pairs_oracle():
    return _product_by_pairs


@pytest.fixture(scope="session")
def residue_read_back_oracle():
    return _read_residues_per_slot


@pytest.fixture(scope="session")
def newton_rest_oracle():
    return _newton_rest_per_slot


@pytest.fixture(scope="session")
def eta_quotient_oracle():
    return _eta_quotient_passes


@pytest.fixture(scope="session")
def mock_f_oracle():
    return _mock_f_hypergeometric


@pytest.fixture(scope="session")
def mock_omega_oracle():
    return _mock_omega_hypergeometric


@pytest.fixture(scope="session")
def theta_oracle():
    return _theta_fills


@pytest.fixture(scope="session")
def rank_diff_oracle():
    return _rank_diff


@pytest.fixture(scope="session")
def omega_partition_oracle():
    return _omega_partitions


@pytest.fixture(scope="session")
def partition_oracle():
    cache: dict[int, list[int]] = {}

    def counts(n_max: int) -> list[int]:
        if n_max not in cache:
            cache[n_max] = _partition_counts(n_max)
        return cache[n_max]

    return counts


@pytest.fixture(scope="session")
def sparse_terms_oracle():
    return _terms_over_z


@pytest.fixture(scope="session")
def euler_product_oracle():
    return _euler_product_prefix
