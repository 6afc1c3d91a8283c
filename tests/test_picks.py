"""Every kernel pick of the price model on a compact grid, pinned.

``qseries`` and ``generators`` pick each product kernel, each division
(the sparse recurrence or Newton), each power over Z (Miller's recurrence
or square-and-multiply) and each eta-quotient plan by predicted cost.  The
tables below hold those picks as the prices made them when they were
first stated in one unit.  A refit of any price function that moves a
pick fails here and names the point, so the refit can list every pick it
moves.  The picks depend on the decimal kernel being present.
"""

from __future__ import annotations

import pytest

from qsift import generators, qseries
from qsift.qseries import INTEGER, integer_mod

pytest.importorskip("_decimal", reason="the prices assume the decimal kernel")

RINGS = {str(ring): ring for ring in (INTEGER, *map(integer_mod, (3, 205, 355)))}

# (ring, the second factor): the kernel ``_convolve`` runs for a dense
# factor times it at 2^4 .. 2^14 slots (s schoolbook, k Kronecker, d
# decimal); for "both sparse", E_1 times J_1.  The "dense" factor has zero
# slots (where 7k^2 + 3k + 1 is 8 mod 17), so its square has fewer pairs of
# nonzero slots than n_out times its nonzero count: over Z/355 at 16 slots
# that moves the pick from Kronecker to schoolbook.
KERNEL_PICKS = {
    ("Z", "dense"): "skkkkkkdddd",
    ("Z", "sparse"): "skkkkkkkddd",
    ("Z", "one"): "sssssssssss",
    ("Z", "both sparse"): "sssskssssss",
    ("Z/3", "dense"): "kkkkkkkkddd",
    ("Z/3", "sparse"): "kkkkkkkdddd",
    ("Z/3", "one"): "kkkkkkkdddd",
    ("Z/3", "both sparse"): "kkkkkkkkkss",
    ("Z/205", "dense"): "kkkkkkkdddd",
    ("Z/205", "sparse"): "kkkkkkkkddd",
    ("Z/205", "one"): "kkkkkssssss",
    ("Z/205", "both sparse"): "kkkkkssssss",
    ("Z/355", "dense"): "skkkkkkdddd",
    ("Z/355", "sparse"): "skkkkkkkddd",
    ("Z/355", "one"): "sssssssssss",
    ("Z/355", "both sparse"): "sssssssssss",
}


class Picked(Exception):
    """Raised by a kernel spy in place of the product: the name of the
    kernel ``_convolve`` picked."""


def test_product_kernel_picks(monkeypatch):
    for name in ("_conv_schoolbook", "_conv_kronecker", "_conv_decimal"):

        def spy(*args, _letter=name[6]):  # s, k or d
            raise Picked(_letter)

        monkeypatch.setattr(qseries, name, spy)
    picks = {}
    for ring_name, shape in KERNEL_PICKS:
        ring, letters = RINGS[ring_name], ""
        for p in range(4, 15):
            n = 2**p
            dense = [ring.normalize((7 * k * k + 3 * k + 1) % 17 - 8) for k in range(n)]
            if shape == "dense":
                other = dense
            elif shape == "sparse":
                other = generators._euler_product(n, 1, ring).slots
            elif shape == "both sparse":
                dense = generators._euler_product(n, 1, ring).slots
                other = generators._jacobi_cube(n, 1, ring).slots
            else:
                other = [2] + [0] * (n - 1)
            with pytest.raises(Picked) as picked:
                qseries._convolve(dense, other, n, ring)
            letters += picked.value.args[0]
        picks[ring_name, shape] = letters
    assert picks == KERNEL_PICKS


# (m, d, terms): whether ``_division_cost`` picks Newton (N) or the
# recurrence (r) for a divisor b(q^d) over Z/m with ``terms`` nonzero slots
# past the constant one, at 2^6, 2^8, .., 2^20 slots (. where terms * d
# reaches the size)
DIVISION_PICKS = {
    (3, 1, 1): "rrNNrrrr",
    (3, 1, 8): "rrNNrrrr",
    (3, 1, 64): ".NNNNNNr",
    (3, 1, 512): "..NNNNNN",
    (3, 2, 1): "rrNNrrrr",
    (3, 2, 8): "rrNNNrrr",
    (3, 2, 64): ".NNNNNNN",
    (3, 2, 512): "...NNNNN",
    (3, 5, 1): "rrNNNNrr",
    (3, 5, 8): "rNNNNNrr",
    (3, 5, 64): "..NNNNNN",
    (3, 5, 512): "...NNNNN",
    (145, 1, 1): "rrrrrrrr",
    (145, 1, 8): "rrrrrrrr",
    (145, 1, 64): ".NNNrrrr",
    (145, 1, 512): "..NNNNNN",
    (145, 2, 1): "rrNrrrrr",
    (145, 2, 8): "rrNrrrrr",
    (145, 2, 64): ".NNNNrrr",
    (145, 2, 512): "...NNNNN",
    (145, 5, 1): "rrNNrrrr",
    (145, 5, 8): "rrNNrrrr",
    (145, 5, 64): "..NNNNNN",
    (145, 5, 512): "...NNNNN",
    (355, 1, 1): "rrrrrrrr",
    (355, 1, 8): "rrrrrrrr",
    (355, 1, 64): ".NNrrrrr",
    (355, 1, 512): "..NNNNNN",
    (355, 2, 1): "rrrrrrrr",
    (355, 2, 8): "rrrrrrrr",
    (355, 2, 64): ".NNNNrrr",
    (355, 2, 512): "...NNNNN",
    (355, 5, 1): "rrNrrrrr",
    (355, 5, 8): "rrNNrrrr",
    (355, 5, 64): "..NNNNNr",
    (355, 5, 512): "...NNNNN",
}


def test_division_picks():
    picks = {}
    for m, d, terms in DIVISION_PICKS:
        ring, letters = integer_mod(m), ""
        for p in range(6, 21, 2):
            n = 2**p
            if terms * d >= n:
                letters += "."
            else:
                letters += "N" if qseries._division_cost(terms, n, ring, d)[1] else "r"
        picks[m, d, terms] = letters
    assert picks == DIVISION_PICKS


# (base, e): whether ``_miller_is_cheaper`` picks Miller's recurrence (M)
# or square-and-multiply (s) for base**e over Z at 256, 512, .., 4096 slots
MILLER_PICKS = {
    ("eta", -12): "MMMMM",
    ("eta", -6): "MMMMM",
    ("eta", -2): "MMMMM",
    ("eta", 2): "sssss",
    ("eta", 3): "sssss",
    ("eta", 12): "ssMMs",
    ("eta_eta2", -12): "MMMMM",
    ("eta_eta2", -6): "MMMMM",
    ("eta_eta2", -2): "sssss",
    ("eta_eta2", 2): "sssss",
    ("eta_eta2", 3): "sssss",
    ("eta_eta2", 12): "sssss",
    ("fibonacci", -12): "MMMMM",
    ("fibonacci", -6): "MMMMM",
    ("fibonacci", -2): "MMMMM",
    ("fibonacci", 2): "sssss",
    ("fibonacci", 3): "sssss",
    ("fibonacci", 12): "sssss",
    ("jacobi", -12): "MMMMM",
    ("jacobi", -6): "MMMMM",
    ("jacobi", -2): "MMMMM",
    ("jacobi", 2): "sssss",
    ("jacobi", 3): "sssss",
    ("jacobi", 12): "MMMMM",
}


def powers_bases(n: int) -> dict:
    eta = generators._euler_product(n, 1, INTEGER)
    return {
        "eta": eta.slots,
        "eta_eta2": (eta * generators._euler_product(n, 2, INTEGER)).slots,
        "fibonacci": (1, -1, -1) + (0,) * (n - 3),
        "jacobi": generators._jacobi_cube(n, 1, INTEGER).slots,
    }


def test_power_picks():
    picks = dict.fromkeys(MILLER_PICKS, "")
    for p in range(8, 13):
        for name, a in powers_bases(2**p).items():
            support = [(k, c) for k, c in enumerate(a) if c and k]
            for e in (-12, -6, -2, 2, 3, 12):
                picks[name, e] += "M" if qseries._miller_is_cheaper(a, support, e) else "s"
    assert picks == MILLER_PICKS


# (catalog name, ell): the plan ``_pick_plan`` builds mod ell at 2*10^4
# and at 10^5 slots, as delta^r factors
PLAN_PICKS = {
    ("partition", 2): ('1^3,4^-1', '1^3,4^-1'),
    ("partition", 3): ('1^-1', '1^-1'),
    ("partition", 5): ('1^4,5^-1', '1^4,5^-1'),
    ("partition", 7): ('1^6,7^-1', '1^6,7^-1'),
    ("multipartition_2", 2): ('2^3,8^-1', '2^3,8^-1'),
    ("multipartition_2", 3): ('1^1,3^-1', '1^1,3^-1'),
    ("multipartition_2", 5): ('1^3,5^-1', '1^3,5^-1'),
    ("multipartition_2", 7): ('1^5,7^-1', '1^5,7^-1'),
    ("multipartition_3", 2): ('1^1,4^-1', '1^1,4^-1'),
    ("multipartition_3", 3): ('3^-1', '3^-1'),
    ("multipartition_3", 5): ('1^2,5^-1', '1^2,5^-1'),
    ("multipartition_3", 7): ('1^4,7^-1', '1^4,7^-1'),
    ("cubic", 2): ('1^1,4^-1', '1^1,4^-1'),
    ("cubic", 3): ('1^-1,2^-1', '1^-1,2^-1'),
    ("cubic", 5): ('1^4,2^4,5^-1,10^-1', '1^4,2^4,5^-1,10^-1'),
    ("cubic", 7): ('1^-1,2^-1', '1^-1,2^-1'),
    ("crank_diff", 2): ('1^3,4^-1', '1^3,4^-1'),
    ("crank_diff", 3): ('2^1,3^1,6^-1', '2^1,3^1,6^-1'),
    ("crank_diff", 5): ('1^3,2^3,10^-1', '1^3,2^3,10^-1'),
    ("crank_diff", 7): ('1^3,2^5,14^-1', '1^3,2^-2'),
    ("cphi2", 2): ('2^3,8^-1', '2^3,8^-1'),
    ("cphi2", 3): ('1^-4,2^-1,4^-2,6^2', '1^-4,2^-1,4^-2,6^2'),
    ("cphi2", 5): ('1^1,4^3,5^-1,10^1,20^-1', '1^1,4^3,5^-1,10^1,20^-1'),
    ("cphi2", 7): ('1^3,2^5,4^5,7^-1,28^-1', '1^3,2^5,4^5,7^-1,28^-1'),
    ("core4", 2): ('1^3,4^3', '1^3,4^3'),
    ("core4", 3): ('1^-1,4^4', '1^-1,4^4'),
    ("core4", 5): ('1^-1,4^4', '1^-1,4^4'),
    ("core4", 7): ('1^-1,4^4', '1^-1,4^4'),
    ("eta5inv", 2): ('5^3,20^-1', '5^3,20^-1'),
    ("eta5inv", 3): ('5^2,15^-1', '5^-1'),
    ("eta5inv", 5): ('5^4,25^-1', '5^4,25^-1'),
    ("eta5inv", 7): ('5^6,35^-1', '5^6,35^-1'),

}


def test_plan_picks():
    picks = {}
    for name, ell in PLAN_PICKS:
        spec = generators.catalog_entry(name).spec
        plans = (generators._pick_plan(spec, p, integer_mod(ell)) for p in (20000, 10**5))
        picks[name, ell] = tuple(",".join(f"{d}^{r}" for d, r in plan) for plan in plans)
    assert picks == PLAN_PICKS
