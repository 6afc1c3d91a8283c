"""Exact truncated power series with a rational exponent offset.

A :class:`QSeries` stores ``q**offset * (c[0] + c[1]*q + ... + c[P-1]*q**(P-1))``
with an exact rational ``offset`` and coefficients in one of two rings:
arbitrary-precision integers or integers modulo m; a
:class:`CoefficientRing` is its modulus alone, None for Z.  The series is
exact for every exponent below ``offset + prec``; operations track
precision explicitly and never extend a series with assumed zeros.

Exponent steps above the offset are always integral; the offset itself may be
any rational (series such as the partition generating function carry offset
-1/24).  Storage is dense: over Z/m with m <= 256 the residues are one
immutable ``bytes`` that the kernels, the scanner and the CLI cache read
directly; over Z and larger moduli the coefficients are a tuple.

Every value is immutable and every operation is a pure function, so series
may be shared freely between threads.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, repeat
from math import gcd, log2
from operator import itemgetter, mul

__all__ = [
    "QSeriesError",
    "RingMismatch",
    "OffsetMismatch",
    "NonUnitLeadingCoefficient",
    "IncompatibleModulus",
    "BeyondPrecision",
    "CoefficientRing",
    "INTEGER",
    "integer_mod",
    "QSeries",
    "monomial",
]


class QSeriesError(Exception):
    """Base class for series-arithmetic errors."""


class RingMismatch(QSeriesError):
    """Operands live in different coefficient rings."""


class OffsetMismatch(QSeriesError):
    """Offsets differ by a non-integer, so slots cannot be aligned."""


class NonUnitLeadingCoefficient(QSeriesError):
    """Inversion requires the constant slot to be a unit of the ring."""


class IncompatibleModulus(QSeriesError):
    """Requested modular reduction is not a ring homomorphism from here."""


class BeyondPrecision(QSeriesError):
    """Coefficient query past the exactly-known range."""


@dataclass(frozen=True)
class CoefficientRing:
    """Coefficient domain: integers modulo ``modulus``, or the integers Z
    where ``modulus`` is None."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be an integer >= 2")

    def normalize(self, value):
        return int(value) % self.modulus if self.modulus else int(value)

    def inverse(self, value):
        """Multiplicative inverse of a unit; raises NonUnitLeadingCoefficient."""
        m = self.modulus
        if m and gcd(int(value), m) == 1:
            return pow(int(value) % m, -1, m)
        if not m and value in (1, -1):
            return value
        raise NonUnitLeadingCoefficient(f"{value!r} is not a unit in {self}")

    @property
    def stores_bytes(self) -> bool:
        """Whether a series over this ring stores its residues as one
        ``bytes``: over Z/m with m <= 256, where every residue fits a byte."""
        return self.modulus is not None and self.modulus <= 256

    def __str__(self) -> str:
        return f"Z/{self.modulus}" if self.modulus else "Z"


INTEGER = CoefficientRing()


def integer_mod(m: int) -> CoefficientRing:
    return CoefficientRing(m)


# ------------------------------------------------------------------ kernels
#
# Three product kernels: schoolbook, one multiply-add per pair of nonzero
# slots (cheapest for short factors, and for two sparse ones such as the
# Euler products and Jacobi cubes of an eta-quotient, whose product is
# dense), Kronecker substitution into one big-integer product, and a
# decimal packing into one libmpdec product, whose number-theoretic
# transform wins on long dense factors over Z/m and Z alike.  ``_convolve``
# runs the one that ``_product_kernel`` prices cheapest, from both factors'
# counts of nonzero slots, and computes the slot bound that sizes the
# packed slots once for both the price and the kernel.  The
# kernels share one signature, work on plain coefficient sequences and
# read only the first ``n_out`` entries of each operand: longer inputs are
# neither sliced nor copied, except that the decimal kernel writes its
# operand prefixes reversed.  An operand may be the ``bytes`` of a series
# over Z/m, m <= 256, which the packing kernels read as a buffer.  Over
# such a ring products and quotients are ``bytes`` too, reduced below m a
# column at a time (``_residues``), never slot by slot; elsewhere they are
# lists.  Where both factors are series in q^d, d > 1 (``_lattice``), the
# kernel runs on their q^d slices at ceil(n_out/d) slots and the product
# is spread back.
#
# Quotients run the sparse recurrence (``_div_sparse``) or Newton division
# (``_divide_newton``, over Z/m), whichever is predicted cheaper
# (``_division_cost``); over Z a power of a sparse series with constant slot
# +-1 can be one pass of Miller's recurrence (``_pow_sparse``) instead of
# square-and-multiply.  Both recurrences run on one engine of grouped
# C-level gathers (``_lagged_gathers``) and keep only their slot formulas.
#
# The two packing kernels share one layout.  Slot k is digit k of one
# number, slot 0 least significant; over Z a factor packs as (positive
# part) - (negative part).  Only the product slots below
# hi = min(n_out, nx + ny - 1) are bounded (the slots from nx + ny - 1 on
# are 0), so the product is cut mod base**hi with floor semantics, which
# leaves a two's or ten's complement over Z, and ``_read_slots`` reads the
# slots back from the cut product's bytes or its decimal string.


def _prefix_nonzeros(values, n: int) -> int:
    prefix = values[:n]  # bytes, a list or a tuple: counted in C
    return len(prefix) - prefix.count(0)


def _slot_bound(
    xs, ys, n_out: int, ring: CoefficientRing, nnz: int | None = None
) -> int:
    """An a-priori bound on the magnitudes of product slots 0..n_out-1 and
    of the operand slots that the kernels pack.

    Over Z/m it is nnz * (m-1)^2: a product slot sums at most as many
    nonzero terms as the sparser operand prefix has nonzero slots, which
    ``_convolve`` counts and passes as ``nnz``; without it, the shorter
    operand prefix stands in (the bound of dense factors).  Over
    Z it is n_min * max |x_i| * |y_j| over the pairs with i + j < n_out,
    from the running maxima of |x_i| and |y_j|, one pass over each operand
    (a square's one); for coefficients that grow along the series it has
    about 1/sqrt(2) of the digits of n_min * max |x| * max |y|.  An operand
    slot that pairs only with zeros below n_out can exceed it, so the bound
    also covers max |x| and max |y|.  0 when a factor vanishes."""
    nx, ny = min(len(xs), n_out), min(len(ys), n_out)
    n_min = min(nx, ny)
    if ring.modulus:
        return _residue_bound(n_min if nnz is None else nnz, ring)
    if not n_min:
        return 0
    reach_x = list(accumulate(map(abs, islice(xs, nx)), max))  # max |x_0..x_i|
    reach_y = reach_x if ys is xs else list(accumulate(map(abs, islice(ys, ny)), max))
    # x_0..x_i pair with y_0..y_j, j = min(ny - 1, n_out - 1 - i)
    widest = n_out - ny + 1
    partners = chain(repeat(reach_y[-1], widest), islice(reversed(reach_y), 1, None))
    pairs = max(map(mul, reach_x, partners))
    return max(n_min * pairs, reach_x[-1], reach_y[-1])


def _residue_bound(nnz: int, ring: CoefficientRing) -> int:
    """The slot bound over Z/m of a product whose sparser factor has
    ``nnz`` nonzero slots: each slot sums at most nnz products of residues
    below m."""
    return nnz * (ring.modulus - 1) ** 2


def _kronecker_width(bound: int, ring: CoefficientRing) -> int:
    """Bytes per packed slot: room for every product slot up to ``bound``
    (and a sign bit over Z), so no carry can bleed between slots.  0 over Z
    when a factor vanishes."""
    if ring.modulus:
        return (bound.bit_length() + 7) // 8
    return bound.bit_length() // 8 + 1 if bound else 0


def _decimal_digits(bound: int, ring: CoefficientRing) -> int | None:
    """Decimal digits per packed slot: those of ``bound`` over Z/m, and
    over Z those of 2 * bound, so that every |slot| < 10^w / 2.  None where
    the interpreter's int/str conversion limit refuses a number that long
    (the decimal kernel reads slots back from strings)."""
    try:
        return len(str(bound if ring.modulus else 2 * bound))
    except ValueError:
        return None


# Predicted costs, in one unit for every kernel: one schoolbook
# multiply-add on small slots (about 28 ns on CPython 3.11).  Only their
# ratios matter, and only near a crossover.  ``_product_kernel`` prices
# products, ``_recurrence_cost`` the sparse recurrences, ``_division_cost``
# quotients and ``_miller_is_cheaper`` powers over Z; plans
# (``generators._plan_cost``) are priced from the first and third.  The
# residue-byte overheads and the schoolbook price are fitted to timings at
# 16 to 131072 slots over Z/2, Z/3, Z/5 and Z/205 (CPython 3.11.7,
# libmpdec 2.5.1, x86-64), where each pick among the three product kernels
# was the fastest.  The schoolbook's unit per pair of nonzero slots was
# checked on E_1 J_1, E_1 E_2 and J_1^2 at 64 to 131072 slots over Z, Z/2,
# Z/3, Z/5, Z/205 and Z/355: scaled by any of 0.5 to 3, it left at least as
# many picks over 1.25 times the fastest kernel's time.


def _product_kernel(
    n_out: int, nnz: int, bound: int, ring: CoefficientRing, pairs: int | None = None
):
    """(predicted cost, kernel) of the cheapest product to n_out slots whose
    sparser factor has ``nnz`` nonzero slots, whose factors have ``pairs``
    pairs of nonzero slots (n_out * nnz by default, as for a dense other
    factor) and whose slots are at most ``bound``: schoolbook on a tie, and
    the decimal kernel only where libmpdec is present.  Slots of ``width``
    bytes (``_kronecker_width``) and ``digits`` decimal digits
    (``_decimal_digits``) cost:

    - schoolbook: about 150 for the call, 4 per slot to allocate and reduce
      the slots, and one multiply-add per pair of nonzero slots, dearer on
      big integers: 1 + width/4;
    - Kronecker: the calls, packing and reading back, about 170 and 0.65
      per byte of a slot over residue bytes, 500 and 3 per slot otherwise;
      and a Karatsuba product of two n_out * width-byte integers;
    - decimal: the calls and the context, about 260 over residue bytes and
      1000 otherwise; about one per slot to pack it and read it back (over
      Z, to carry its borrow); and a libmpdec transform product of two
      n_out * digits digit numbers, which with building and reading the
      digit strings costs about 0.23 per digit and doubling.  Over Z, on
      the products of powers of 1/eta at 48 to 8192 slots (9 to 195 digits
      a slot), the measured times are 0.6 to 2.2 times the prediction, and
      the wrong picks, all at 512 to 1024 slots, cost 0.1% of the two
      transform kernels' total time.

    The kernels are read as module globals at each call."""
    width = _kronecker_width(bound, ring)
    pairs = n_out * nnz if pairs is None else pairs
    school = 150 + 4 * n_out + pairs * (1 + width / 4)
    if ring.stores_bytes:
        overhead = 170 + 0.65 * width * n_out
    else:
        overhead = 500 + 3 * n_out
    cost, kernel = overhead + 1.4e-3 * (8 * width * n_out) ** 1.585, _conv_kronecker
    digits = _decimal_digits(bound, ring)
    if digits is not None:
        d = n_out * digits
        decimal = (260 if ring.stores_bytes else 1000) + n_out + 0.23 * d * log2(d)
        if decimal < cost and _has_libmpdec():
            cost, kernel = decimal, _conv_decimal
    return (cost, kernel) if school > cost else (school, _conv_schoolbook)


def _residue_product_cost(n_out: int, nnz: int, ring: CoefficientRing) -> float:
    """The predicted cost of a product over Z/m to n_out slots whose sparser
    factor has ``nnz`` nonzero slots, at most n_out of which count (as in
    ``_convolve``), at the slot bound ``_residue_bound`` gives."""
    nnz = min(n_out, nnz)
    return _product_kernel(n_out, nnz, _residue_bound(nnz, ring), ring)[0]


def _recurrence_cost(n_out: int, terms: int) -> float:
    """The sparse recurrence (``_div_sparse``) to n_out slots over ``terms``
    nonzero divisor slots past the constant one: about 19 per slot for the
    interpreted step and its gathers, and 0.49 per slot and term for the
    item reads and sums in C.  Fitted to timings of 1/eta over Z/m for m in
    {3, 29, 145, 355} at 256 to 81920 slots, in units of 40 ns on a 2-core
    x86-64 guest, CPython 3.11.7, and converted at 40/28 (on a later such
    guest the two units were 29 and 21 ns: medians at 2000 to 10^5 slots
    over Z/2 to Z/145)."""
    return n_out * (19 + 0.49 * terms) * (40 / 28)


_ITEMSIZES = (("B", 1), ("H", 2), ("I", 4), ("Q", 8))


def _array_code(width: int) -> str | None:
    """Typecode of the smallest unsigned machine item holding ``width``
    bytes.  None past eight bytes, or on a big-endian host: the packing
    kernels then convert slot by slot."""
    if sys.byteorder == "little":
        for code, size in _ITEMSIZES:
            if size >= width:
                return code
    return None


def _pack(values, count: int, width: int) -> int:
    """The first ``count`` values (nonnegative, below 256**width) as the
    digits of one integer in base 256**width."""
    buf = bytearray(width * count)
    if isinstance(values, bytes):  # residues below 256: one byte per digit
        buf[::width] = memoryview(values)[:count]
        return int.from_bytes(buf, "little")
    code = _array_code(width)
    if code is None:
        for i, v in enumerate(islice(values, count)):
            if v:
                buf[i * width : (i + 1) * width] = v.to_bytes(width, "little")
        return int.from_bytes(buf, "little")
    from array import array  # deferred: only the product kernels need it

    items = array(code, islice(values, count))
    raw = memoryview(items).cast("B")
    for b in range(width):  # keep the low ``width`` bytes of every item
        buf[b::width] = raw[b :: items.itemsize]
    del raw, items
    return int.from_bytes(buf, "little")


def _unpack(data: bytes, width: int, lo: int, hi: int):
    """Digits lo..hi-1 of the little-endian number ``data`` in base
    256**width."""
    code = _array_code(width)
    if code is None:
        return [
            int.from_bytes(data[i * width : (i + 1) * width], "little")
            for i in range(lo, hi)
        ]
    size = dict(_ITEMSIZES)[code]
    buf = bytearray(size * (hi - lo))
    for b in range(width):  # widen every digit to a whole item
        buf[b::size] = data[width * lo + b : width * hi : width]
    return memoryview(buf).cast(code)


@lru_cache(maxsize=512)
def _weight_table(m: int, weight: int, zero: int = 0) -> bytes:
    """The ``translate`` table c -> (c - zero) * weight mod m: a column of
    digits written from the byte ``zero``, each times ``weight``, reduced
    below m; with weight 1 and zero = -v mod m, the table that adds v to a
    residue.  Built on first use."""
    return bytes((c - zero) * weight % m for c in range(256))


def _sum_residues(columns, m: int) -> bytes:
    """The slot-wise sum mod m (m <= 256) of equal-length byte strings of
    residues below m.  The columns add as the lanes of one integer: one
    byte a lane while their sum stays below 256, else two (up to 257
    columns), whose low and high bytes are reduced by table and summed
    again.  Two residues summing to 256 or more (m > 128) reduce by a
    lane-wise select between s and s - m: s >= m carries into the high
    byte of s + (256 - m)."""
    if len(columns) == 1:
        return columns[0]
    count = len(columns[0])
    if len(columns) * (m - 1) < 256:
        total = sum(int.from_bytes(column, "little") for column in columns)
        return total.to_bytes(count, "little").translate(_weight_table(m, 1))
    lanes, total = bytearray(2 * count), 0
    for column in columns:
        lanes[::2] = column
        total += int.from_bytes(lanes, "little")
    del lanes
    sums = total.to_bytes(2 * count, "little")
    if len(columns) > 2:
        low, high = sums[::2], sums[1::2]
        return _sum_residues(
            [low.translate(_weight_table(m, 1)), high.translate(_weight_table(m, 256))], m
        )
    total += int.from_bytes(bytes((256 - m, 0)) * count, "little")
    over = total.to_bytes(2 * count, "little")
    del total
    keep = int.from_bytes(sums[::2], "little")  # s, where s < m
    less = int.from_bytes(over[::2], "little")  # s - m, where s >= m
    mask = int.from_bytes(over[1::2], "little") * 255  # 0xff where s >= m
    return (keep ^ (keep ^ less) & mask).to_bytes(count, "little")


def _residues(data, width: int, radix: int, lo: int, hi: int, m: int) -> bytes:
    """Slots lo..hi-1, mod m (m <= 256), of a packed product's digits
    ``data`` (as ``_read_slots`` takes them).  Column j, digit j of every
    slot, is one ``translate`` by c -> c * radix**j mod m, and
    ``_sum_residues`` adds the columns."""
    zero, columns = 48 if radix == 10 else 0, []
    for j in range(width):
        table = _weight_table(m, pow(radix, j, m), zero)
        if radix == 256:
            column = data[width * lo + j : width * hi : width]
        else:  # slot hi-1 comes first in the string: reverse the column
            column = data[width - 1 - j : width * (hi - lo) : width].encode()[::-1]
        columns.append(column.translate(table))
    return _sum_residues(columns, m)


def _read_slots(
    data, width: int, radix: int, lo: int, hi: int, n_out: int, ring: CoefficientRing
):
    """Slots lo..n_out-1 of a packed product cut to its slots 0..hi-1, each
    ``width`` digits of ``radix``: for radix 256 ``data`` is the bytes of
    the product, little-endian; for radix 10 it is the decimal string of
    the product as ``format`` writes it, zero-padded to ``width * hi``
    digits, most significant first.  Over Z/m digit k is slot k reduced
    mod m: for m <= 256 the slots are read as ``bytes`` by ``_residues``,
    column by column.  Over Z the number is the two's or ten's complement
    of the signed slots, each below radix**width / 2 in magnitude, read
    from slot 0 up with a running borrow."""
    if ring.stores_bytes:
        return _residues(data, width, radix, lo, hi, ring.modulus) + bytes(n_out - hi)
    read = _unpack if radix == 256 else _decimal_slots
    m = ring.modulus
    if m:
        out = [v % m for v in read(data, width, lo, hi)]
    else:
        half, out, borrow = radix**width // 2, [], 0
        for k, v in enumerate(read(data, width, 0, hi)):
            v += borrow
            borrow = v >= half
            if k >= lo:
                out.append(v - 2 * half if borrow else v)
    out.extend([0] * (n_out - hi))
    return out


def _zeros(count: int, ring: CoefficientRing):
    """``count`` zero slots, as the kernels return them in ``ring``."""
    return bytes(count) if ring.stores_bytes else [0] * count


def _spread(values, d: int, start: int, count: int, ring: CoefficientRing):
    """``count`` slots as the kernels return them in ``ring``: ``values`` at
    slots start, start + d, ..., and zeros elsewhere."""
    out = bytearray(count) if ring.stores_bytes else [0] * count
    out[start::d] = values
    return bytes(out) if ring.stores_bytes else out


def _conv_kronecker(
    xs, ys, n_out: int, ring: CoefficientRing, lo: int = 0, bound: int | None = None
):
    """Slots lo..n_out-1 of the product, exactly, via one big-integer
    multiplication in the packed layout above, each digit ``width`` bytes
    from ``_kronecker_width``; ``&`` cuts the product mod 256**(width*hi).
    ``bound`` is ``_slot_bound`` of the operands, if the caller has it
    already."""
    if bound is None:
        bound = _slot_bound(xs, ys, n_out, ring)
    nx, ny = min(len(xs), n_out), min(len(ys), n_out)
    hi = max(lo, min(n_out, nx + ny - 1))  # slots from nx + ny - 1 on are 0
    if not bound or hi == lo:  # a factor vanishes, or no slot is asked
        return _zeros(n_out - lo, ring)
    width = _kronecker_width(bound, ring)

    def pack(values, count):
        if ring.modulus:
            return _pack(values, count, width)
        pos = _pack((v if v > 0 else 0 for v in values), count, width)
        neg = _pack((-v if v < 0 else 0 for v in values), count, width)
        return pos - neg

    x = pack(xs, nx)
    x *= x if ys is xs else pack(ys, ny)  # a square packs once
    x &= (1 << 8 * width * hi) - 1
    data = x.to_bytes(width * hi, "little")
    del x  # each big temporary goes as soon as the next is built
    return _read_slots(data, width, 256, lo, hi, n_out, ring)


_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))

# Digit j (units first) of every byte value, in ASCII: three tables cover
# the residues of every modulus up to 256.
_BYTE_DIGITS = tuple(bytes(48 + v // 10**j % 10 for v in range(256)) for j in range(3))


def _decimal_slots(digits: str, w: int, lo: int, hi: int):
    """Digits lo..hi-1 in base 10^w of the number whose decimal string,
    zero-padded to whole groups of w, is ``digits``.  Where a digit fits a
    machine item, Horner's rule runs on whole numbers instead of parsing
    each group: column j of the groups is spread into one number in base
    256**width, and the w such numbers combine as 10 * total + next."""
    width = ((10**w - 1).bit_length() + 7) // 8
    end = len(digits)
    if _array_code(width) is None:
        starts = range(end - w * lo, end - w * hi, -w)
        return [int(digits[i - w : i]) for i in starts]
    count = hi - lo
    total = 0
    for j in range(w):
        column = bytearray(width * count)
        digit_j = digits[end - w * hi + j : end - w * lo : w].encode()
        column[width - 1 :: width] = digit_j.translate(_DIGIT_VALUES)  # hi-1 first
        total = 10 * total + int.from_bytes(column, "big")
    return _unpack(total.to_bytes(width * count, "little"), width, 0, count)


def _has_libmpdec() -> bool:
    """Whether libmpdec's C module ``_decimal`` imports.  ``decimal`` falls
    back silently to the pure-Python ``_pydecimal``, whose multiply is
    quadratic, so only the C module may back the decimal kernel.  Imported
    on first use, like ``array``, so the kernel adds nothing to ``import
    qsift`` (where ``fractions`` loads ``decimal`` anyway)."""
    try:
        import _decimal  # noqa: F401
    except ImportError:
        return False
    return True


def _conv_decimal(
    xs, ys, n_out: int, ring: CoefficientRing, lo: int = 0, bound: int | None = None
):
    """Slots lo..n_out-1 of the product over Z/m or Z, exactly, via one
    libmpdec multiplication (a number-theoretic transform at large sizes)
    in the packed layout above, each digit w decimal digits from
    ``_decimal_digits``; rounding toward minus infinity cuts the product
    mod 10**(w*hi).  ``bound`` is as for ``_conv_kronecker``.

    Each operand prefix is written reversed, as zero-padded groups of w
    digits.  Residues below 256 pack as bytes: each of their (at most
    three) digit columns is one ``translate`` of the residue bytes, placed
    by one slice assignment into a buffer of ASCII zeros.  The context
    traps Inexact, so a product that would round raises instead.
    """
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_FLOOR, Context, Inexact

    if bound is None:
        bound = _slot_bound(xs, ys, n_out, ring)
    nx, ny = min(len(xs), n_out), min(len(ys), n_out)
    hi = max(lo, min(n_out, nx + ny - 1))  # slots from nx + ny - 1 on are 0
    if not bound or hi == lo:  # a factor vanishes, or no slot is asked
        return _zeros(n_out - lo, ring)
    w = _decimal_digits(bound, ring)
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    m = ring.modulus
    if ring.stores_bytes:
        tables = _BYTE_DIGITS[: len(str(m - 1))]

        def number(residues):
            digits = bytearray(b"0") * (w * len(residues))
            for j, table in enumerate(tables):
                digits[w - 1 - j :: w] = residues.translate(table)
            return ctx.create_decimal(digits.decode())

    elif m:
        if m <= nx + ny:  # a table of the m padded residues is the cheaper way
            pad = [str(v).zfill(w) for v in range(m)].__getitem__
        else:
            pad = f"{{:0{w}d}}".format

        def number(values):
            return ctx.create_decimal("".join(map(pad, values)))

    else:
        zeros = "0" * w

        def number(values):
            # each part's string goes as soon as its Decimal exists
            pos = ctx.create_decimal(
                "".join([str(v).zfill(w) if v > 0 else zeros for v in values])
            )
            neg = ctx.create_decimal(
                "".join([str(-v).zfill(w) if v < 0 else zeros for v in values])
            )
            return ctx.subtract(pos, neg)

    def pack(values, count):  # slot 0 last: least significant
        if ring.stores_bytes and not isinstance(values, bytes):
            values = bytes(islice(values, count))  # reversed as bytes, not as a list
        return number(values[count - 1 :: -1])

    x = pack(xs, nx)
    x = ctx.multiply(x, x if ys is xs else pack(ys, ny))  # a square packs once
    top = x.scaleb(-w * hi, ctx).to_integral_value(ROUND_FLOOR, ctx)
    x = ctx.subtract(x, top.scaleb(w * hi, ctx))
    del top  # each big temporary goes as soon as the next is built
    digits = format(x, f"0{w * hi}f")
    del x
    return _read_slots(digits, w, 10, lo, hi, n_out, ring)


def _conv_schoolbook(
    xs, ys, n_out: int, ring: CoefficientRing, lo: int = 0, bound: int | None = None
) -> list:
    """Slots lo..n_out-1 of the product, as a list, by schoolbook
    convolution over the nonzero slots of both factors: one multiply-add
    per pair of nonzero slots x_i, y_j with i + j < n_out.  For each x_i
    the y_j are cut at j < n_out - i by ``bisect``, so no zero is tested,
    and a square walks each unordered pair once.  It takes the packing
    kernels' arguments, but needs no ``bound``."""
    ix = list(_support(xs, n_out, 0))
    iy = ix if ys is xs else list(_support(ys, n_out, 0))
    if len(ix) > len(iy):  # the outer loop over the sparser factor
        xs, ys, ix, iy = ys, xs, iy, ix
    out, start = [0] * n_out, 0
    for a, i in enumerate(ix):
        x, stop = xs[i], bisect_left(iy, n_out - i)
        if ys is xs:  # x_i x_j and x_j x_i, j > i, as one term; and x_i^2
            if a < stop:
                out[2 * i] += x * x
            x, start = 2 * x, a + 1
        for j in iy[start:stop]:
            out[i + j] += x * ys[j]
    if ring.modulus:
        out = list(map(ring.modulus.__rmod__, out))  # each v % m, in C
    return out[lo:] if lo else out


def _convolve(xs, ys, n_out: int, ring: CoefficientRing, lo: int = 0):
    """Slots lo..n_out-1 of the product, by the kernel ``_product_kernel``
    names: ``bytes`` over Z/m with m <= 256, otherwise a list.  Where a
    factor has no nonzero slot below n_out, no kernel runs.  Where both
    factors are series in q^d, d > 1, the kernel multiplies their q^d
    slices at ceil(n_out/d) slots, from slot ceil(lo/d), and the product's
    nonzero slots are every d-th from there; the lattice of the factor with
    fewer nonzero slots is read first."""
    nnz_x, nnz_y = _prefix_nonzeros(xs, n_out), _prefix_nonzeros(ys, n_out)
    nnz = min(nnz_x, nnz_y)
    if not nnz:
        return _zeros(n_out - lo, ring)
    sparse, other = (xs, ys) if nnz_x <= nnz_y else (ys, xs)
    d = _lattice(other, n_out, _lattice(sparse, n_out))
    out_lo, out_n = lo, n_out
    if d > 1:
        square = ys is xs
        xs = xs[:n_out:d]
        ys = xs if square else ys[:n_out:d]
        n_out, lo = -(-n_out // d), -(-lo // d)
    bound = _slot_bound(xs, ys, n_out, ring, nnz)
    pairs = min(nnz_x * nnz_y, n_out * nnz)
    out = _product_kernel(n_out, nnz, bound, ring, pairs)[1](xs, ys, n_out, ring, lo, bound)
    if ring.stores_bytes:
        out = bytes(out)  # schoolbook's list; the packing kernels' bytes as they are
    if d > 1:  # the q^d product's slot lo is slot lo*d, out[lo*d - out_lo]
        return _spread(out, d, lo * d - out_lo, out_n - out_lo, ring)
    return out


def _lagged_gathers(support, out: list, n_out: int):
    """The one engine of the sparse recurrences ``_div_sparse`` and
    ``_pow_sparse``, whose slot i sums lagged slots out[i-k] over the
    ascending (k, b_k) pairs of ``support``.  It yields the ``range``s of
    slots, up to n_out, that read the same terms, each with its live
    groups; the caller appends one slot to ``out`` (the slots known so far)
    for each i.  Meanwhile out[0] is a sentinel 0, so out[i-k] is
    ``out[-k]`` and a group's terms are gathered in C by one
    ``itemgetter(-k1, ..., -kc, 0)``, a tuple even for one term.  A group
    (b, gather, values, moments) holds the terms of one repeated value b
    (values None) or, with b = 1, the values that occur once (all of them
    in Jacobi's sum for E^3 over Z), to be summed weighted by their
    ``values`` b_k with ``map(mul, ...)``; moments are the k b_k / b.  A
    group is rebuilt only when i reaches its next k, so the gathers cost
    n_out * len(support) item reads at most."""
    repeats = Counter(bk for _, bk in support)
    out.insert(0, 0)  # the sentinel: slot j is out[j + 1]
    terms, groups = {}, {}  # per value b, None for the lone values: live terms, group
    start = len(out) - 1
    for k, bk in chain(support, [(n_out, None)]):
        stop = min(k, n_out)  # slots start..stop-1 read the same terms
        yield range(start, stop), list(groups.values())
        if stop == n_out:
            break
        start = k
        b = bk if repeats[bk] > 1 else None
        offsets, values, moments = terms.setdefault(b, ([0], [], []))
        offsets.insert(-1, -k)  # values and moments stay one shorter: map stops there
        if b is None:
            values.append(bk)
            moments.append(k * bk)
            groups[b] = (1, itemgetter(*offsets), values, moments)
        else:
            moments.append(k)
            groups[b] = (b, itemgetter(*offsets), None, moments)
    del out[0]


def _div_sparse(num, support, inv0, n_out: int, ring: CoefficientRing) -> list:
    """Slots 0..n_out-1 of num / b, where b has constant slot 1/inv0 and its
    other nonzero slots are the ascending (k, b_k) pairs of ``support``.

    Both sides are first scaled by inv0, so that b has constant slot 1; the
    recurrence out[i] = num[i] - sum b_k out[i-k] is then exact in every
    ring.  Its gathers are those of ``_lagged_gathers``: out[i] = num[i] -
    sum_b b * sum(out[i-k] over the k <= i with b_k = b), with no multiply
    for b = 1, and the values that occur once in one weighted sum.
    """
    mod = ring.modulus
    if inv0 == 1:
        head = num
    else:
        support = [(k, ring.normalize(inv0 * bk)) for k, bk in support]
        head = [ring.normalize(inv0 * a) for a in islice(num, n_out)]
    out = []
    append = out.append
    for slots, groups in _lagged_gathers(support, out, n_out):
        for i in slots:
            v = head[i]
            for b, gather, values, _ in groups:
                lagged = gather(out)
                s = sum(lagged) if values is None else sum(map(mul, values, lagged))
                v -= s if b == 1 else b * s
            append(v % mod if mod else v)
    return out


def _pow_sparse(support, a0: int, e: int, n_out: int) -> list:
    """Slots 0..n_out-1 of a**e over Z, where a has constant slot a0 = +-1
    and its other nonzero slots are the ascending (k, a_k) pairs of
    ``support``, by J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2,
    4.7): f = a**e satisfies a f' = e a' f, so f_0 = a0**e and
    n a0 f_n = sum_{k >= 1} ((e+1) k - n) a_k f_{n-k}.

    Its gathers are those of ``_lagged_gathers``: a slot sums each gather
    twice in C, once weighted by the values (plain) and once by the
    moments k a_k; then ((e+1) moment - n plain) is divided, exactly, by
    n a0.
    """
    out = [a0 if e & 1 else 1]  # f_0
    append = out.append
    for slots, groups in _lagged_gathers(support, out, n_out):
        for n in slots:
            plain = moment = 0
            for b, gather, values, moments in groups:
                lagged = gather(out)
                p = sum(lagged) if values is None else sum(map(mul, values, lagged))
                w = sum(map(mul, moments, lagged))
                plain += p if b == 1 else b * p
                moment += w if b == 1 else b * w
            append(((e + 1) * moment - n * plain) // (n * a0))
    return out


def _divide_newton(num, den, n_out: int, ring: CoefficientRing):
    """Slots 0..n_out-1 of num / den, or of 1 / den where num is None, by
    Newton iteration.

    The routine first calls itself for g = 1/den to h = ceil(n_out/2)
    slots, and y = num * g to h slots (y = g for 1 / den).  One step then
    folds num in (Karp-Markstein): num / den = y + q^h g (num - den y) / q^h,
    which for 1 / den, with den * g = 1 + q^h e, is g - q^h g e.  Each step
    computes only slots h..n_out-1 of den * y and the n_out - h new slots,
    and the precisions are n_out halved (rounding up) down to 1, so no step
    computes slots past what the next one needs.  It runs over Z/m only
    (``_divide`` sends Z to the recurrence).  With m <= 256 the
    quotient is ``bytes``, and num - den y is one ``translate`` of den y by
    c -> -c mod m and one lane sum with num (``_sum_residues``); with
    m > 256 it is a list, and num - den y is reduced slot by slot.
    """
    if n_out == 1:
        g = ring.inverse(den[0])
        slot = g if num is None else ring.normalize(num[0] * g)
        return bytes((slot,)) if ring.stores_bytes else [slot]
    h = (n_out + 1) // 2
    g = _divide_newton(None, den, h, ring)
    y = g if num is None else _convolve(num, g, h, ring)
    high = _convolve(den, y, n_out, ring, lo=h)  # slots h.. of den * y
    m = ring.modulus
    if ring.stores_bytes:
        rest = high.translate(_weight_table(m, m - 1))
        if num is not None:
            top = num[h:n_out] if isinstance(num, bytes) else bytes(islice(num, h, n_out))
            rest = _sum_residues([top, rest], m)
    else:
        top = repeat(0) if num is None else islice(num, h, n_out)
        rest = [(a - b) % m for a, b in zip(top, high)]
    del high
    y += _convolve(g, rest, n_out - h, ring)
    return y


def _support(values, n: int, start: int = 1):
    """The k in start..n-1 with values[k] nonzero, ascending, found in C:
    over residue bytes by a regular expression, otherwise by
    ``compress``."""
    if isinstance(values, bytes):
        import re  # deferred: re is loaded anyway, by dataclasses

        nonzero = re.compile(rb"[^\x00]")
        return (match.start() for match in nonzero.finditer(values, start, n))
    return compress(count(start), islice(values, start, n))


def _lattice(values, n: int, d: int = 0) -> int:
    """The gcd of d and of the k in 1..n-1 with values[k] nonzero: the
    series' first n slots are a series in q^d for exactly the divisors d of
    it, and 0 means that only slot 0 can be nonzero.  The support is read
    up to the first k that makes the gcd 1."""
    for k in _support(values, n):
        d = gcd(d, k)
        if d == 1:
            break
    return d


@lru_cache(maxsize=256)  # plans price the same division many times
def _division_cost(
    terms: int,
    n_out: int,
    ring: CoefficientRing,
    d: int = 1,
    num_nnz: int | None = None,
) -> tuple[float, bool]:
    """(predicted cost, whether Newton) of the division ``_divide`` runs by
    b(q^d) to n_out slots, b with ``terms`` nonzero slots past the constant
    one: over Z/m the cheaper of the sparse recurrence
    (``_recurrence_cost``) and Newton division, over Z the recurrence.

    Newton works at n = ceil(n_out/d) slots, in steps from n slots halved
    (rounding up) down to 1.  A step to N slots, h = ceil(N/2), multiplies
    the divisor by y (priced for the divisor's nonzero count, as
    ``_convolve`` packs it, and at (N + h)/2 slots, as y has h) and g by
    the N - h new slots (dense), plus ~800 for its calls.  For d = 1 the
    numerator is folded into the first step: one more product to h slots,
    for its ``num_nnz`` nonzero slots.  For d > 1 each residue class of the
    numerator is one product with 1/b, priced for its share of them.
    Without ``num_nnz`` the numerator is dense; with ``num_nnz`` 0 (the
    numerator 0 or 1, as ``_divide`` passes it) there is no numerator
    product.  The measured time per
    predicted unit, inverting E_1 and dense series at 2000 to 10^5 slots
    over Z/2, Z/3, Z/5 and Z/7, is 17 to 30 ns, as for dense products
    (2-core x86-64 guest, CPython 3.11.7)."""
    recurrence = _recurrence_cost(n_out, terms)
    if not ring.modulus:
        return recurrence, False
    n = -(-n_out // d)
    num_nnz = n_out if num_nnz is None else num_nnz
    newton, size = 0.0, n
    while size > 1:
        h = (size + 1) // 2
        newton += (
            _residue_product_cost((size + h) // 2, terms + 1, ring)
            + _residue_product_cost(size - h, size - h, ring)
            + 800
        )
        if d == 1 and size == n and num_nnz:
            newton += _residue_product_cost(h, num_nnz, ring)
        size = h
    if d > 1 and num_nnz:
        newton += d * _residue_product_cost(n, -(-num_nnz // d), ring)
    return (newton, True) if newton < recurrence else (recurrence, False)


def _square_and_multiply(base, e: int, times):
    """base**e, e >= 1, by square-and-multiply, where ``times`` multiplies
    two powers: series by ``*``, or a price's stand-ins for them, so that a
    pricing follows the build it prices."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else times(result, base)
        e >>= 1
        if not e:
            return result
        base = times(base, base)


def _miller_is_cheaper(a, support, e: int) -> bool:
    """Whether Miller's recurrence (``_pow_sparse``) for a**e over Z to
    n = len(a) slots is predicted cheaper than square-and-multiply on h,
    where h = a for e > 0, and for e < 0 h = 1/a by the sparse recurrence
    (``_div_sparse``) over the nonzero slots ``support`` of a past the
    constant one.

    l = sum |h_k| over k < n bounds the slots of h**j by l**j.  Each product
    of square-and-multiply is priced by ``_product_kernel``, dense but for
    a factor h = a, with slot bound l**j for the product h**j.  Over
    Z the slots grow, and a recurrence's sums get dearer with them: a pass
    over slots of b bits costs ``_recurrence_cost`` times 1 + b/1600 and
    a fitted factor, 2.1 for Miller's pass, its slots taken as those of
    l**|e|, and 0.7 for the inverse's.  The fit weighed 3 and 1 passes in
    the recurrence's own 40 ns units against products in 28 ns ones, so
    the factors are those at 28/40.  For e < 0, l of 1/a is predicted from
    1/a to ceil(n/4) slots: the bit length of l grows from n/8 to n/4 slots
    by some factor r, at most 2 (coefficients grow at most geometrically),
    and is taken to grow by r^2 from n/4 to n slots.  Fitted to timings of powers of eta, of
    eta(q) eta(q^2), of 1 - q - q^2 and of random sparse and dense series
    at 256 to 4096 slots (CPython 3.11.7, x86-64).
    """
    n, terms = len(a), len(support)

    def passes(factor: float, bits: int) -> float:
        return factor * _recurrence_cost(n, terms) * (1 + bits / 1600)

    if e < 0:
        n0 = -(-n // 4)
        g = _div_sparse([1] + [0] * (n0 - 1), support, a[0], n0, INTEGER)
        bits = sum(map(abs, g)).bit_length()
        growth = min(bits / sum(map(abs, g[: -(-n0 // 2)])).bit_length(), 2)
        l, nnz_h = 1 << round(bits * growth**2), n
    else:
        l, nnz_h = sum(map(abs, a)), terms + 1
    # Miller's pass against the inverse's (for e < 0) and the products
    cost = passes(2.1, abs(e) * l.bit_length())
    if e < 0:
        cost -= passes(0.7, l.bit_length())

    def times(i: int, j: int) -> int:  # h**i * h**j, priced; the power's index
        nonlocal cost
        cost -= _product_kernel(n, nnz_h if min(i, j) == 1 else n, l ** (i + j), INTEGER)[0]
        return i + j

    _square_and_multiply(1, abs(e), times)
    return cost < 0


def _divide(num, den, n_out: int, ring: CoefficientRing):
    """Slots 0..n_out-1 of num / den: over Z by the sparse recurrence, and
    over Z/m by the kernel predicted cheaper, the recurrence or Newton
    division (``_divide_newton``, one recursive routine for quotients and
    inverses alike).  Over Z the coefficients grow, and
    the recurrence never forms the (larger) inverse: measured over Z with
    the decimal kernel, Newton took 1.1 s for 1/eta to 20480 slots against
    the recurrence's 0.29 s (CPython 3.11.7, x86-64).

    For a divisor b(q^d), d > 1, Newton's side uses 1/b(q^d) = (1/b)(q^d):
    one inverse of b to ceil(n_out/d) slots, then one product of it with
    each residue class of num mod d.  The recurrence runs on den as it is.
    Newton multiplies by no numerator 1 (its one nonzero slot below n_out
    a 1 at slot 0): it computes 1 / den, and its price has no such product.
    """
    terms = _prefix_nonzeros(den, n_out) - 1  # nonzero slots past den[0]
    d = _lattice(den, n_out) or 1  # 0: a constant divisor
    num_nnz = _prefix_nonzeros(num, n_out)
    one = num_nnz == 1 and num[0] == 1  # the numerator 1: Newton's 1 / den
    _, newton = _division_cost(terms, n_out, ring, d, 0 if one else num_nnz)
    if not newton:
        support = [(k, den[k]) for k in _support(den, n_out)]
        return _div_sparse(num, support, ring.inverse(den[0]), n_out, ring)
    if d == 1:
        return _divide_newton(None if one else num, den, n_out, ring)
    b = den[:n_out:d]
    g = _divide_newton(None, b, len(b), ring)
    if one:
        return _spread(g, d, 0, n_out, ring)
    # classes first: the n_out-slot list stays out of the products' peak
    classes = [
        _convolve(num[r:n_out:d], g, len(range(r, n_out, d)), ring) for r in range(d)
    ]
    out = bytearray(n_out) if ring.stores_bytes else [0] * n_out
    for r in range(d):
        out[r::d] = classes[r]
    return out


class QSeries:
    """Truncated series ``q**offset * sum(coeffs[n] q**n, n < prec)``.

    ``prec == len(coeffs)``; coefficients are exact for all exponents below
    ``offset + prec``.  ``QSeries(offset, coeffs, ring)`` normalizes any
    sequence of coefficients into the ring.  ``slots`` holds them as
    stored: one ``bytes`` of residues over Z/m with m <= 256, otherwise the
    tuple.  ``coeffs`` is always a tuple of the same values, built from the
    bytes on first access and then kept.  Values are immutable.
    """

    __slots__ = ("offset", "ring", "slots", "_coeffs")

    def __init__(self, offset, coeffs, ring: CoefficientRing) -> None:
        m = ring.modulus
        if isinstance(coeffs, (bytes, bytearray)) and m:
            # residues of another byte series: reduced by one table lookup each
            values = coeffs.translate(_weight_table(m, 1))
        elif m:
            values = [int(c) % m for c in coeffs]
        else:
            values = [int(c) for c in coeffs]
        self._store(Fraction(offset), values, ring)

    @classmethod
    def _trusted(cls, offset: Fraction, values, ring: CoefficientRing) -> "QSeries":
        """The series of coefficients already normalized into ``ring``
        (kernel results, or cache entries checked to be residues below m),
        stored without another pass."""
        self = object.__new__(cls)
        self._store(offset, values, ring)
        return self

    def _store(self, offset: Fraction, values, ring: CoefficientRing) -> None:
        slots = bytes(values) if ring.stores_bytes else tuple(values)
        if not slots:
            raise ValueError("a series needs at least one coefficient slot")
        set_slot = object.__setattr__
        set_slot(self, "offset", offset)
        set_slot(self, "ring", ring)
        set_slot(self, "slots", slots)
        set_slot(self, "_coeffs", None)  # the tuple, once ``coeffs`` builds it

    def __setattr__(self, name, value):
        raise AttributeError(f"QSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QSeries is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (QSeries, (self.offset, self.slots, self.ring))

    @property
    def coeffs(self) -> tuple:
        slots = self.slots
        if type(slots) is tuple:
            return slots
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(slots))
        return self._coeffs

    @property
    def prec(self) -> int:
        return len(self.slots)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = (self.offset, self.ring, self.slots)
        return mine == (other.offset, other.ring, other.slots)

    def __hash__(self) -> int:
        return hash((self.offset, self.ring, self.slots))

    def __repr__(self) -> str:
        return (
            f"QSeries(offset={self.offset!r}, coeffs={self.coeffs!r}, "
            f"ring={self.ring!r})"
        )

    # ------------------------------------------------------------------ ops

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        shift = self.offset - other.offset
        if shift.denominator != 1:
            raise OffsetMismatch(f"offsets differ by {shift}, not an integer")
        lo = min(self.offset, other.offset)
        exact_to = min(self.offset + self.prec, other.offset + other.prec)
        n_out = int(exact_to - lo)
        out = [0] * n_out
        for series in (self, other):
            start = int(series.offset - lo)
            for i, c in enumerate(series.slots):
                if start + i >= n_out:
                    break
                if c:
                    out[start + i] += c
        return QSeries(lo, out, self.ring)

    def __neg__(self) -> "QSeries":
        return QSeries(self.offset, [-c for c in self.slots], self.ring)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def _check_ring(self, other: "QSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Product to the smaller precision, by schoolbook, Kronecker
        substitution or one libmpdec product of decimal-packed slots (over
        Z/m and over Z), whichever is predicted cheapest."""
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        n_out = min(self.prec, other.prec)
        out = _convolve(self.slots, other.slots, n_out, self.ring)
        return QSeries._trusted(self.offset + other.offset, out, self.ring)

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Quotient to the smaller precision; the offsets subtract.

        Requires a unit constant slot in the divisor.  Over Z runs the
        sparse recurrence (cost prec * nnz of the divisor); over Z/m that
        or Newton division with a Karp-Markstein last step, whichever is
        predicted cheaper.  A divisor b(q^d), d > 1, is inverted in q to
        1/d of the precision; each residue class of the numerator is one
        product with 1/b.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        n_out = min(self.prec, other.prec)
        out = _divide(self.slots, other.slots, n_out, self.ring)
        return QSeries._trusted(self.offset - other.offset, out, self.ring)

    def invert(self) -> "QSeries":
        """Multiplicative inverse up to precision, ``1 / self``; the offset
        negates.  Requires a unit constant slot.  The same division as
        ``/``, with the constant numerator 1, by which it does not multiply."""
        return monomial(0, self.ring, self.prec) / self

    def __pow__(self, e: int) -> "QSeries":
        """``self ** e`` to the same precision; the offset multiplies by e,
        and e < 0 requires a unit constant slot.

        A series in q^d, d > 1 the gcd of its support, is raised as its
        q^d slice at ceil(prec/d) slots and spread back.  Over Z a base with
        constant slot +-1 is raised in one pass of Miller's recurrence
        (``_pow_sparse``) where that is predicted cheaper
        (``_miller_is_cheaper``); otherwise, and over Z/m, where the
        recurrence would divide by the slot index, the base or its inverse
        is raised by square-and-multiply.
        """
        if not isinstance(e, int):
            return NotImplemented
        ring, n, slots = self.ring, self.prec, self.slots
        if e == 0:
            return monomial(Fraction(0), ring, n)
        d = _lattice(slots, n) or n  # 0: only the constant slot is nonzero
        if d > 1:
            part = QSeries._trusted(Fraction(0), slots[::d], ring) ** e
            out = _spread(part.slots, d, 0, n, ring)
            return QSeries._trusted(self.offset * e, out, ring)
        if ring.modulus is None and abs(e) > 1 and slots[0] in (1, -1):
            support = [(k, slots[k]) for k in _support(slots, n)]
            if _miller_is_cheaper(slots, support, e):
                out = _pow_sparse(support, slots[0], e, n)
                return QSeries._trusted(self.offset * e, out, ring)
        return _square_and_multiply(self if e > 0 else self.invert(), abs(e), mul)

    def reduce_mod(self, m: int) -> "QSeries":
        """Reduce coefficients into Z/m.  Allowed from the integers or from
        Z/(km); anything else raises IncompatibleModulus.  A series already
        over Z/m is returned as it is."""
        if m < 2:
            raise ValueError("modulus must be >= 2")
        if self.ring.modulus and self.ring.modulus % m:
            raise IncompatibleModulus(f"cannot reduce {self.ring} to Z/{m}")
        if self.ring.modulus == m:
            return self
        return QSeries(self.offset, self.slots, integer_mod(m))

    def extract_progression(self, m: int, t: int) -> "QSeries":
        """Keep the slots with index ``m*n + t``; slot n of the result is
        slot ``m*n + t`` of the input and the offset becomes (offset + t)/m.

        The input precision must exceed ``t`` so the result is nonempty.
        """
        if not 0 <= t < m:
            raise ValueError("need 0 <= t < m")
        if self.prec <= t:
            raise ValueError("precision does not reach the first selected slot")
        return QSeries._trusted((self.offset + t) / m, self.slots[t::m], self.ring)

    def substitute_power(self, k: int) -> "QSeries":
        """Replace q by q**k: all exponents multiply by k."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        out = _spread(self.slots, k, 0, k * self.prec, self.ring)
        return QSeries._trusted(self.offset * k, out, self.ring)

    def coefficient_at(self, exponent):
        """Exact coefficient of ``q**exponent``.

        Returns None (absent) when the exponent is not congruent to the
        offset mod 1; returns 0 for on-lattice exponents below the offset.
        Raises BeyondPrecision past the exactly-known range.
        """
        e = Fraction(exponent)
        if e >= self.offset + self.prec:
            raise BeyondPrecision(f"exponent {e} >= {self.offset + self.prec}")
        delta = e - self.offset
        if delta.denominator != 1:
            return None
        idx = delta.numerator
        if 0 <= idx < self.prec:
            return self.slots[idx]
        return 0

    # ------------------------------------------------------------- display

    def __str__(self) -> str:
        shown = []
        for n, c in enumerate(self.slots):
            if c:
                if len(shown) == 6:  # a seventh nonzero slot: hide the rest
                    shown.append("...")
                    break
                shown.append(f"{c}*q^{n}")
        body = " + ".join(shown) if shown else "0"
        if self.offset:
            return f"q^({self.offset})*({body}) + O(q^({self.offset + self.prec}))"
        return f"{body} + O(q^{self.prec})"


def _sparse_sum(prec: int, ring: CoefficientRing, fills, offset=0) -> QSeries:
    """q**offset * sum(value * (q**start + q**(start+step) + ...)) over the
    ``(start, step, value)`` fills, to ``prec`` slots; a step >= prec fills
    one slot.  Over residue bytes mod m a fill is one ``translate`` of its
    slots by the table that adds ``value`` (``_weight_table``), so no slot
    becomes an int."""
    if ring.stores_bytes:
        slots, m = bytearray(prec), ring.modulus
        for start, step, value in fills:
            adds = _weight_table(m, 1, -value % m)
            slots[start::step] = slots[start::step].translate(adds)
    else:
        slots = [0] * prec
        for start, step, value in fills:
            slots[start::step] = [c + value for c in slots[start::step]]
    return QSeries(offset, slots, ring)


def monomial(exponent, ring: CoefficientRing, prec: int) -> QSeries:
    """The series ``q**exponent`` known to precision ``prec``."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return _sparse_sum(prec, ring, [(0, prec, 1)], exponent)
