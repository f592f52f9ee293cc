"""Error-free transformations of binary64: the exact rounding error of one
sum (Knuth's TwoSum) and of one product (Dekker's TwoProduct, with
Veltkamp's split, which needs no fused multiply-add), on floats or numpy
arrays alike.  ``bounds`` takes mu2's exact Newton step in double-double
with them, and ``roots`` its ``from_roots`` expansion and compensated
Horner.  This module imports nothing, so loading the root finder loads
none of the paper's closed forms.
"""


def _two_sum(x, y):
    """(s, e) with s = fl(x + y) and s + e = x + y exactly (Knuth's TwoSum)."""
    s = x + y
    bv = s - x
    return s, (x - (s - bv)) + (y - bv)


def _split(x):
    """(hi, lo) with hi + lo = x and each half 26 bits or fewer (Veltkamp)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, y):
    """(p, e) with p = fl(x * y) and p + e = x * y exactly (Dekker's
    TwoProduct, which needs no fused multiply-add), barring underflow."""
    return _presplit_two_product(x, y, *_split(y))


def _presplit_two_product(x, y, yh, yl):
    """``_two_product`` given y's ``_split`` (yh, yl), which a loop that
    multiplies by one y takes once."""
    p = x * y
    xh, xl = _split(x)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
