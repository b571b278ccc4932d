"""A Python model of numpy's pairwise summation, the order in which
``np.add.reduce`` sums one contiguous 1-D row (or each row of a C-contiguous
block, along its last axis), and the number of roundings a term meets in
that order.

A float64 row sums in ``lanes`` = 8 strided accumulators over runs of at
most ``block`` = 128 terms, joined as a tree, then the last len % lanes
terms in turn; longer runs are halved at a multiple of ``lanes``.  A
complex128 row sums each part alike with 4 lanes over runs of 64 terms.
The bars of the direct, theta and closed routes count roundings by this
order, and the tests that pin it share this model.
"""

import operator
from functools import reduce


def pairwise(a, lanes=8, block=128):
    """numpy's pairwise sum of the list ``a``, term by term in Python floats."""
    if len(a) < lanes:
        return reduce(operator.add, a, -0.0)
    if len(a) > block:
        half = len(a) // 2 - len(a) // 2 % lanes
        return pairwise(a[:half], lanes, block) + pairwise(a[half:], lanes, block)
    r, tail = a[:lanes], len(a) - len(a) % lanes
    for i in range(lanes, tail, lanes):
        r = [x + y for x, y in zip(r, a[i:i + lanes])]
    while len(r) > 1:
        r = [x + y for x, y in zip(r[::2], r[1::2])]
    return reduce(operator.add, a[tail:], r[0])


def roundings(m, lanes=8, block=128):
    """The most additions any one term of an m-term row passes through in
    :func:`pairwise`: its lane's adds after it, the tree's log2(lanes), the
    tail's m % lanes, and one per halving above ``block``."""
    if m < lanes:
        return max(m - 1, 0)
    if m > block:
        half = m // 2 - m // 2 % lanes
        return 1 + max(roundings(half, lanes, block), roundings(m - half, lanes, block))
    return m // lanes - 1 + lanes.bit_length() - 1 + m % lanes
