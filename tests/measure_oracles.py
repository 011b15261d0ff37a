"""Measure arithmetic the library no longer carries, kept as test oracles.

:func:`mix` is the exact affine combination of measures that the library
exported until the separated-set average became one pass of the numerator
kernel; it is summed here with ``Fraction`` loops, keeps stored zeros and
each fiber's keys in first-seen order, as the library's did.
:func:`average_by_pushforwards` is the ``mu_n`` of
``separated_empirical`` as it was built before that pass: the mixture of
``n`` skew-pushforward iterates, each of weight ``1/n``.
"""

from fractions import Fraction

from rdstail import FiberedMeasure, skew_pushforward


def mix(parts):
    """Exact affine combination of measures over one bundle."""
    size = parts[0][1].size
    acc = [{} for _ in range(size)]
    for coeff, mu in parts:
        for w in range(size):
            for x, v in mu.weights[w].items():
                acc[w][x] = acc[w].get(x, Fraction(0)) + Fraction(coeff) * v
    return FiberedMeasure(tuple(acc))


def average_by_pushforwards(sigma, rds, n):
    """``(sigma + T sigma + ... + T^(n-1) sigma) / n`` for the skew map T of
    ``rds``, one ``skew_pushforward`` round trip per iterate."""
    terms, current = [], sigma
    for _ in range(n):
        terms.append((Fraction(1, n), current))
        current = skew_pushforward(current, rds)
    return mix(terms)
