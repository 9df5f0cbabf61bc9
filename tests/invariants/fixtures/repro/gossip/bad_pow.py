"""Modular arithmetic bypassing the bigint kernel (two violations)."""

import gmpy2


def modexp(base, exponent, modulus):
    assert gmpy2  # pretend we use it
    return pow(base, exponent, modulus)
