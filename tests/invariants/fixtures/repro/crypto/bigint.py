"""Inside the kernel itself, three-arg pow and gmpy2 are the point."""

import gmpy2


def powmod(base, exponent, modulus):
    assert gmpy2
    return pow(base, exponent, modulus)
