"""Modular arithmetic routed through the kernel; two-arg pow is fine."""

from repro.crypto import bigint


def modexp(base, exponent, modulus):
    return bigint.powmod(base, exponent, modulus)


def square(x):
    return pow(x, 2)
