"""Cryptographic substrate: Damgård–Jurik with threshold decryption.

This package is the paper's Sec. 3.3.1 building block — a semantically
secure, additively homomorphic encryption scheme with non-interactive
threshold decryption — implemented from scratch on Python integers.

On top of the scheme itself it provides the *batched* evaluation plane the
protocol layers run on: fixed-base precomputation for amortized
encryption (:class:`FastEncryptor` over :class:`FixedBaseTable`), slot
packing of many fixed-point values per plaintext (:class:`PackedCodec`),
and swappable serial / process-pool execution backends
(:mod:`repro.crypto.backend`) with deterministic per-item seeding.

All modular arithmetic routes through the pluggable bigint kernel
(:mod:`repro.crypto.bigint`): pure-python by default, GMP (``gmpy2``) as
an optional, bit-identical fast path selected via the
``REPRO_BIGINT_BACKEND`` env var, the ``bigint_backend`` RunSpec/params
field, or the ``--bigint-backend`` CLI flag.
"""

from .. import lazy

__all__, __getattr__ = lazy.exports(__name__, {
    ".bigint": ("bigint",),
    ".backend": ("CryptoBackend", "ProcessPoolBackend", "SerialBackend", "create_backend"),
    ".damgard_jurik": (
        "FastEncryptor",
        "decrypt",
        "dlog_1_plus_n",
        "encrypt",
        "encrypt_batch",
        "generate_keypair",
        "homomorphic_add",
        "homomorphic_scalar_mul",
        "powers_of_g",
    ),
    ".encoding": ("FixedPointCodec", "PackedCodec", "quantize_to_grid"),
    ".numtheory": ("FixedBaseTable",),
    ".keys": ("KeyShare", "PrivateKey", "PublicKey", "ThresholdContext"),
    ".shamir": ("lagrange_at_zero", "reconstruct_at_zero", "share_secret"),
    ".threshold": (
        "ThresholdKeypair",
        "combine_partial_decryptions",
        "combine_partial_decryptions_batch",
        "generate_threshold_keypair",
        "partial_decrypt",
    ),
})
