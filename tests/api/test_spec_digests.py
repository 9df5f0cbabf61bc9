"""The four protocol specs of the reference benchmark keep their results.

Each of ``perf/specs``' protocol workloads runs at seeds 0, 1 and 2 through
``Experiment.from_spec(...).run().to_dict()``, and the sha256 of that record
as sorted JSON (the form ``test_stored_specs.py`` pins) must equal the
digest below.  A refactor of the loop, the computation steps, the release
plan or the crypto kernels leaves every one of them equal; a change that
moves results on purpose (the noise streams, the ε split between sums and
counts, weighted nodes) re-pins them in ROADMAP item 1's re-pin window,
with one sentence per pin saying why.  All twelve runs take ≈ 9 s on two
cores.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.api import Experiment, RunSpec

SPECS = pathlib.Path(__file__).resolve().parents[2] / "perf" / "specs"

DIGESTS = {
    ("vcrypto_encrypt", 0): "5c1c78dd49bad7f3650a96cf1f5c3efa2d346257f06fc07571813f6e9a882b87",
    ("vcrypto_encrypt", 1): "b43f4a1a5b6ae2f4f8387109947947ce5d915b43709257fa9f78ddf9e0933fe3",
    ("vcrypto_encrypt", 2): "1890f2aeda1125cccfb30c9897053effce168cd1093d21ec889f4118b15f95ba",
    ("vcrypto_gossip", 0): "2aee07428bd61f096a1f6b906359e3630319c394a3636d1eefdabcbf5418b550",
    ("vcrypto_gossip", 1): "f226ddb1b4ba1d27a56fdb4c63b0f0887574b36604e93f993ea6bfc00c37621e",
    ("vcrypto_gossip", 2): "03bcce776754b6f082339c3dc4d65b6ecabe6afed1fbf6ca8223d1da13d1649d",
    ("object_decrypt", 0): "663b4a72750df52e220187133a21c1c8bd6defe0f7bdb587e218d1c700d36186",
    ("object_decrypt", 1): "2bcbdd00cb71e88c8fed717ecabe06a65ad7de7302984004ff451de750268dac",
    ("object_decrypt", 2): "f530574daf7f628facd02f6aceb71f1606c3048d1d77838128b92a5502d82d87",
    ("vectorized_mock", 0): "4138a57e43ba80825d02a15ce8818c21866dbd9c6a98aa3e96d44c43382ad37a",
    ("vectorized_mock", 1): "0e0c74bd6e78b1410a88fef8c8a9760768bce2d8857cb01378a48f050bf6a413",
    ("vectorized_mock", 2): "1b2199369a88618cc4a1de0af87f43eb1e14788237b07605ea126e32ad186368",
}


@pytest.mark.parametrize(
    "workload, seed", sorted(DIGESTS), ids=lambda value: str(value)
)
def test_protocol_spec_result_digest(workload, seed):
    spec = json.loads((SPECS / f"{workload}.json").read_text())
    result = Experiment.from_spec(RunSpec.from_dict({**spec, "seed": seed})).run()
    record = json.dumps(result.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(record).hexdigest() == DIGESTS[workload, seed]
