"""A fault using only the documented seams (plus downward imports)."""

from repro.core.verification import DeviceRegistry
from repro.crypto import bigint
from repro.gossip.engine import GossipEngine


def wrap(engine: GossipEngine):
    return DeviceRegistry, bigint, engine
