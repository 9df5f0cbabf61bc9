"""A fault reaching protocol internals past the documented seams."""

from repro.gossip.eesum import EESum


def forge():
    return EESum
