"""A foundation module importing orchestration (both imports violate)."""

from repro.service.runner import Scheduler
from repro.warehouse import connect


def run():
    return Scheduler, connect
