"""Structural invariants of ``src/repro``, checked as plain tests."""
