"""The invariant analyzer (``repro.analysis.lint``)."""
