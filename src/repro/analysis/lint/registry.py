"""The rule registry — a :class:`repro.api.registry.Registry` of rules.

The same string-keyed registry every other pluggable component uses
(``import repro.analysis.lint`` runs ``repro/__init__.py``, so
``repro.api`` is loaded either way), populated by a decorator — writing
a rule feels exactly like registering a dataset or a plane:

>>> from repro.analysis.lint import LintRule, register_rule
>>> @register_rule("my-invariant")
... class MyRule(LintRule):
...     '''One-line contract statement (shown by ``--list-rules``).'''
...     def check(self, project):
...         yield from ()

A rule is a class with a ``check(project) -> Iterable[Finding]`` method;
``key`` is injected at registration.  Rules see the whole
:class:`~repro.analysis.lint.model.Project` (single-parse modules), so
both per-module and whole-program rules (layering) iterate
``project.modules``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ...api.registry import Registry
from .findings import Finding
from .model import Project

__all__ = ["LintRule", "RULES", "register_rule"]


class LintRule:
    """Base class for rules: subclass, register, implement ``check``."""

    #: registry key, injected by :func:`register_rule`
    key: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    @property
    def description(self) -> str:
        """First docstring line — the ``--list-rules`` summary."""
        doc = (self.__class__.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


RULES = Registry("lint rule")


def register_rule(key: str) -> Callable:
    """Decorator: register a :class:`LintRule` subclass under ``key``."""
    return RULES.register_instance(key)
