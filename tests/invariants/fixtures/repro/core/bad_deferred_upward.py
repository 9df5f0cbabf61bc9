"""A foundation module deferring an orchestration import (it violates)."""

from repro import lazy

Experiment = lazy.defer(__name__, "..api.experiment", "Experiment")
