"""Compare two result files of ``perf/run.py`` against the benchmark's bounds.

One verdict per (workload, end-to-end metric), from the bounds declared in
``BENCHMARK.json``:

* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``ok`` — they do not;
* ``unresolved`` — the run-to-run spread, (max − min) / median on either
  side, is wider than the bound *and* the two sets of runs interleave: the
  benchmark cannot tell, which is not the same as "unchanged".

Every ratio is printed with its base (``1.03x of 2.431 s``).  Any ``worse``
verdict, or any rise in ``failed_frac``, makes the comparison fail.
"""

from __future__ import annotations

import statistics

__all__ = ["compare", "render", "verdict"]


def _spread(samples: list[float]) -> float:
    return (max(samples) - min(samples)) / statistics.median(samples)


def verdict(
    base: list[float], new: list[float], bound: float, better: str
) -> tuple[str, float, float]:
    """(verdict, ratio new/base of the medians, base median)."""
    base_median = statistics.median(base)
    ratio = statistics.median(new) / base_median
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    interleave = min(new) <= max(base) and min(base) <= max(new)
    if interleave and max(_spread(base), _spread(new)) > bound:
        return "unresolved", ratio, base_median
    if worse_by > bound:
        return "worse", ratio, base_median
    if worse_by < -bound:
        return "better", ratio, base_median
    return "ok", ratio, base_median


def _failed_frac(entry: dict) -> float:
    return entry["failed"] / entry["attempted"]


def compare(base: dict, new: dict, benchmark: dict) -> tuple[list[dict], bool]:
    """Rows (one per workload present in both files) and overall pass/fail."""
    rows = []
    passed = True
    for name, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(name)
        if new_entry is None:
            continue
        row = {
            "workload": name,
            "metrics": {},
            "failed_frac": (_failed_frac(base_entry), _failed_frac(new_entry)),
        }
        if row["failed_frac"][1] > row["failed_frac"][0]:
            passed = False
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            result = verdict(
                base_entry["end_to_end"][key]["samples"],
                new_entry["end_to_end"][key]["samples"],
                metric["bound"],
                metric["better"],
            )
            row["metrics"][key] = (*result, metric["unit"])
            if result[0] == "worse":
                passed = False
        rows.append(row)
    return rows, passed


def render(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        cells = [
            f"{key} {word} {ratio:.3f}x of {base_median:.4g} {unit}"
            for key, (word, ratio, base_median, unit) in row["metrics"].items()
        ]
        before, after = row["failed_frac"]
        cells.append(
            f"failed_frac {'rose' if after > before else 'ok'} "
            f"{after:.3g} from {before:.3g}"
        )
        lines.append(f"{row['workload']:18s} " + " | ".join(cells))
    return lines
