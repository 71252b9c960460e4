"""Profile export: kernel tables.

The paper's methodology uses NVIDIA Nsight Compute to inspect
per-kernel time and DRAM traffic; this module provides the equivalent
text artifacts for simulated profiles:

- :func:`to_kernel_table` — a CSV-style text table of every launch;
- :func:`summarize` — the per-category rollup as plain text.

Kernel spans as a Chrome trace come from ``repro trace --sim
inference`` (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.reporting import render_table
from repro.gpu.profiler import Profile

_MICRO = 1e6


def to_kernel_table(profile: Profile, *, limit: Optional[int] = None) -> str:
    """Per-launch table: what `nsight-compute --csv` would show."""
    rows = []
    records = profile.records[:limit] if limit else profile.records
    for index, record in enumerate(records):
        rows.append([
            index,
            record.name,
            record.category,
            f"{record.time * _MICRO:.1f}",
            f"{record.dram_bytes / 1e6:.2f}",
            f"{record.bandwidth_utilization * 100:.0f}%",
            record.bound,
        ])
    return render_table(
        ["#", "kernel", "category", "time (us)", "DRAM (MB)",
         "BW util", "bound"],
        rows,
    )


def summarize(profile: Profile) -> str:
    """Per-category rollup: time, traffic, launch count."""
    times = profile.time_by_category()
    traffic = profile.traffic_by_category()
    counts: dict[str, int] = {}
    for record in profile:
        counts[record.category] = counts.get(record.category, 0) + 1
    total = profile.total_time() or 1.0
    rows = [
        [category,
         counts.get(category, 0),
         f"{times.get(category, 0.0) * 1e3:.2f}",
         f"{times.get(category, 0.0) / total * 100:.0f}%",
         f"{traffic.get(category, 0.0) / 1e9:.2f}"]
        for category in sorted(times)
    ]
    rows.append(["TOTAL", len(profile), f"{profile.total_time() * 1e3:.2f}",
                 "100%", f"{profile.total_dram_bytes() / 1e9:.2f}"])
    return render_table(
        ["category", "kernels", "time (ms)", "share", "DRAM (GB)"], rows,
    )
