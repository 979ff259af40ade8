"""Regression sentinel for hot-path bench reports (``repro bench --check``).

:func:`check_report` matches the rows of a fresh
:func:`~repro.utils.bench.bench_hotpaths` report against a recorded
baseline by section and each row's ``key`` (the identity fields the
bench spelt out when it made the row), and flags every row whose
``wall_s`` grew beyond the tolerance band.  It reads only the two report
dicts, so it knows nothing of how a row was measured or identified.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "check_report",
    "render_check_table",
    "CHECK_TOLERANCE",
    "CHECK_MIN_DELTA_S",
]

# Fractional slowdown of ``wall_s`` tolerated by ``check_report``
# before a row counts as a regression.  Micro-benchmarks on shared CI
# hosts jitter hard, so the default band is deliberately wide — the
# sentinel exists to catch the 2x+ accidents, not 10% noise.
CHECK_TOLERANCE = 0.5
# Absolute slack added on top of the fractional band: rows timed in
# hundreds of microseconds flap on scheduler noise alone, so a delta
# smaller than this many seconds never regresses regardless of ratio.
CHECK_MIN_DELTA_S = 0.005


def _row_key(section: str, row: dict[str, Any]) -> str:
    return f"{section} {row['key']}"


def _row_skip_reason(
    current: dict[str, Any], baseline: dict[str, Any]
) -> str | None:
    """Why this row pair cannot be compared honestly, or None."""
    if current.get("degraded") or baseline.get("degraded"):
        return "degraded host"
    cur_eff = current.get("workers_effective")
    base_eff = baseline.get("workers_effective")
    if cur_eff != base_eff:
        return f"workers_effective {base_eff} -> {cur_eff}"
    return None


def check_report(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = CHECK_TOLERANCE,
    min_delta_s: float = CHECK_MIN_DELTA_S,
) -> dict[str, Any]:
    """Compare a fresh run against a recorded baseline, row by row.

    Rows are matched by section plus ``key`` (graph shape, variant,
    n/k/workers, ...), so quick-vs-full grid differences simply
    leave rows unmatched (``new``/``missing`` status) rather than
    failing.  A matched row regresses when its ``wall_s`` exceeds the
    baseline by more than ``tolerance`` (fractional) *and* by more than
    ``min_delta_s`` absolute — the floor keeps sub-millisecond rows from
    flapping on scheduler noise.  Rows whose machines cannot be compared
    honestly are skipped, never failed: a ``degraded`` flag on either
    side (single-core host) or a ``workers_effective`` mismatch means
    the baseline's parallel timings are not reproducible here.

    Returns a dict with per-row status entries (``rows``), the keys that
    regressed (``regressions``), and checked/skipped/unmatched tallies.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base_rows = {
        _row_key(section, row): row
        for section, rows in baseline.get("benchmarks", {}).items()
        for row in rows
    }
    entries: list[dict[str, Any]] = []
    for section, rows in current.get("benchmarks", {}).items():
        for row in rows:
            key = _row_key(section, row)
            base = base_rows.pop(key, None)
            cur_s = row["wall_s"]
            entry: dict[str, Any] = {"key": key, "current_s": cur_s, "status": "new",
                                     "baseline_s": base["wall_s"] if base else None}
            if base is not None:
                base_s = base["wall_s"]
                if base_s:
                    entry["delta_pct"] = round(100.0 * (cur_s / base_s - 1), 1)
                reason = _row_skip_reason(row, base)
                if reason is not None:
                    entry.update(status="skipped", reason=reason)
                elif (
                    cur_s > base_s * (1.0 + tolerance)
                    and cur_s - base_s > min_delta_s
                ):
                    entry["status"] = "regression"
                else:
                    entry["status"] = "ok"
            entries.append(entry)
    entries += [
        {"key": key, "current_s": None, "baseline_s": base["wall_s"],
         "status": "missing"}
        for key, base in base_rows.items()
    ]
    statuses = [entry["status"] for entry in entries]
    return {
        "tolerance": tolerance,
        "min_delta_s": min_delta_s,
        "baseline_commit": baseline.get("git_commit"),
        "rows": entries,
        "regressions": [e["key"] for e in entries if e["status"] == "regression"],
        "checked": statuses.count("ok") + statuses.count("regression"),
        "skipped": statuses.count("skipped"),
        "unmatched": statuses.count("new") + statuses.count("missing"),
    }


def render_check_table(result: dict[str, Any]) -> str:
    """Plain-text delta table for one :func:`check_report` result."""
    commit = result.get("baseline_commit")
    lines = [
        f"bench --check — tolerance +{result['tolerance'] * 100:.0f}% "
        f"(abs floor {result['min_delta_s'] * 1000:.1f} ms, baseline commit "
        f"{commit[:12] if commit else 'unknown'})",
        f"{'status':<12} {'workload':<52} {'baseline':>10} {'current':>10} "
        f"{'delta':>8}",
    ]
    for entry in sorted(
        result["rows"], key=lambda e: (e["status"] != "regression", e["key"])
    ):
        base_s = entry.get("baseline_s")
        cur_s = entry.get("current_s")
        delta = entry.get("delta_pct")
        status = entry["status"].upper() if entry["status"] == "regression" else entry["status"]
        if entry.get("reason"):
            status = f"{status} ({entry['reason']})"
        lines.append(
            f"{status:<12} {entry['key']:<52} "
            f"{f'{base_s:.4f}s' if base_s is not None else '-':>10} "
            f"{f'{cur_s:.4f}s' if cur_s is not None else '-':>10} "
            f"{f'{delta:+.1f}%' if delta is not None else '':>8}"
        )
    lines.append(
        f"{result['checked']} checked, {result['skipped']} skipped, "
        f"{result['unmatched']} unmatched, "
        f"{len(result['regressions'])} regression(s)"
    )
    return "\n".join(lines)
