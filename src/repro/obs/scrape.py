"""Poll fleet ``/metrics`` endpoints into append-only JSONL series.

::

    python -m repro.obs.scrape URL [URL ...] -o DIR_OR_FILE
        [--interval 2] [--count N] [--timeout 5]

Each tick GETs every URL's Prometheus text, parses it with
:func:`repro.obs.prom.parse_metrics`, and appends one record per URL
to a ``*.metrics.jsonl`` file the monitor and SLO evaluator tail::

    {"t": <unix>, "url": "...", "ok": true,  "metrics": {...}}
    {"t": <unix>, "url": "...", "ok": false, "error": "..."}

A dead or restarting endpoint produces a *gap record* (``ok: false``)
and scraping continues — the series survives broker restarts with an
explicit hole rather than a silent stall, and the next successful
scrape resumes the same file.  Stdlib-only (urllib), like every
consumer-side obs tool.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.fleet.wal import iter_records
from repro.obs.prom import parse_metrics

__all__ = ["scrape_once", "scrape_loop", "main"]


def scrape_once(url: str, timeout_s: float = 5.0) -> dict:
    """One scrape of one endpoint → one series record (never raises)."""
    t = time.time()
    try:
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            text = response.read().decode("utf-8", "replace")
        return {"t": t, "url": url, "ok": True,
                "metrics": parse_metrics(text)}
    except (OSError, urllib.error.URLError, ValueError) as exc:
        return {"t": t, "url": url, "ok": False, "error": str(exc)}


def _out_path(out: str | Path, url: str) -> Path:
    """One ``*.metrics.jsonl`` per endpoint when ``out`` is a directory."""
    out = Path(out)
    if out.suffix == ".jsonl":
        return out
    safe = "".join(c if c.isalnum() else "_" for c in url).strip("_")
    return out / f"{safe}.metrics.jsonl"


def scrape_loop(
    urls: list[str],
    out: str | Path,
    interval_s: float = 2.0,
    count: int | None = None,
    timeout_s: float = 5.0,
    stop=None,
) -> int:
    """Append one record per URL per tick; returns records written.

    ``stop`` is an optional ``threading.Event``-like object checked
    between ticks (the bench harness scrapes from a sidecar thread).
    """
    paths = {url: _out_path(out, url) for url in urls}
    for path in paths.values():
        path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    tick = 0
    while True:
        for url in urls:
            record = scrape_once(url, timeout_s=timeout_s)
            with paths[url].open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            written += 1
        tick += 1
        if count is not None and tick >= count:
            return written
        if stop is not None and stop.wait(interval_s):
            return written
        if stop is None:
            time.sleep(interval_s)


def read_series(
    path: str | Path,
) -> dict[str, list[tuple[float, dict]]]:
    """Fold one scraped file into per-URL ``(t, samples)`` series.

    Torn/foreign lines are skipped; gap records (``ok: false``) are
    dropped from the numeric series (the SLO evaluator sees the hole
    as missing time, not a zero).
    """
    series: dict[str, list[tuple[float, dict]]] = {}
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return series
    for record in iter_records(data):
        if not record.get("ok"):
            continue
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            continue
        try:
            t = float(record.get("t"))
        except (TypeError, ValueError):
            continue
        series.setdefault(str(record.get("url", path.name)), []).append(
            (t, metrics)
        )
    for points in series.values():
        points.sort(key=lambda tv: tv[0])
    return series


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.scrape",
        description="Poll /metrics endpoints into JSONL time series.",
    )
    parser.add_argument(
        "urls", nargs="+", metavar="URL",
        help="metrics endpoints, e.g. http://127.0.0.1:8947/metrics",
    )
    parser.add_argument(
        "-o", "--out", required=True,
        help="output directory (one *.metrics.jsonl per URL) or a "
             "single .jsonl file",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between ticks (default 2)",
    )
    parser.add_argument(
        "--count", type=int, default=0,
        help="stop after N ticks (0 = until interrupted)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-request timeout in seconds (default 5)",
    )
    args = parser.parse_args(argv)
    try:
        written = scrape_loop(
            args.urls,
            args.out,
            interval_s=args.interval,
            count=args.count or None,
            timeout_s=args.timeout,
        )
    except KeyboardInterrupt:
        return 0
    print(f"scraped {written} record(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
