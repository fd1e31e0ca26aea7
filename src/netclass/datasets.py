"""Retrieval and caching of the benchmark SNAP edge lists.

The bundled manifest records each dataset's published node and edge
counts; no checksums are published upstream, so verification recomputes
those counts after download. Directed inputs get symmetrized at load
time, which can legitimately shrink the edge count below the published
figure (reciprocal pairs collapse); verification therefore accepts the
published count against either the deduplicated edge total or the raw
data-line count, and flags anything else.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DatasetError
from .graph import Graph, LoadStats, load_edge_list

SNAP_BASE = "https://snap.stanford.edu/data"
FETCH_TIMEOUT_S = 120.0  # seconds a download may wait on the server

#: Published statistics for the benchmark networks.
MANIFEST: dict[str, dict] = {
    "email-Enron": {
        "url": f"{SNAP_BASE}/email-Enron.txt.gz",
        "nodes": 36692, "edges": 183831, "directed": False},
    "p2p-Gnutella04": {
        "url": f"{SNAP_BASE}/p2p-Gnutella04.txt.gz",
        "nodes": 10876, "edges": 39994, "directed": True},
    "wiki-Vote": {
        "url": f"{SNAP_BASE}/wiki-Vote.txt.gz",
        "nodes": 7115, "edges": 103689, "directed": True},
    "ca-GrQc": {
        "url": f"{SNAP_BASE}/ca-GrQc.txt.gz",
        "nodes": 5242, "edges": 14496, "directed": False},
}


def default_cache_dir() -> Path:
    env = os.environ.get("NETCLASS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "netclass"


@dataclass
class FetchResult:
    name: str
    path: Path
    from_cache: bool
    verified: bool
    n: int
    m: int
    raw_edge_lines: int
    note: str | None


def _verify(name: str, entry: dict, g: Graph,
            stats: LoadStats) -> tuple[bool, str | None]:
    if g.n != entry["nodes"]:
        return False, (f"{name}: node count {g.n} != published {entry['nodes']}")
    published = entry["edges"]
    if g.m == published or stats.raw_lines == published:
        return True, None
    return True, (f"{name}: symmetrization changed the edge count "
                  f"(published {published}, deduplicated {g.m}, "
                  f"raw lines {stats.raw_lines})")


def fetch_dataset(name: str, cache_dir: Path | str | None = None,
                  manifest: dict | None = None) -> FetchResult:
    """Download, decompress, cache, and verify a named dataset.

    A cached file is returned without touching the network. On a count
    mismatch the file is kept and a ``<file>.unverified`` marker records
    the discrepancy.
    """
    manifest = MANIFEST if manifest is None else manifest
    if name not in manifest:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(sorted(manifest))}")
    entry = manifest[name]
    cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
    path = cache_dir / f"{name}.txt"
    from_cache = path.exists()
    if not from_cache:
        import urllib.request  # with http.client and ssl: costly at start-up
        try:
            with urllib.request.urlopen(entry["url"], timeout=FETCH_TIMEOUT_S) as resp:
                payload = resp.read()
        except (OSError, ValueError) as exc:  # URLError is an OSError
            raise DatasetError(
                f"could not retrieve {name} from {entry['url']}: {exc}") from exc
        if payload[:2] == b"\x1f\x8b":
            payload = gzip.decompress(payload)
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(payload)
        tmp.replace(path)

    g, stats = load_edge_list(path, return_stats=True)
    ok, note = _verify(name, entry, g, stats)
    marker = path.with_name(path.name + ".unverified")
    if not ok:
        marker.write_text((note or "verification failed") + "\n")
    elif marker.exists():
        marker.unlink()
    return FetchResult(name=name, path=path, from_cache=from_cache,
                       verified=ok, n=g.n, m=g.m,
                       raw_edge_lines=stats.raw_lines, note=note)

