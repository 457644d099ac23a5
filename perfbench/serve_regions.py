"""serve-regions: an analyst's script reading sub-regions from a node.

Set-up writes ``ARCHIVES`` sz21 v3 tiled archives (``Rel`` 1e-3, cubic
tiles) with ``repro.compress_chunked`` and serves them with ``repro serve``
under a tile-cache budget below the cold working set.  Set-up step ``i``
writes archive ``i`` and starts a node on archives ``0..i``; the last node
is the one measured, and ``setup_s`` is the median step.  One keep-alive
connection then runs closed-loop rounds of one cold request and
``HOT_PER_ROUND`` hot requests:

* hot: an 8^3 region inside one of ``HOT_TILES`` tiles that stay resident;
* cold: one whole tile never read earlier in the run.

Which class a request belongs to is fixed by the request sequence, not by
its timing.  The run ends when the time is up or the cold tiles run out.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

from perfbench import checks, fields
from perfbench.common import Stopwatch, Tally, make_workdir, remove_workdir
from perfbench.node import Client, Node, region_query

REL = 1e-3
FULL = {"shape": (128, 128, 128), "tile": 16, "hot_edge": 8}
TINY = {"shape": (16, 32, 32), "tile": 8, "hot_edge": 4}
#: Archives written in set-up, one per set-up step; together they hold the
#: cold tiles, so a run has three times as many as one archive would give.
ARCHIVES = 3
HOT_TILES = 8
#: Hot requests per cold one, by one rule: equal read time per class, so
#: that ``read_rps`` weights the two alike.  14 is the cold / hot p50 ratio
#: measured in sizing (11.6 ms / 0.82 ms); the report prints the share of
#: read time that went to cold reads (``cold_time_share``).
HOT_PER_ROUND = 14
#: Decoded-tile cache budget: room for the hot tiles plus a couple of dozen
#: cold ones, far below the cold working set.
CACHE_MB = 0.5


def _tile_bounds(grid: Tuple[int, ...], tile: int, t: int) -> List[Tuple[int, int]]:
    coords = np.unravel_index(t, grid)
    return [(int(c) * tile, (int(c) + 1) * tile) for c in coords]


def _write_archive(seed: int, geo: dict, path: Path, i: int):
    """Generate field ``i`` and write its tiled archive; returns the field,
    the archive size and the CPU seconds of ``compress_chunked``."""
    import repro
    from repro import Rel

    field = fields.smooth_volume(geo["shape"], np.random.default_rng([seed, 10 + i]))
    c0 = time.process_time()  # CPU seconds, as in codec-sweep
    blob = repro.compress_chunked(field, codec="sz21", bound=Rel(REL),
                                  chunk_shape=(geo["tile"],) * 3)
    compress_s = time.process_time() - c0
    path.write_bytes(blob)
    return field, len(blob), compress_s


def run(seed: int, seconds: float, tiny: bool, tracer=None) -> dict:
    geo = TINY if tiny else FULL
    tile, hot_edge = geo["tile"], geo["hot_edge"]
    grid = tuple(n // tile for n in geo["shape"])
    n_tiles = int(np.prod(grid))
    workdir = make_workdir("serve-regions-")
    tally = Tally()
    node = None
    try:
        setup_s, compress_s = [], []
        data, archive_bytes, specs = [], 0, []
        spans_path = workdir / "server-spans.json" if tracer is not None else None
        for i in range(ARCHIVES):
            if node is not None:
                node.stop()
            t0 = time.perf_counter()
            path = workdir / f"field{i}.rpra"
            field, size, comp = _write_archive(seed, geo, path, i)
            data.append(field)
            archive_bytes += size
            compress_s.append(comp)
            specs.append(f"field{i}={path}")
            node = Node(specs + ["--cache-mb", str(CACHE_MB)], workdir,
                        spans=spans_path if i == ARCHIVES - 1 else None)
            setup_s.append(time.perf_counter() - t0)

        rng = np.random.default_rng([seed, 11])
        n_hot = HOT_TILES if not tiny else 4
        order = [int(t) for t in rng.permutation(n_tiles)]
        hot_tiles = order[:n_hot]  # in archive 0
        cold_pool = [(0, t) for t in order[n_hot:]] + [
            (a, t) for a in range(1, ARCHIVES) for t in range(n_tiles)]
        cold_pool = [cold_pool[i] for i in rng.permutation(len(cold_pool))]
        hot_regions = []
        for k in range(HOT_PER_ROUND if not tiny else 4):
            base = _tile_bounds(grid, tile, hot_tiles[k % n_hot])
            off = rng.integers(0, tile - hot_edge + 1, size=3)
            hot_regions.append([(b0 + int(o), b0 + int(o) + hot_edge)
                                for (b0, _), o in zip(base, off)])

        bounds_abs = [checks.abs_bound(f, REL) for f in data]
        ranges = [float(f.max()) - float(f.min()) for f in data]
        client = Client(node)
        sse, count = 0.0, 0  # squared error relative to each field's range
        lat = {"hot": [], "cold": []}

        def read(a: int, bounds, kind: str, record: bool) -> None:
            nonlocal sse, count
            what = f"{kind} field{a} {region_query(bounds)}"
            try:
                resp = client.get(f"/v1/field{a}/region?r={region_query(bounds)}",
                                  kind)
            except OSError as exc:
                tally.fail(f"{what}: {exc!r}", wrong=False)
                return
            if resp.status != 200:
                tally.fail(f"{what}: HTTP {resp.status}", wrong=False)
                return
            want = data[a][tuple(slice(lo, hi) for lo, hi in bounds)]
            try:
                got = checks.decode_region_body(resp.body, resp.headers,
                                                want.shape, what)
                checks.check_decoded(want, got, bounds_abs[a], what)
            except checks.CheckFailed as exc:
                tally.fail(str(exc), wrong=True)
                return
            tally.ok()
            if record:
                lat[kind].append(resp.seconds)
                sse += checks.squared_error(want, got) / ranges[a] ** 2
                count += want.size

        # Warm-up: load the hot set (and let lazy set-up finish) untimed.
        for bounds in hot_regions:
            read(0, bounds, "warm", record=False)
        evictions0 = client.metrics()["cache"]["evictions"]

        clock = Stopwatch(seconds)
        rounds = 0
        round_rps: List[float] = []
        while not clock.expired() and rounds < len(cold_pool):
            before = len(client.log)
            a, t = cold_pool[rounds]
            read(a, _tile_bounds(grid, tile, t), "cold", record=True)
            for hot in hot_regions:
                read(0, hot, "hot", record=True)
            mine = client.log[before:]
            round_rps.append(checks.rate(len(mine), sum(e[1] for e in mine)))
            rounds += 1
        window = (clock.start, time.perf_counter())
        evictions = client.metrics()["cache"]["evictions"] - evictions0
        peak = node.peak_rss_mb()
        client.close()
        node.stop()
        node = None
        server_spans = []
        if spans_path is not None:
            from perfbench.tracing import load_spans
            server_spans = load_spans(spans_path)

        hot, cold = lat["hot"], lat["cold"]
        itemsize = data[0].itemsize
        e2e = {
            "setup_s": checks.median(setup_s),
            "compress_mbps": checks.rate(sum(f.nbytes for f in data) / 1e6,
                                         sum(compress_s)),
            "decompress_mbps": checks.rate(tile ** 3 * itemsize / 1e6, checks.median(cold)),
            "ratio": sum(f.nbytes for f in data) / archive_bytes,
            "psnr_db": checks.psnr_db(1.0, sse, count),
            "read_rps": checks.median(round_rps),
            "hot_read_p50_ms": 1e3 * checks.median(hot),
            "cold_read_p50_ms": 1e3 * checks.median(cold),
        }
        tails = {"hot_read_p99_ms": checks.tail(hot, 0.99),
                 "cold_read_p95_ms": checks.tail(cold, 0.95)}
        report = {
            "peak_rss_mb": peak,
            "rounds": rounds,
            "cold_pool": len(cold_pool),
            "pool_exhausted": rounds >= len(cold_pool),
            "setup_s_each": setup_s,
            "compress_chunked_s_each": compress_s,
            "samples": {"hot": len(hot), "cold": len(cold)},
            "tails_ms": {k: (None if v is None else 1e3 * v) for k, v in tails.items()},
            "cold_time_share": checks.rate(sum(cold), sum(cold) + sum(hot)),
            "inputs": {"archives": ARCHIVES, "shape": list(geo["shape"]),
                       "dtype": str(data[0].dtype), "codec": "sz21", "rel": REL,
                       "tile": [tile] * 3, "tiles_per_archive": n_tiles,
                       "hot_tiles": len(hot_tiles), "hot_region": [hot_edge] * 3,
                       "hot_per_round": len(hot_regions), "cold_per_round": 1,
                       "cache_mb": CACHE_MB, "archive_bytes": archive_bytes},
        }
        return {"tally": tally, "e2e": e2e, "report": report, "window": window,
                "client_log": client.log, "server_spans": server_spans,
                "evictions": evictions}
    finally:
        if node is not None:
            node.stop()
        remove_workdir(workdir)
