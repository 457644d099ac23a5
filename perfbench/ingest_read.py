"""ingest-read: a producer pushing fields to a writable node and reading back.

Set-up starts ``repro serve --root DIR --writable`` on an empty root and
generates a pool of float32 fields.  Each round, from one process, strictly
one request at a time:

1. push field A under the key with ``repro.store.client.push_field``
   (szinterp, ``Rel`` 1e-3) — a new key;
2. read one region (cold: the archive was just published), then
   ``HOT_PER_PUSH`` small regions (hot), then fetch the whole archive
   (``GET /v1/<key>/archive``, untimed) to take the ratio from its length;
3. push field B under the same key (a replace), and read again: the cold
   read must match B and not A, and carry the new generation;
4. delete the key, and check that it now answers 404.

So the root holds at most one key, and every round does the same work.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

from perfbench import checks, fields
from perfbench.common import (SETUP_REPEATS, Stopwatch, Tally, make_workdir,
                              remove_workdir)
from perfbench.node import Client, Node, region_query

REL = 1e-3
CODEC = "szinterp"
KEY = "field"
FULL = {"shape": (64, 128, 128), "cold": (16, 32, 32), "hot": (8, 8, 8)}
TINY = {"shape": (8, 16, 16), "cold": (4, 8, 8), "hot": (2, 2, 2)}
POOL = 4
#: Hot reads per push, by the rule serve-regions uses: equal read time per
#: class.  350 is the cold / hot p50 ratio measured in sizing (269 ms /
#: 0.77 ms); the report prints ``cold_time_share``.
HOT_PER_PUSH = 350


def _setup_once(seed: int, geo: dict, workdir: Path, spans):
    t0 = time.perf_counter()
    pool = [fields.smooth_volume(geo["shape"], np.random.default_rng([seed, 20 + i]))
            for i in range(POOL)]
    root = workdir / "root"
    root.mkdir()
    node = Node(["--root", str(root), "--writable"], workdir, spans=spans)
    return time.perf_counter() - t0, pool, node


def _regions(rng, shape, edge, count) -> List[List[Tuple[int, int]]]:
    out = []
    for _ in range(count):
        off = [int(rng.integers(0, n - e + 1)) for n, e in zip(shape, edge)]
        out.append([(o, o + e) for o, e in zip(off, edge)])
    return out


def run(seed: int, seconds: float, tiny: bool, tracer=None) -> dict:
    from repro import Rel
    from repro.store.client import PushError, delete_key, push_field

    geo = TINY if tiny else FULL
    workdir = make_workdir("ingest-read-")
    tally = Tally()
    node = None
    try:
        setup_s = []
        repeats = 1 if tracer is not None else SETUP_REPEATS
        spans_path = workdir / "server-spans.json" if tracer is not None else None
        for i in range(repeats):
            sub = workdir / f"setup{i}"
            sub.mkdir()
            took, pool, node = _setup_once(seed, geo, sub, spans_path)
            setup_s.append(took)
            if i < repeats - 1:
                node.stop()
                node = None

        rng = np.random.default_rng([seed, 21])
        hot_per_push = HOT_PER_PUSH if not tiny else 2
        cold_regions = _regions(rng, geo["shape"], geo["cold"], 2 * POOL)
        hot_regions = _regions(rng, geo["shape"], geo["hot"], hot_per_push)
        client = Client(node)
        lat = {"hot": [], "cold": []}
        push_s: List[float] = []
        block_rps: List[float] = []
        ratios: List[float] = []
        sse, count = 0.0, 0  # squared error relative to each field's range
        ranges = {id(f): float(f.max()) - float(f.min()) for f in pool}
        bound_of = {id(f): checks.abs_bound(f, REL) for f in pool}

        def read(field, stale, bounds, kind: str, generation: int) -> None:
            nonlocal sse, count
            what = f"{kind} {region_query(bounds)}"
            try:
                resp = client.get(f"/v1/{KEY}/region?r={region_query(bounds)}", kind)
            except OSError as exc:
                tally.fail(f"{what}: {exc!r}", wrong=False)
                return
            if resp.status != 200:
                tally.fail(f"{what}: HTTP {resp.status}", wrong=False)
                return
            sl = tuple(slice(a, b) for a, b in bounds)
            want = field[sl]
            try:
                got = checks.decode_region_body(resp.body, resp.headers,
                                                want.shape, what)
                checks.check_generation(resp.headers, generation, what)
                checks.check_decoded(want, got, bound_of[id(field)], what)
                if stale is not None:
                    checks.check_not_stale(stale[sl], got, bound_of[id(stale)], what)
            except checks.CheckFailed as exc:
                tally.fail(str(exc), wrong=True)
                return
            tally.ok()
            lat[kind].append(resp.seconds)
            sse += checks.squared_error(want, got) / ranges[id(field)] ** 2
            count += want.size

        def push(field, created: bool):
            what = f"push ({'create' if created else 'replace'})"
            try:
                t0 = time.perf_counter()
                doc = client.timed("push", push_field, node.url, KEY, field,
                                   bound=Rel(REL), codec=CODEC)
                took = time.perf_counter() - t0
            except (OSError, PushError) as exc:
                tally.fail(f"{what}: {exc!r}", wrong=False)
                return None
            if (doc.get("created") is not created or doc.get("codec") != CODEC
                    or list(doc.get("shape", [])) != list(field.shape)):
                tally.fail(f"{what}: unexpected response {doc}", wrong=True)
                return None
            tally.ok()
            push_s.append(took)
            return int(doc["generation"]), int(doc["archive_bytes"])

        def fetch_archive(field, reported: int) -> None:
            """Ratio from the length of the archive the node serves, which
            must also be the size the push reported."""
            try:
                resp = client.get(f"/v1/{KEY}/archive", "archive")
            except OSError as exc:
                tally.fail(f"archive: {exc!r}", wrong=False)
                return
            if resp.status != 200:
                tally.fail(f"archive: HTTP {resp.status}", wrong=False)
                return
            if len(resp.body) != reported:
                tally.fail(f"archive: {len(resp.body)} bytes served, push "
                           f"reported {reported}", wrong=True)
                return
            tally.ok()
            ratios.append(field.nbytes / len(resp.body))

        def delete() -> None:
            try:
                client.timed("delete", delete_key, node.url, KEY)
            except (OSError, PushError) as exc:
                tally.fail(f"delete: {exc!r}", wrong=False)
                return
            tally.ok()
            try:
                resp = client.get(f"/v1/{KEY}/region?r=0:1,0:1,0:1", "gone")
            except OSError as exc:
                tally.fail(f"read after delete: {exc!r}", wrong=False)
                return
            if resp.status != 404:
                tally.fail(f"read after delete: HTTP {resp.status}, not 404",
                           wrong=True)
                return
            tally.ok()

        def one_round(r: int) -> None:
            a, b = pool[(2 * r) % POOL], pool[(2 * r + 1) % POOL]
            stale = None
            for field, created in ((a, True), (b, False)):
                pushed = push(field, created)
                if pushed is not None:
                    generation, reported = pushed
                    before = len(client.log)
                    read(field, stale, cold_regions[(2 * r + int(not created))
                                                    % len(cold_regions)],
                         "cold", generation)
                    for bounds in hot_regions:
                        read(field, None, bounds, "hot", generation)
                    mine = client.log[before:]
                    block_rps.append(checks.rate(len(mine), sum(e[1] for e in mine)))
                    fetch_archive(field, reported)
                stale = field
            delete()

        clock = Stopwatch(seconds)
        rounds = 0
        while not clock.expired():
            one_round(rounds)
            rounds += 1
        window = (clock.start, time.perf_counter())
        peak = node.peak_rss_mb()
        client.close()
        node.stop()
        node = None
        server_spans = []
        if spans_path is not None:
            from perfbench.tracing import load_spans
            server_spans = load_spans(spans_path)

        hot, cold = lat["hot"], lat["cold"]
        raw_mb = pool[0].nbytes / 1e6
        e2e = {
            "setup_s": checks.median(setup_s),
            "compress_mbps": checks.median(raw_mb / s for s in push_s),
            "decompress_mbps": checks.rate(
                int(np.prod(geo["cold"])) * pool[0].itemsize / 1e6, checks.median(cold)),
            "ratio": checks.geomean(ratios),
            "psnr_db": checks.psnr_db(1.0, sse, count),
            "read_rps": checks.median(block_rps),
            "hot_read_p50_ms": 1e3 * checks.median(hot),
            "cold_read_p50_ms": 1e3 * checks.median(cold),
        }
        report = {
            "peak_rss_mb": peak,
            "rounds": rounds,
            "setup_s_each": setup_s,
            "samples": {"pushes": len(push_s), "hot": len(hot), "cold": len(cold)},
            "ingest_mbps": e2e["compress_mbps"],
            "push_s_each": push_s,
            "cold_time_share": checks.rate(sum(cold), sum(cold) + sum(hot)),
            "tails_ms": {"hot_read_p99_ms": (lambda v: None if v is None else 1e3 * v)(
                checks.tail(hot, 0.99))},
            "inputs": {"shape": list(geo["shape"]), "dtype": str(pool[0].dtype),
                       "pool": POOL, "codec": CODEC, "rel": REL,
                       "cold_region": list(geo["cold"]), "hot_region": list(geo["hot"]),
                       "hot_per_push": hot_per_push, "cold_per_push": 1},
        }
        return {"tally": tally, "e2e": e2e, "report": report, "window": window,
                "client_log": client.log, "server_spans": server_spans,
                "evictions": 0}
    finally:
        if node is not None:
            node.stop()
        remove_workdir(workdir)
