"""Per-layer metrics from the spans of a traced run.

Spans come from two processes: the benchmark's own (codec calls, set-up
writes) and, for the serving workloads, the node's (written by
``traced_serve.py``).  Both use ``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so one time window selects the
measured phase in both.  Server requests are joined with the client's
request log by their arrival number.

Times ending in ``_s`` are mean seconds per call unless the name says
otherwise; counts are per region read.  A metric whose layer the workload
never reaches reads 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from perfbench.codec_sweep import CODECS
from perfbench.tracing import Span, self_times

#: Every per-layer metric, with its unit and better direction; the order
#: and names match BENCHMARK.json.
METRICS: List[Tuple[str, str, str]] = []
for _codec in CODECS:
    METRICS += [(f"compressors.{_codec}.compress_mbps", "MB/s", "higher"),
                (f"compressors.{_codec}.decompress_mbps", "MB/s", "higher"),
                (f"compressors.{_codec}.ratio", "x", "higher")]
METRICS += [
    ("compressors.sz21.reconstruct_s", "s", "lower"),
    ("compressors.szinterp.reconstruct_s", "s", "lower"),
    ("core.aesz.ae_block_fraction", "fraction", "higher"),
    ("autoencoders.encode_s", "s", "lower"),
    ("autoencoders.decode_s", "s", "lower"),
    ("encoding.huffman.encode_s", "s", "lower"),
    ("encoding.huffman.decode_s", "s", "lower"),
    ("encoding.huffman.decode_msym_per_s", "Msym/s", "higher"),
    ("encoding.lossless.compress_s", "s", "lower"),
    ("encoding.lossless.decompress_s", "s", "lower"),
    ("quantization.quantize_s", "s", "lower"),
    ("quantization.dequantize_s", "s", "lower"),
    ("encoding.container.check_tile_s", "s", "lower"),
    ("api.decode_tile_s", "s", "lower"),
    ("sources.read_at_s", "s", "lower"),
    ("sources.bytes_read", "B", "lower"),
    ("store.tile_decodes", "count", "lower"),
    ("store.decode_amplification", "x", "lower"),
    ("store.cache.hits", "count", "higher"),
    ("store.cache.misses", "count", "lower"),
    ("store.cache.evictions", "count", "lower"),
    ("store.cache.hot_misses", "count", "lower"),
    ("store.app.hot_handle_s", "s", "lower"),
    ("store.app.cold_handle_s", "s", "lower"),
    ("store.front_end.hot_s", "s", "lower"),
    ("api.tile_crop_s", "s", "lower"),
    ("api.compress_chunked_s", "s", "lower"),
    ("store.ingest.compress_s", "s", "lower"),
    ("store.ingest.publish_s", "s", "lower"),
    ("store.manifest.put_s", "s", "lower"),
    ("store.ingest.fsyncs", "count", "lower"),
    ("store.ingest.transport_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

READ_KINDS = ("hot", "cold")


def _dur(span: Span) -> float:
    return span[3] - span[2]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(bench: List[Span], server: List[Span], client_log: List[list],
            window: Tuple[float, float], evictions: int,
            span_cost: float) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """(per-layer metrics, self-time table per span name)."""
    lo, hi = window
    compress_chunked = [s for s in bench + server if s[1] == "api.compress_chunked"]
    bench = [s for s in bench if s[2] >= lo and s[3] <= hi]
    server = [s for s in server if s[2] >= lo and s[3] <= hi]
    spans = bench + server
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    table = self_times(bench)
    for name, row in self_times(server).items():
        mine = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in mine:
            mine[key] += row[key]
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for origin, group in ((0, bench), (1, server)):
        for span in group:
            if span[4] >= 0:
                child_time[(origin, span[4])] += _dur(span)

    def self_of(name: str) -> List[float]:
        out = []
        for origin, group in ((0, bench), (1, server)):
            out += [_dur(s) - child_time[(origin, s[0])] for s in group if s[1] == name]
        return out

    def mean_of(name: str) -> float:
        return _mean([_dur(s) for s in by_name.get(name, [])])

    m: Dict[str, float] = {}
    for codec in CODECS:
        comp = by_name.get(f"codec.{codec}.compress", [])
        decomp = by_name.get(f"codec.{codec}.decompress", [])
        m[f"compressors.{codec}.compress_mbps"] = _ratio(
            sum(s[6][0] for s in comp) / 1e6, sum(_dur(s) for s in comp))
        m[f"compressors.{codec}.decompress_mbps"] = _ratio(
            sum(s[6][0] for s in decomp) / 1e6, sum(_dur(s) for s in decomp))
        m[f"compressors.{codec}.ratio"] = (
            math.exp(_mean([math.log(s[6][0] / s[6][1]) for s in comp]))
            if comp else 0.0)
    m["compressors.sz21.reconstruct_s"] = _mean(self_of("codec.sz21.decompress"))
    m["compressors.szinterp.reconstruct_s"] = _mean(self_of("codec.szinterp.decompress"))
    m["core.aesz.ae_block_fraction"] = _mean(
        [s[6][2] for s in by_name.get("codec.aesz.compress", [])])
    m["autoencoders.encode_s"] = mean_of("ae.encode")
    m["autoencoders.decode_s"] = mean_of("ae.decode")
    m["encoding.huffman.encode_s"] = mean_of("huffman.encode")
    m["encoding.huffman.decode_s"] = mean_of("huffman.decode")
    hdec = by_name.get("huffman.decode", [])
    m["encoding.huffman.decode_msym_per_s"] = _ratio(
        sum(s[6] for s in hdec) / 1e6, sum(_dur(s) for s in hdec))
    m["encoding.lossless.compress_s"] = mean_of("lossless.compress")
    m["encoding.lossless.decompress_s"] = mean_of("lossless.decompress")
    m["quantization.quantize_s"] = mean_of("quant.quantize")
    m["quantization.dequantize_s"] = mean_of("quant.dequantize")
    m["encoding.container.check_tile_s"] = mean_of("container.check_tile")
    m["api.decode_tile_s"] = mean_of("api.decode_tile")
    m["api.tile_crop_s"] = mean_of("api.tile_crop")
    m["api.compress_chunked_s"] = _mean([_dur(s) for s in compress_chunked])

    # Requests: the node numbers them in arrival order, the client log lists
    # them in sending order; with one client they are the same order.
    handles = sorted((s for s in server if s[1] == "store.app.handle"),
                     key=lambda s: s[5])
    handle_by_seq = {s[5]: s for s in handles}
    kind_of = {seq: entry for seq, entry in enumerate(client_log)}
    in_window = [seq for seq in handle_by_seq if seq in kind_of]
    reads = [q for q in in_window if kind_of[q][0] in READ_KINDS]
    hot = [q for q in in_window if kind_of[q][0] == "hot"]
    cold = [q for q in in_window if kind_of[q][0] == "cold"]
    pushes = [q for q in in_window if kind_of[q][0] == "push"]
    n_reads = len(reads)

    by_seq: Dict[int, List[Span]] = defaultdict(list)
    for span in server:
        by_seq[span[5]].append(span)

    def count(name: str, seqs: Sequence[int], pred=lambda s: True) -> int:
        return sum(1 for q in seqs for s in by_seq[q] if s[1] == name and pred(s))

    # Region reads only: ingest-read also fetches whole archives.
    m["sources.read_at_s"] = _mean([_dur(s) for q in reads for s in by_seq[q]
                                    if s[1] == "sources.read_at"])
    m["sources.bytes_read"] = _ratio(
        sum(s[6] for q in reads for s in by_seq[q] if s[1] == "sources.read_at"),
        n_reads)
    m["store.tile_decodes"] = _ratio(count("api.decode_tile", reads), n_reads)
    m["store.decode_amplification"] = _ratio(
        sum(s[6] for q in cold for s in by_seq[q] if s[1] == "api.decode_tile"),
        sum(kind_of[q][2] for q in cold))
    hit = lambda s: s[6] == 0  # noqa: E731
    miss = lambda s: s[6] == 1  # noqa: E731
    m["store.cache.hits"] = _ratio(count("store.cache.get_or_load", reads, hit), n_reads)
    m["store.cache.misses"] = _ratio(count("store.cache.get_or_load", reads, miss),
                                     n_reads)
    m["store.cache.evictions"] = _ratio(evictions, n_reads)
    m["store.cache.hot_misses"] = float(count("store.cache.get_or_load", hot, miss))
    m["store.app.hot_handle_s"] = _mean([_dur(handle_by_seq[q]) for q in hot])
    m["store.app.cold_handle_s"] = _mean([_dur(handle_by_seq[q]) for q in cold])
    m["store.front_end.hot_s"] = _mean(
        [kind_of[q][1] - _dur(handle_by_seq[q]) for q in hot])

    ingests = [(q, s) for q in pushes for s in by_seq[q] if s[1] == "store.ingest"]
    ingest_compress = [s for q, _ in ingests for s in by_seq[q]
                       if s[1] == "api.compress_chunked"]
    m["store.ingest.compress_s"] = _mean([_dur(s) for s in ingest_compress])
    m["store.ingest.publish_s"] = _mean(
        [_dur(s) - sum(_dur(c) for c in by_seq[q] if c[1] == "api.compress_chunked")
         for q, s in ingests])
    m["store.manifest.put_s"] = mean_of("store.manifest.put")
    m["store.ingest.fsyncs"] = _ratio(count("os.fsync", [q for q, _ in ingests]),
                                      len(ingests))
    m["store.ingest.transport_s"] = _mean([kind_of[q][1] - _dur(s) for q, s in ingests])
    m["trace.overhead_frac"] = _ratio(len(spans) * span_cost, hi - lo)
    if set(m) != {name for name, _, _ in METRICS}:
        raise RuntimeError("per-layer metric list out of sync with METRICS")
    return {name: m[name] for name, _, _ in METRICS}, table
