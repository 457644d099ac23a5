"""Span tracing around the public functions of each layer, from outside.

A :class:`Tracer` replaces selected functions and methods of ``repro`` with
wrappers that record one span per call: ``[id, name, start, end, parent,
seq, value]``.  ``parent`` is the id of the enclosing traced call on the same
thread (-1 at top level); ``seq`` is the number of the HTTP request being
handled (set by the ``StoreApp.handle`` wrapper, -1 outside a request);
``value`` is a per-call quantity such as symbols decoded or bytes read.
Spans stay in memory and are written out once, at the end.

Nothing in ``src/`` knows about this module: the benchmark process installs
it around its own calls, and ``traced_serve.py`` installs it in a server
process before handing over to the ordinary ``repro serve`` entry point.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

Span = List[Any]
ValueFn = Callable[[tuple, dict, Any], Any]


def _raw_bytes(arr) -> int:
    """Field size counted as float32, as every end-to-end MB figure is,
    whatever dtype the codec class happens to receive or return."""
    return 4 * int(arr.size)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, value: Optional[ValueFn] = None
             ) -> Callable:
        spans, ids, local, stack_of = self.spans, self._ids, self._local, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [next(ids), name, 0.0, 0.0, stack[-1][0] if stack else -1,
                    getattr(local, "seq", -1), None]
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if value is not None:
                span[6] = value(args, kwargs, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def patch_method(self, cls, attr: str, name: str,
                     value: Optional[ValueFn] = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, value))

    def patch_function(self, module, attr: str, name: str,
                       value: Optional[ValueFn] = None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's import of it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, value)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -------------------------------------------------------------- layers
    def install(self) -> "Tracer":
        """Wrap the public seams of every layer that is loaded on demand."""
        import repro.api as api
        import repro.compressors as compressors
        import repro.core.aesz as aesz
        import repro.quantization.linear as linear
        import repro.store.cache as cache
        import repro.store.ingest as ingest
        import repro.store.manifest as manifest
        import repro.store.server as server
        from repro.autoencoders.base import BlockAutoencoder
        from repro.encoding.container import ChunkedIndex, GridIndex
        from repro.encoding.huffman import HuffmanCodec
        from repro.encoding.lossless import ZlibBackend
        from repro.quantization.uniform import UniformQuantizer
        from repro.sources.base import FileByteSource

        codec_classes = {
            "sz21": compressors.SZ21Compressor,
            "szinterp": compressors.SZInterpCompressor,
            "szauto": compressors.SZAutoCompressor,
            "zfp": compressors.ZFPCompressor,
            "aesz": aesz.AESZCompressor,
        }
        for codec, cls in codec_classes.items():
            value = ((lambda a, k, r: (_raw_bytes(a[1]), len(r),
                                       a[0].last_stats.ae_block_fraction))
                     if codec == "aesz" else
                     (lambda a, k, r: (_raw_bytes(a[1]), len(r), None)))
            self.patch_method(cls, "compress", f"codec.{codec}.compress", value)
            self.patch_method(cls, "decompress", f"codec.{codec}.decompress",
                              lambda a, k, r: (_raw_bytes(r), len(a[1])))
        self.patch_method(BlockAutoencoder, "encode", "ae.encode")
        self.patch_method(BlockAutoencoder, "decode", "ae.decode")
        self.patch_method(HuffmanCodec, "encode", "huffman.encode",
                          lambda a, k, r: int(a[1].size))
        self.patch_method(HuffmanCodec, "decode", "huffman.decode",
                          lambda a, k, r: int(r.size))
        self.patch_method(ZlibBackend, "compress", "lossless.compress")
        self.patch_method(ZlibBackend, "decompress", "lossless.decompress")
        self.patch_function(linear, "quantize_prediction_errors", "quant.quantize")
        self.patch_function(linear, "dequantize_prediction_errors", "quant.dequantize")
        self.patch_method(UniformQuantizer, "quantize", "quant.quantize")
        self.patch_method(UniformQuantizer, "dequantize", "quant.dequantize")
        self.patch_method(GridIndex, "check_tile", "container.check_tile")
        self.patch_method(ChunkedIndex, "check_tile", "container.check_tile")
        self.patch_method(FileByteSource, "read_at", "sources.read_at",
                          lambda a, k, r: len(r))
        self.patch_function(api, "decode_tile", "api.decode_tile",
                            lambda a, k, r: int(r.nbytes))
        self.patch_function(api, "tile_crop", "api.tile_crop")
        self.patch_function(api, "compress_chunked", "api.compress_chunked")
        self.patch_method(ingest.IngestManager, "ingest", "store.ingest")
        self.patch_method(manifest.StoreManifest, "put", "store.manifest.put")
        self._patch_cache(cache.TileCache)
        self._patch_handle(server.StoreApp)
        return self

    def _patch_cache(self, cls) -> None:
        """``get_or_load`` spans carry 1 when the loader ran (a miss)."""
        original = cls.__dict__["get_or_load"]

        def get_or_load(cache, key, loader):
            ran = [0]

            def load():
                ran[0] = 1
                return loader()

            return original(cache, key, load), ran

        traced = self.wrap("store.cache.get_or_load", get_or_load,
                           lambda a, k, r: r[1][0])

        def unwrap(cache, key, loader):
            return traced(cache, key, loader)[0]

        self._undo.append((cls, "get_or_load", original))
        cls.get_or_load = unwrap

    def _patch_handle(self, cls) -> None:
        """Number each request as it arrives; children inherit the number."""
        original = cls.__dict__["handle"]
        local, requests = self._local, self._requests
        traced = self.wrap("store.app.handle", original,
                           lambda a, k, r: r.status)

        def handle(app, request):
            local.seq = next(requests)
            try:
                return traced(app, request)
            finally:
                local.seq = -1

        self._undo.append((cls, "handle", original))
        cls.handle = handle

    def patch_fsync(self) -> None:
        """Count ``os.fsync`` calls (server process only)."""
        self._undo.append((os, "fsync", os.fsync))
        os.fsync = self.wrap("os.fsync", os.fsync)

    # ---------------------------------------------------------------- output
    def dump(self, path: os.PathLike) -> None:
        Path(path).write_text(json.dumps(self.spans))


def load_spans(path: os.PathLike) -> List[Span]:
    return json.loads(Path(path).read_text())


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# --------------------------------------------------------------- analysis
def self_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (the span
    minus the time its traced children cover)."""
    child: Dict[int, float] = {}
    for span in spans:
        if span[4] >= 0:
            child[span[4]] = child.get(span[4], 0.0) + (span[3] - span[2])
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = span[3] - span[2]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child.get(span[0], 0.0)
    return table
