"""codec-sweep: the paper's own experiment, in process, on one thread.

Every error-bounded codec compresses and decompresses three synthetic
float32 fields (2-D CESM-like, 3-D NYX-like, 3-D Hurricane-like) at
``Rel`` 1e-2, 1e-3 and 1e-4 through the ``repro.compress`` /
``repro.decompress`` facade.  AE-SZ uses one SWAE per field, trained from
the seed during set-up.  A round runs every cell once: compress, then
decode the new archive.  The run repeats whole rounds until the time is
up, and at least two.

In process a decode keeps no state between calls, so a first and a second
decode of the same archive do the same work: there is one decode time per
cell, and ``hot_read_p50_ms`` and ``cold_read_p50_ms`` both report its
median.

Codec times are CPU seconds of the benchmark process (``time.process_time``,
one BLAS thread): on a shared VM the wall clock also counts time the
hypervisor gives to other guests, which no change to the program can move.
Wall times are kept in the report.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench import checks, fields
from perfbench.common import SETUP_REPEATS, Stopwatch, Tally, peak_rss_mb

CODECS = ("sz21", "szinterp", "szauto", "zfp", "aesz")
BOUNDS = (1e-2, 1e-3, 1e-4)

#: name -> (generator, full shape, tiny shape, Table VI entry for the SWAE)
FIELDS = {
    "cesm_like": (fields.cesm_like, (128, 256), (64, 64), "CESM-CLDHGH"),
    "nyx_like": (fields.nyx_like, (48, 48, 48), (16, 16, 16), "NYX-baryon_density"),
    "hurricane_like": (fields.hurricane_like, (24, 64, 64), (8, 16, 16), "Hurricane-U"),
}

#: SWAE training budget per field (set-up cost; see README).
TRAIN_EPOCHS = 3
TRAIN_MAX_BLOCKS = 256
TRAIN_LEARNING_RATE = 1e-2


def setup(seed: int, tiny: bool):
    """Generate the fields and train one seeded SWAE per field."""
    from repro.autoencoders import create_autoencoder
    from repro.core import AESZCompressor, AESZConfig, default_autoencoder_config
    from repro.nn import TrainingConfig

    data, models = {}, {}
    for i, (name, (gen, full, small, table_vi)) in enumerate(FIELDS.items()):
        rng = np.random.default_rng([seed, i])
        data[name] = gen(small if tiny else full, rng)
        config = default_autoencoder_config(table_vi, seed=seed)
        ae = create_autoencoder("swae", config)
        codec = AESZCompressor(ae, AESZConfig(block_size=config.block_size))
        codec.train([data[name]],
                    TrainingConfig(epochs=1 if tiny else TRAIN_EPOCHS,
                                   batch_size=32,
                                   learning_rate=TRAIN_LEARNING_RATE, seed=seed),
                    max_blocks=TRAIN_MAX_BLOCKS, seed=seed)
        models[name] = codec
    return data, models


def run(seed: int, seconds: float, tiny: bool, tracer=None) -> dict:
    import repro
    from repro import Rel

    setup_times = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        t0 = time.perf_counter()
        data, models = setup(seed, tiny)
        setup_times.append(time.perf_counter() - t0)

    cells: List[Tuple[str, str, float]] = [
        (name, codec, rel) for name in FIELDS for codec in CODECS for rel in BOUNDS]
    comp_t: Dict[tuple, List[float]] = {c: [] for c in cells}
    decomp_t: Dict[tuple, List[float]] = {c: [] for c in cells}
    wall = {"compress": 0.0, "decompress": 0.0}
    ratio: Dict[tuple, float] = {}
    psnr: Dict[tuple, float] = {}
    tally = Tally()
    clock = Stopwatch(seconds)
    rounds = 0
    round_s = 0.0
    cpu = time.process_time
    while rounds < 2 or clock.elapsed() + round_s <= seconds:
        r0 = time.perf_counter()
        for cell in cells:
            name, codec, rel = cell
            original = data[name]
            if codec == "aesz":
                ckw = {"codec": models[name], "embed_model": False}
                dkw = {"autoencoder": models[name].autoencoder}
            else:
                ckw, dkw = {"codec": codec}, {}
            try:
                w0, t0 = time.perf_counter(), cpu()
                blob = repro.compress(original, bound=Rel(rel), **ckw)
                w1, t1 = time.perf_counter(), cpu()
                decoded = repro.decompress(blob, **dkw)
                w2, t2 = time.perf_counter(), cpu()
            except Exception as exc:  # a program fault is a failed operation
                tally.fail(f"{cell}: {exc!r}", wrong=False)
                continue
            try:
                bound = checks.abs_bound(original, rel)
                checks.check_decoded(original, decoded, bound, str(cell))
            except checks.CheckFailed as exc:
                tally.fail(str(exc), wrong=True)
                continue
            tally.ok()
            comp_t[cell].append(t1 - t0)
            decomp_t[cell].append(t2 - t1)
            wall["compress"] += w1 - w0
            wall["decompress"] += w2 - w1
            ratio[cell] = original.nbytes / len(blob)
            vrange = float(original.max()) - float(original.min())
            psnr[cell] = checks.psnr_db(vrange, checks.squared_error(original, decoded),
                                        original.size)
        rounds += 1
        round_s = max(round_s, time.perf_counter() - r0)
    window = (clock.start, time.perf_counter())

    done = [c for c in cells if comp_t[c]]
    mb = {c: data[c[0]].nbytes / 1e6 for c in cells}
    decodes = [t for c in done for t in decomp_t[c]]

    def codec_mbps(times, which):
        return checks.geomean(mb[c] / checks.median(times(c)) for c in which)

    e2e = {
        "setup_s": checks.median(setup_times),
        "compress_mbps": codec_mbps(comp_t.get, done),
        "decompress_mbps": codec_mbps(decomp_t.get, done),
        "ratio": checks.geomean(ratio[c] for c in done),
        "psnr_db": checks.mean(psnr[c] for c in done),
        # Per cell, then a geometric mean: a sum over cells would be set by
        # the slowest AE-SZ cells, whose decode time moves with the seed.
        "read_rps": checks.geomean(1.0 / checks.median(decomp_t[c]) for c in done),
        # One decode time per cell: see the module docstring.
        "hot_read_p50_ms": 1e3 * checks.median(decodes),
        "cold_read_p50_ms": 1e3 * checks.median(decodes),
    }
    per_codec = {}
    for codec in CODECS:
        mine = [c for c in done if c[1] == codec]
        per_codec[codec] = {
            "compress_mbps": codec_mbps(comp_t.get, mine),
            "decompress_mbps": codec_mbps(decomp_t.get, mine),
            "ratio": checks.geomean(ratio[c] for c in mine),
            "psnr_db": checks.mean(psnr[c] for c in mine),
        }
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
        "cells": len(cells),
        "setup_s_each": setup_times,
        "cpu_s": {"compress": sum(map(sum, comp_t.values())),
                  "decompress": sum(decodes)},
        "codec_wall_s": wall,
        "samples": {"decodes": len(decodes)},
        "per_codec": per_codec,
        "fields": {n: {"shape": list(a.shape), "dtype": str(a.dtype)}
                   for n, a in data.items()},
        "model_fingerprints": {n: m.model_fingerprint()[:16] for n, m in models.items()},
    }
    return {"tally": tally, "e2e": e2e, "report": report, "window": window,
            "client_log": [], "server_spans": [], "evictions": 0}
