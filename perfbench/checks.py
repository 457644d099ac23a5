"""Independent correctness checks and the statistics the benchmark reports.

Nothing here calls into ``repro``: the error bound, PSNR and ratio are
computed from the arrays and byte counts the benchmark holds itself, so a
fault in the program's own metrics cannot hide a fault in its outputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagreed with the benchmark's reference."""


def abs_bound(original: np.ndarray, rel: float) -> float:
    """The value-range relative bound ``rel * (max - min)``, in float64."""
    ref = np.asarray(original, dtype=np.float64)
    return rel * (float(ref.max()) - float(ref.min()))


def max_abs_error(original: np.ndarray, decoded: np.ndarray) -> float:
    diff = np.asarray(decoded, dtype=np.float64) - np.asarray(original, dtype=np.float64)
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def check_decoded(original: np.ndarray, decoded: np.ndarray, bound: float,
                  what: str) -> None:
    """Shape must match and every value must satisfy ``|x - x'| <= bound``
    exactly (no tolerance)."""
    if tuple(np.shape(decoded)) != tuple(original.shape):
        raise CheckFailed(f"{what}: shape {tuple(np.shape(decoded))} != "
                          f"{tuple(original.shape)}")
    if not np.all(np.isfinite(np.asarray(decoded, dtype=np.float64))):
        raise CheckFailed(f"{what}: non-finite values in the output")
    err = max_abs_error(original, decoded)
    if not err <= bound:
        raise CheckFailed(f"{what}: max error {err!r} exceeds the bound {bound!r}")


def squared_error(original: np.ndarray, decoded: np.ndarray) -> float:
    diff = np.asarray(decoded, dtype=np.float64) - np.asarray(original, dtype=np.float64)
    return float(np.dot(diff.ravel(), diff.ravel()))


def psnr_db(value_range: float, sse: float, count: int) -> float:
    """PSNR = 20 log10(range) - 10 log10(MSE); an exact copy caps at 999 dB."""
    mse = sse / max(1, count)
    if mse <= 0.0:
        return 999.0
    return 20.0 * math.log10(value_range) - 10.0 * math.log10(mse)


def decode_region_body(body: bytes, headers: Dict[str, str],
                       expect_shape: Tuple[int, ...], what: str) -> np.ndarray:
    """Rebuild a served region from its body and check its shape/dtype headers."""
    shape_header = headers.get("x-repro-shape")
    dtype_header = headers.get("x-repro-dtype")
    if shape_header is None or dtype_header is None:
        raise CheckFailed(f"{what}: missing X-Repro-Shape/X-Repro-Dtype")
    shape = tuple(int(s) for s in shape_header.split(",")) if shape_header else ()
    if shape != tuple(expect_shape):
        raise CheckFailed(f"{what}: X-Repro-Shape {shape} != requested "
                          f"{tuple(expect_shape)}")
    if dtype_header not in ("float32", "float64"):
        raise CheckFailed(f"{what}: unexpected X-Repro-Dtype {dtype_header!r}")
    dtype = np.dtype(dtype_header)
    expected_bytes = int(np.prod(shape)) * dtype.itemsize
    if len(body) != expected_bytes:
        raise CheckFailed(f"{what}: body has {len(body)} bytes, headers say "
                          f"{expected_bytes}")
    return np.frombuffer(body, dtype=dtype).reshape(shape)


def check_generation(headers: Dict[str, str], expected: int, what: str) -> None:
    """The region must come from the generation the last push published."""
    got = headers.get("x-repro-generation")
    if got != str(expected):
        raise CheckFailed(f"{what}: generation {got} != published {expected}")


def check_not_stale(stale: np.ndarray, decoded: np.ndarray, bound: float,
                    what: str) -> None:
    """After a replace, the region must not also fit the old field."""
    if max_abs_error(stale, decoded) <= bound:
        raise CheckFailed(f"{what}: the region still matches the replaced field")


# ---------------------------------------------------------------- statistics
# The summaries read 0 when there is nothing to summarize, which happens only
# when every operation of a kind failed (and so was counted as failed).
def median(values: Iterable[float]) -> float:
    vals = list(values)
    return float(statistics.median(vals)) if vals else 0.0


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return float(sum(vals) / len(vals)) if vals else 0.0


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than ten samples lie
    beyond it (a tail from fewer samples is no tail)."""
    if len(values) * (1.0 - q) < 10:
        return None
    return percentile(values, q)


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else math.inf
