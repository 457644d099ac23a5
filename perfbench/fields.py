"""Seeded synthetic fields the benchmark generates and hands to the program.

The generators live here, not in ``repro.data``, so that a change to the
program can never change the benchmark's inputs.  Each field is a float32
array whose statistics (spectrum, value range, structure) are fixed and whose
realization depends only on the seed, so two seeds give fields of the same
difficulty.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def gaussian_random_field(shape: Sequence[int], rng: np.random.Generator,
                          beta: float) -> np.ndarray:
    """Zero-mean, unit-variance field with power spectrum exactly |k|^-beta.

    Only the Fourier phases are random; the amplitudes are fixed.  So every
    seed gives the same spectrum, and with it nearly the same smoothness and
    compressibility, which a seed-to-seed comparison needs.
    """
    freqs = np.meshgrid(*[np.fft.fftfreq(n) for n in shape], indexing="ij")
    k2 = sum(f * f for f in freqs)
    k2.flat[0] = 1.0
    amplitude = k2 ** (-beta / 4.0)
    amplitude.flat[0] = 0.0
    phases = np.exp(2j * np.pi * rng.random(tuple(shape)))
    field = np.real(np.fft.ifftn(amplitude * phases))
    return field / field.std()


def _bumps(shape: Sequence[int], rng: np.random.Generator, count: int,
           amplitude: Tuple[float, float]) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in shape],
                        indexing="ij")
    out = np.zeros(tuple(shape))
    for _ in range(count):
        centre = [rng.uniform(0, n) for n in shape]
        width = rng.uniform(1.5, 4.0)
        height = rng.uniform(*amplitude)
        dist2 = sum((g - c) ** 2 for g, c in zip(grids, centre))
        out += height * np.exp(-dist2 / (2.0 * width * width))
    return out


def cesm_like(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """2-D cloud-fraction-like field in [0, 1] (CESM CLDHGH stand-in):
    fixed latitude bands plus random weather, through a sigmoid.  The fixed
    bands keep the value range, and so the ratio at a ``Rel`` bound, nearly
    the same from seed to seed."""
    lat = np.linspace(-1.0, 1.0, shape[0])[:, None]
    lon = np.linspace(0.0, 2.0 * np.pi, shape[1], endpoint=False)[None, :]
    bands = 1.5 * np.cos(3.0 * np.pi * lat) + 0.5 * np.cos(2.0 * lon) * np.cos(np.pi * lat)
    weather = 0.8 * gaussian_random_field(shape, rng, beta=2.5)
    return (1.0 / (1.0 + np.exp(-2.0 * (bands + weather)))).astype(np.float32)


def nyx_like(shape: Tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """3-D log-density-like field: rough background plus halos (NYX stand-in)."""
    background = gaussian_random_field(shape, rng, beta=2.8)
    return (background + _bumps(shape, rng, 40, (1.0, 3.0)) + 2.0).astype(np.float32)


def hurricane_like(shape: Tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """3-D wind-component-like field: a vortex decaying with height plus
    turbulence (Hurricane ISABEL U stand-in)."""
    nz, ny, nx = shape
    y, x = np.meshgrid(np.arange(ny, dtype=np.float64),
                       np.arange(nx, dtype=np.float64), indexing="ij")
    cy, cx = ny * rng.uniform(0.35, 0.65), nx * rng.uniform(0.35, 0.65)
    r = np.sqrt((y - cy) ** 2 + (x - cx) ** 2) + 1e-6
    r_max = 0.12 * min(ny, nx)
    v_t = np.where(r < r_max, 60.0 * r / r_max, 60.0 * (r_max / r) ** 0.6)
    plane = -v_t * (y - cy) / r
    vertical = np.exp(-np.linspace(0.0, 2.5, nz))[:, None, None]
    turbulence = gaussian_random_field(shape, rng, beta=3.2)
    return (vertical * plane[None] + 6.0 * turbulence).astype(np.float32)


def smooth_volume(shape: Tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """Smooth 3-D field for the serving workloads (SDRBench-like scalar)."""
    return (10.0 * gaussian_random_field(shape, rng, beta=3.6)
            + 2.0 * gaussian_random_field(shape, rng, beta=2.4)).astype(np.float32)
