"""Monte-Carlo estimation of the density of states.

Sampling a pure state uniformly over the state manifold induces a
uniform distribution of the occupation probabilities p_k on the
probability simplex; the energy expectation is then p . E.  Two
equivalent sampling contracts are provided and must agree statistically:

* ``gaussian``: draw 2*dim standard normals as real and imaginary
  parts and normalize the squared magnitudes;
* ``exponential``: draw dim unit-rate exponentials and normalize.

Reproducibility: streams use the counter-based Philox generator with
key (seed, stream_index), so stream i is fully determined by the seed
and its index.  Worker threads only ever execute whole streams and the
integer per-bin counts are merged in stream order, which makes results
bit-identical for a fixed (samples, seed, streams, bins) regardless of
the number of threads (including none).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spectrum import Spectrum, state_volume

_CHUNK_FLOATS = 1 << 21  # per-chunk draw budget, keeps memory modest


@dataclass(frozen=True)
class McConfig:
    """Sampling plan: total samples, RNG seed, stream count, bins."""

    samples: int = 10**6
    seed: int = 42
    streams: int = 8
    bins: int = 512

    def __post_init__(self):
        if self.samples < 1:
            raise InvalidInputError("samples must be positive")
        if self.bins < 1:
            raise InvalidInputError("bins must be positive")
        if self.samples < self.bins:
            raise InvalidInputError("need at least one sample per bin")
        if self.streams < 1:
            raise InvalidInputError("streams must be positive")
        if not (0 <= self.seed < 2**64):
            raise InvalidInputError("seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Histogram estimate of Omega with per-bin binomial standard errors."""

    bin_edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int
    streams: int


@dataclass(frozen=True, eq=False)
class McEstimate2D:
    """2-D histogram estimate over occupation probabilities (p, q)."""

    edges_p: np.ndarray
    edges_q: np.ndarray
    density: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int
    streams: int


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Stream derivation rule: Philox keyed by the pair (seed, stream)."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_weights(rng, count: int, dim: int, method: str) -> np.ndarray:
    if method == "gaussian":
        z = rng.standard_normal((count, 2 * dim))
        return z[:, :dim] ** 2 + z[:, dim:] ** 2
    if method == "exponential":
        return rng.standard_exponential((count, dim))
    raise InvalidInputError(f"unknown sampling method {method!r}")


def sample_state(dim: int, rng: np.random.Generator, method: str = "gaussian") -> np.ndarray:
    """One occupation-probability vector, uniform on the simplex."""
    if dim < 2:
        raise InvalidInputError("dim must be at least 2")
    w = _draw_weights(rng, 1, dim, method)[0]
    return w / w.sum()


def _stream_shares(samples: int, streams: int) -> list[int]:
    base, extra = divmod(samples, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _chunks(total: int, dim: int):
    step = max(4096, _CHUNK_FLOATS // (2 * dim))
    while total > 0:
        take = min(step, total)
        yield take
        total -= take


def _run_streams(worker, streams: int, threads: int):
    """Execute one worker per stream; merging order is stream order."""
    if threads <= 1:
        return [worker(i) for i in range(streams)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(streams)))


def _binomial_stderr(counts: np.ndarray, samples: int, cell: float, scale: float) -> np.ndarray:
    # one pseudo-count keeps empty tail bins testable against 4-sigma
    q = (counts + 1.0) / (samples + 2.0)
    return scale * np.sqrt(q * (1.0 - q) / samples) / cell


def estimate_dos(s: Spectrum, cfg: McConfig, method: str = "gaussian", threads: int = 1) -> McEstimate:
    """Histogram estimate of Omega over [E_min, E_max].

    Bins are half-open with the last bin closed; the probability
    histogram is scaled by the manifold volume pi^n/n!, so the densities
    times the bin widths sum to that volume exactly.
    """
    scale = state_volume(s.dim)
    edges = np.linspace(s.e_min, s.e_max, cfg.bins + 1)
    knots = s.knots.astype(float)
    shares = _stream_shares(cfg.samples, cfg.streams)

    def worker(stream: int) -> np.ndarray:
        rng = _stream_rng(cfg.seed, stream)
        counts = np.zeros(cfg.bins, dtype=np.int64)
        for take in _chunks(shares[stream], s.dim):
            w = _draw_weights(rng, take, s.dim, method)
            e = w @ knots / w.sum(axis=1)
            np.clip(e, s.e_min, s.e_max, out=e)
            counts += np.histogram(e, bins=edges)[0]
        return counts

    per_stream = _run_streams(worker, cfg.streams, threads)
    counts = np.sum(per_stream, axis=0, dtype=np.int64)
    width = edges[1] - edges[0]
    density = counts / cfg.samples / width * scale
    stderr = _binomial_stderr(counts, cfg.samples, width, scale)
    return McEstimate(
        bin_edges=edges,
        density=density,
        stderr=stderr,
        samples=cfg.samples,
        seed=cfg.seed,
        streams=cfg.streams,
    )


def estimate_grand(cfg: McConfig, dim: int = 3, method: str = "gaussian", threads: int = 1) -> McEstimate2D:
    """2-D histogram of the first two occupation probabilities.

    For dim = 3 the exact density over the open simplex p, q > 0,
    p + q < 1 is the constant pi^2; the probability histogram is scaled
    by pi^2/2 (the manifold volume), so interior cells estimate pi^2.
    """
    if dim != 3:
        raise InvalidInputError("the grand estimate is defined for dim = 3")
    scale = state_volume(dim)
    edges = np.linspace(0.0, 1.0, cfg.bins + 1)
    shares = _stream_shares(cfg.samples, cfg.streams)

    def worker(stream: int) -> np.ndarray:
        rng = _stream_rng(cfg.seed, stream)
        counts = np.zeros((cfg.bins, cfg.bins), dtype=np.int64)
        for take in _chunks(shares[stream], dim):
            w = _draw_weights(rng, take, dim, method)
            tot = w.sum(axis=1)
            counts += np.histogram2d(w[:, 0] / tot, w[:, 1] / tot, bins=(edges, edges))[0].astype(np.int64)
        return counts

    per_stream = _run_streams(worker, cfg.streams, threads)
    counts = np.sum(per_stream, axis=0, dtype=np.int64)
    cell = (edges[1] - edges[0]) ** 2
    density = counts / cfg.samples / cell * scale
    stderr = _binomial_stderr(counts, cfg.samples, cell, scale)
    return McEstimate2D(
        edges_p=edges,
        edges_q=edges,
        density=density,
        stderr=stderr,
        samples=cfg.samples,
        seed=cfg.seed,
        streams=cfg.streams,
    )
