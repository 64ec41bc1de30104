"""Energy spectra of finite quantum systems.

A spectrum is the sorted list of distinct eigenvalues with positive
multiplicities.  Construction goes through :func:`make_spectrum`, which
merges levels closer than the resolution tolerance (relative 1e-9,
absolute 1e-12 near zero) into a single level with summed multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError, SpectrumParseError

MERGE_RTOL = 1e-9
MERGE_ATOL = 1e-12

_ISING_MAX_SPINS = 24
_ISING_CHUNK = 1 << 20


def state_volume(dim: int) -> float:
    """Volume pi^n/n! of the manifold of pure states of a dim-level system, n = dim - 1."""
    return math.pi ** (dim - 1) / math.factorial(dim - 1)


@dataclass(frozen=True)
class Spectrum:
    """Distinct energy levels with multiplicities, sorted ascending."""

    levels: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise InvalidInputError("need at least two distinct energy levels")
        es = [e for e, _ in self.levels]
        if any(not np.isfinite(e) for e in es):
            raise InvalidInputError("energies must be finite")
        if any(b <= a for a, b in zip(es, es[1:])):
            raise InvalidInputError("energies must be strictly increasing")
        if any(m < 1 or m != int(m) for _, m in self.levels):
            raise InvalidInputError("multiplicities must be positive integers")

    @property
    def energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.levels])

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([m for _, m in self.levels], dtype=int)

    @property
    def dim(self) -> int:
        return int(sum(m for _, m in self.levels))

    @property
    def knots(self) -> np.ndarray:
        """Eigenvalues repeated according to multiplicity."""
        return np.repeat(self.energies, self.multiplicities)

    @property
    def e_min(self) -> float:
        return self.levels[0][0]

    @property
    def e_max(self) -> float:
        return self.levels[-1][0]

    @property
    def width(self) -> float:
        return self.e_max - self.e_min

    @property
    def nondegenerate(self) -> bool:
        return all(m == 1 for _, m in self.levels)


@dataclass(frozen=True)
class IsingChainSpec:
    """Closed chain of Ising spins: H = -J sum s_k s_{k+1} - B sum s_k.

    The bond sum runs cyclically over k = 1..spins, so for spins = 2 the
    single physical bond is counted twice; this literal convention is
    kept because the derived spectra depend on it.
    """

    spins: int
    coupling: float
    field: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.spins < 2:
            raise InvalidInputError("need at least two spins")
        if self.boundary != "periodic":
            raise InvalidInputError("only periodic boundaries are supported")
        if not (np.isfinite(self.coupling) and np.isfinite(self.field)):
            raise InvalidInputError("coupling and field must be finite")


def make_spectrum(levels) -> Spectrum:
    """Build a Spectrum from energies or (energy, multiplicity) pairs.

    Input needs no ordering; levels within the merge tolerance collapse
    to their multiplicity-weighted mean.  Feeding the result back in
    reproduces it exactly.
    """
    pairs = []
    for item in levels:
        if np.isscalar(item):
            e, m = float(item), 1
        else:
            if len(item) != 2:
                raise InvalidInputError("levels must be energies or (energy, multiplicity) pairs")
            e, m = float(item[0]), item[1]
        if not np.isfinite(e):
            raise InvalidInputError("energies must be finite")
        if m != int(m) or int(m) < 1:
            raise InvalidInputError(f"multiplicity {m!r} is not a positive integer")
        pairs.append((e, int(m)))
    if not pairs:
        raise InvalidInputError("empty spectrum")
    pairs.sort()
    merged: list[list] = [[pairs[0][0], pairs[0][1]]]
    for e, m in pairs[1:]:
        prev_e, prev_m = merged[-1]
        tol = max(MERGE_ATOL, MERGE_RTOL * max(abs(prev_e), abs(e)))
        if e - prev_e <= tol:
            merged[-1][0] = (prev_e * prev_m + e * m) / (prev_m + m)
            merged[-1][1] = prev_m + m
        else:
            merged.append([e, m])
    return Spectrum(tuple((e, m) for e, m in merged))


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def ising_spectrum(cfg: IsingChainSpec) -> Spectrum:
    """Exact spectrum of the closed Ising chain by full enumeration.

    All 2^spins configurations are classified by (antiparallel bond
    count, down-spin count); both are integers, so degeneracies are
    collected exactly before any floating-point energy is formed.
    """
    length = cfg.spins
    if length > _ISING_MAX_SPINS:
        raise ResourceLimitError(
            f"spins = {length} exceeds the enumeration guard ({_ISING_MAX_SPINS})"
        )
    mask = np.uint32((1 << length) - 1)
    counts = np.zeros((length + 1) * (length + 1), dtype=np.int64)
    for start in range(0, 1 << length, _ISING_CHUNK):
        stop = min(start + _ISING_CHUNK, 1 << length)
        x = np.arange(start, stop, dtype=np.uint32)
        rolled = ((x << np.uint32(1)) | (x >> np.uint32(length - 1))) & mask
        flips = _popcount(x ^ rolled)
        downs = _popcount(x)
        counts += np.bincount(
            flips * (length + 1) + downs, minlength=counts.size
        )
    levels = []
    for key in np.nonzero(counts)[0]:
        flips, downs = divmod(int(key), length + 1)
        bond_sum = length - 2 * flips
        spin_sum = length - 2 * downs
        energy = -cfg.coupling * bond_sum - cfg.field * spin_sum
        levels.append((energy, int(counts[key])))
    return make_spectrum(levels)


def load_spectrum(path) -> Spectrum:
    """Read a spectrum file: one `<energy> [<multiplicity>]` per line.

    '#' starts a comment; blank lines are skipped.  Parse failures
    report the offending line number.
    """
    levels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) > 2:
                raise SpectrumParseError(lineno, f"expected 1 or 2 fields, got {len(tokens)}")
            try:
                energy = float(tokens[0])
            except ValueError:
                raise SpectrumParseError(lineno, f"bad energy {tokens[0]!r}") from None
            if not np.isfinite(energy):
                raise SpectrumParseError(lineno, f"energy {tokens[0]!r} is not finite")
            mult = 1
            if len(tokens) == 2:
                try:
                    mult = int(tokens[1])
                except ValueError:
                    raise SpectrumParseError(lineno, f"bad multiplicity {tokens[1]!r}") from None
                if mult < 1:
                    raise SpectrumParseError(lineno, f"multiplicity must be >= 1, got {mult}")
            levels.append((energy, mult))
    if not levels:
        raise SpectrumParseError(0, "file contains no levels")
    return make_spectrum(levels)


def format_spectrum(s: Spectrum) -> str:
    """Render a Spectrum in the text format accepted by load_spectrum."""
    lines = [f"{e:.17g} {m}" for e, m in s.levels]
    return "\n".join(lines) + "\n"
