"""Deterministic random-number streams.

Every stochastic decision in the simulator (working-set layout, input
sizes, service-time jitter) draws from a :class:`RandomStream` derived
from a single experiment seed.  Streams are derived by *name*, so adding a
new consumer never perturbs the draws of existing ones -- experiments stay
reproducible across code changes that only add functionality.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    The derivation hashes the path, so ``derive_seed(1, "a", "b")`` and
    ``derive_seed(1, "ab")`` differ and every (seed, path) pair maps to a
    stable 63-bit value.
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest()[:8], "little") & (2**63 - 1)


class RandomStream:
    """A named, independently-seeded random stream.

    Wraps :class:`random.Random` with the handful of distributions the
    models need.  Use :meth:`child` to fork substreams (e.g. one per
    function instance) without coupling their sequences.
    """

    def __init__(self, seed: int, *path: str | int) -> None:
        self._seed = derive_seed(seed, *path) if path else seed
        self._path = path
        self._rng = random.Random(self._seed)
        # Bound method caches for the hot-loop distributions; every
        # shortcut consumes the underlying stream exactly like the
        # random.Random public wrappers it bypasses.  The working-set
        # placement loop (repro.functions.behavior) draws through
        # _random and _getrandbits directly.
        self._randbelow = self._rng._randbelow
        self._random = self._rng.random
        self._getrandbits = self._rng.getrandbits

    @property
    def seed(self) -> int:
        """The effective seed of this stream."""
        return self._seed

    def child(self, *path: str | int) -> "RandomStream":
        """Fork an independent substream identified by ``path``."""
        return RandomStream(self._seed, *path)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (inclusive)."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        # Same draw as random.randint (one _randbelow of the width)
        # without the randrange argument-validation layers.
        return low + self._randbelow(high - low + 1)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (1/mean)."""
        return self._rng.expovariate(rate)

    def geometric(self, mean: float) -> int:
        """Geometric variate (support >= 1) with the given mean.

        Used for contiguous-run lengths of guest memory pages (Fig. 3):
        runs of mean length ``mean`` with the memoryless tail the paper's
        contiguity histograms suggest.
        """
        if mean < 1.0:
            raise ValueError(f"geometric mean must be >= 1, got {mean}")
        if mean == 1.0:
            return 1
        success = 1.0 / mean
        # Inverse-transform sampling of the geometric distribution.
        count = 1
        rnd = self._random
        while rnd() > success:
            count += 1
        return count

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of ``seq``."""
        return self._rng.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements from ``population``."""
        return self._rng.sample(population, k)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place.

        Same permutation and same stream state afterwards as
        ``random.Random.shuffle``: its ``_randbelow`` is inlined, so every
        ``getrandbits`` call, rejection and swap happens at the same
        position.  The positions are walked down in segments of equal
        bit length, so each segment draws with one ``k`` instead of
        asking every ``n`` for its bit length.
        """
        getrandbits = self._getrandbits
        top = len(items)
        while top > 1:
            k = top.bit_length()
            low = 1 << (k - 1)
            # Swap position n - 1 with a draw below n, for n from top
            # down to the smallest n of bit length k.
            for n in range(top, low - 1, -1):
                j = getrandbits(k)
                while j >= n:
                    j = getrandbits(k)
                i = n - 1
                items[i], items[j] = items[j], items[i]
            top = low - 1

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._rng.gauss(mu, sigma)

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` multiplied by a uniform factor in ``[1-f, 1+f]``.

        Latency constants are jittered by a few percent to model run-to-run
        measurement noise; experiments report means over repetitions just
        like the paper's 10-invocation methodology.
        """
        if fraction <= 0.0:
            return value
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)

    def bytes(self, n: int) -> bytes:
        """``n`` deterministic pseudo-random bytes."""
        return self._rng.randbytes(n)

    def iter_choices(self, seq: Sequence[T], n: int) -> Iterable[T]:
        """Yield ``n`` uniform choices from ``seq``."""
        for _ in range(n):
            yield self.choice(seq)
