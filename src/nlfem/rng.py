"""Deterministic pseudo-random number generation for mesh perturbation.

Uses xoshiro256++ seeded through splitmix64, so that the bit stream is
reproducible across platforms and languages from a single 64-bit seed.
The exact stream is documented in the README.
"""

_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _splitmix64_stream(seed: int):
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256pp:
    """xoshiro256++ generator; state initialized from splitmix64(seed), an unchecked int."""

    def __init__(self, seed: int):
        sm = _splitmix64_stream(seed)
        self._s = [next(sm) for _ in range(4)]

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform01(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform01() - 1.0
