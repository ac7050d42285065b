"""Counter-based keyed random streams.

Every random draw in the simulator is a pure function of (seed, stream key,
counter), so any event sequence can be replayed or resumed without carrying
generator state around. The mixer is the splitmix64 finalizer, which is more
than adequate for simulation-grade streams.
"""

from __future__ import annotations

import hashlib
import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """splitmix64 finalizer over a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def string_key(s: str) -> int:
    """Stable 64-bit key for a string (first 8 bytes of its SHA-256)."""
    return int.from_bytes(hashlib.sha256(s.encode("utf-8")).digest()[:8], "big")


def stream_key(seed: int, *parts: int) -> int:
    """Pre-mixed key for a stream, derived from the seed and the ordered key
    parts; combine with a counter via `counter_u64`."""
    acc = _GOLDEN
    for p in (seed, *parts):
        acc = mix64((acc + _GOLDEN) ^ (p & _MASK))
    return acc


def counter_u64(key: int, counter: int) -> int:
    # One mix round per draw keeps the per-event cost low.
    return mix64(key ^ ((counter * _GOLDEN) & _MASK))


def u64_to_unit(u: int) -> float:
    """Map a 64-bit word to a float strictly inside (0, 1)."""
    return ((u >> 11) + 0.5) * (2.0 ** -53)


def exponential(mean: float, key: int, counter: int) -> float:
    """Exponential waiting time with the given mean, from a keyed counter:
    `-mean * log(u64_to_unit(counter_u64(key, counter)))`, written out inline."""
    z = (key ^ ((counter * _GOLDEN) & _MASK)) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return -mean * math.log(((z >> 11) + 0.5) * (2.0 ** -53))


def unit(key: int, counter: int) -> float:
    return u64_to_unit(counter_u64(key, counter))


def below(n: int, key: int, counter: int) -> int:
    """Integer in [0, n). Modulo bias is negligible for the small n used here."""
    if n <= 0:
        raise ValueError("below() requires n >= 1")
    return counter_u64(key, counter) % n
