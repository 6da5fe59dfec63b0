"""Deterministic random-stream plumbing.

Every stochastic operation in the package draws from a PCG64 generator keyed
by a :class:`SeedSpec`.  Substreams are derived by extending the SeedSequence
entropy with integer keys, so replicate r of a run is reproducible in
isolation and independent of evaluation order or worker count.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SeedSpec"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# children derived per batch; bounds the memory of a long child_rngs walk
_BATCH = 4096


def _words(value: int) -> list[int]:
    """numpy's split of a nonnegative int into little-endian uint32 words."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) constant pairs of successive SeedSequence hash
    calls; they depend only on the call count, never on the data."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence(e))`` for each column of entropy
    words, mirroring numpy's mix_entropy, generate_state(4, uint64) and
    pcg64_set_seed step for step."""
    consts = _hash_consts(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    half = [_hashmix(pool[i % _POOL_SIZE], consts).tolist() for i in range(8)]
    states = []
    for w in zip(*half):
        # uint64 words are little-endian pairs; seed and inc are (high, low) pairs
        seed = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        inc_in = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        inc = ((inc_in << 1) | 1) & _MASK128
        states.append((((inc + seed) * _PCG_MULT + inc) & _MASK128, inc))
    return states


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one random stream by ``(master_seed, stream_index, path)``.

    Each integer is split into little-endian 32-bit words (one word below
    2**32) and the words, concatenated, are the entropy of numpy's
    SeedSequence.  Two specs give independent streams when their word lists
    differ, but SeedSequence pads entropy with zero words up to its
    four-word pool, so lists that differ only by trailing zeros within the
    first four words name one stream: ``SeedSpec(5)``, ``SeedSpec(5).child(0)``
    and ``SeedSpec(5).child(0, 0)`` are the same stream.  Sibling paths of
    equal length whose keys are all below 2**32 always give distinct streams.
    """

    master_seed: int
    stream_index: int = 0
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("seed components must be nonnegative integers")

    def child(self, *keys: int) -> "SeedSpec":
        """Derive a keyed substream (e.g. one per bootstrap replicate)."""
        return SeedSpec(self.master_seed, self.stream_index, self.path + tuple(keys))

    def rng(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        entropy = (self.master_seed, self.stream_index) + self.path
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child_rngs(self, count: int) -> Iterator[np.random.Generator]:
        """The streams of ``child(0)`` to ``child(count - 1)``, in order.

        Yields one reused generator, reset before each step to exactly the
        state ``self.child(r).rng()`` starts in; draw from it before taking
        the next.  The seed derivation runs batched over all r, about four
        times cheaper than building each generator.
        """
        if not 0 <= count <= 1 << 32:
            raise ValueError("count must lie in [0, 2**32]")
        prefix = [
            w for key in (self.master_seed, self.stream_index) + self.path for w in _words(key)
        ]
        gen = np.random.Generator(np.random.PCG64(0))
        bitgen = gen.bit_generator
        for lo in range(0, count, _BATCH):
            keys = np.arange(lo, min(lo + _BATCH, count), dtype=np.uint32)
            entropy = [np.full(keys.size, w, dtype=np.uint32) for w in prefix] + [keys]
            for state, inc in _pcg64_states(entropy):
                bitgen.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                yield gen
