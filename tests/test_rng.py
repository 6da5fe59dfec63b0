import itertools

import numpy as np
import pytest

from maxboot import rng
from maxboot.bootstrap import GAUSSIAN, MAMMEN, BootstrapPlan
from maxboot.datagen import CopulaSpec, Dependence
from maxboot.harness import ExperimentConfig, run_experiment
from maxboot.rng import SeedSpec

from conftest import redrawing_streams, rejection_table

# master seeds of one, two and three 32-bit words; paths of 0 to 6 keys, so
# with the zero word and the child key the entropy runs from 3 words (below
# the 4-word pool) to 12 words (past it)
SPECS = [
    SeedSpec(0),
    SeedSpec(2**32 + 5).child(3),
    SeedSpec(2**64 + 11).child(1, 2),
    SeedSpec(7).child(0, 0, 4),
    SeedSpec(2**32 + 5).child(0, 1, 0, 9),
    SeedSpec(0).child(2, 5, 6, 7, 8),
    SeedSpec(2**70 + 1).child(2**33, 3, 0, 9, 1, 0),
]


def spec_id(spec: SeedSpec) -> str:
    """master seed, first path key (0 for none), number of keys after it"""
    return f"{spec.master_seed}-{spec.path[0] if spec.path else 0}-{len(spec.path[1:])}"


def state_of(gen: np.random.Generator) -> tuple[int, int]:
    st = gen.bit_generator.state
    return st["state"]["state"], st["state"]["inc"]


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("count", [1, 600])
def test_child_rngs_match_child_rng(seating, spec, count):
    seen = 0
    for r, gen in enumerate(spec.child_rngs(count).take(count)):
        ref = spec.child(r).rng()
        assert gen.bit_generator.state == ref.bit_generator.state
        if r % 149 == 0 or r == count - 1:
            # the draws the schemes make, in the order they make them
            assert np.array_equal(gen.integers(0, 200, 9), ref.integers(0, 200, 9))
            assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(gen.random(3), ref.random(3))
        seen += 1
    assert seen == count


def test_child_rngs_resets_state_left_by_odd_32_bit_draws(seating):
    # an odd count of 32-bit draws leaves a buffered half word in the bit generator
    spec = SeedSpec(42).child(1)
    for r, gen in enumerate(spec.child_rngs(3).take(3)):
        ref = spec.child(r).rng()
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.integers(0, 2, 3), ref.integers(0, 2, 3))
        assert gen.random() == ref.random()


def test_child_rngs_crosses_derivation_batches(seating):
    spec = SeedSpec(3).child(1, 4)
    picked = {0, 4095, 4096, 4097, 8999}
    for r, gen in enumerate(spec.child_rngs(9000).take(9000)):
        if r in picked:
            assert gen.bit_generator.state == spec.child(r).rng().bit_generator.state


def test_a_walk_of_no_streams_serves_none():
    assert list(SeedSpec(1).child_rngs(0).take(1)) == []


test_rejects_bad_input = rejection_table(
    # checked when called, not when first iterated
    (lambda: SeedSpec(1).child_rngs(-1), ValueError, "count must lie in [0, 2**32]"),
    (lambda: SeedSpec(1).child_rngs(2**32 + 1), ValueError, "count must lie in [0, 2**32]"),
    # a negative key has no finite word split, so child_rngs would never end
    (lambda: SeedSpec(-1), ValueError, "seed components must be nonnegative integers"),
    (lambda: SeedSpec(1).child(2, -3), ValueError, "seed components must be nonnegative integers"),
)


def test_streams_leave_a_walk_only_through_take():
    # ``taken``, from which ``integers`` indexes its redraws, has take as its one writer
    walk = SeedSpec(1).child_rngs(5)
    assert not hasattr(walk, "__iter__") and not hasattr(walk, "__next__")
    assert len(list(walk.take(2))) == 2 and walk.taken == 2
    (gen,) = walk.take(1)
    assert walk.taken == 3
    assert gen.bit_generator.state == SeedSpec(1).child(2).rng().bit_generator.state


@pytest.mark.parametrize(
    "walk_of, k, served",
    [(lambda s: s.child_rngs(0), 1, 0), (lambda s: s.child_rngs(2), 3, 2), (lambda s: s.rng_walk(), 2, 1)],
    ids=["child_rngs(0).take(1)", "child_rngs(2).take(3)", "rng_walk().take(2)"],
)
def test_take_counts_only_the_streams_it_serves(walk_of, k, served):
    walk = walk_of(SeedSpec(1))
    # each state is read before the next step reseats the reused generator
    states = [gen.bit_generator.state for gen in walk.take(k)]
    assert len(states) == served and walk.taken == served
    if served:
        # rng_walk's one stream is SeedSpec(1), which child(0) also names
        assert states[-1] == SeedSpec(1).child(walk.taken - 1).rng().bit_generator.state
    # a used-up walk serves and counts nothing more
    assert list(walk.take(1)) == [] and walk.taken == served


@pytest.mark.parametrize("k, n", [(20001, 20001), (2, 20001), (3, 57)], ids=["k-20001", "k-2", "n-57"])
def test_integers_equal_numpy_per_row_draws(seating, k, n):
    # fills of 1, 34 and 3 rows; at k = n = 20001 numpy redraws in streams 15
    # and 35, and 35 ends the second fill
    spec = SeedSpec(7).child(2, n)
    if k == 20001:
        assert redrawing_streams(n, spec, 40) == [15, 35]
    walk = spec.child_rngs(100)
    taken = 0
    for b in (1, 34, 3):
        rows = walk.integers(k, n, b)
        for r, row in enumerate(rows, taken):
            expect = spec.child(r).rng().integers(0, k, n)
            assert row.tobytes() == expect.tobytes(), r
            assert spec.child(r).rng_walk().integers(k, n, 1)[0].tobytes() == expect.tobytes(), r
        taken += b
        (after,) = walk.take(1)
        assert after.bit_generator.state == spec.child(taken).rng().bit_generator.state
        taken += 1


def test_rejected_rows_exactly_below_the_threshold():
    # rows of halves 5, x, 9, where (x * k) mod 2**32 is one below the
    # threshold 2**32 mod k, and then the threshold itself
    k = 20001
    threshold = (1 << 32) % k
    x = [low * pow(k, -1, 1 << 32) % (1 << 32) for low in (threshold - 1, threshold)]
    halves = np.array([[5, x[0], 9], [5, x[1], 9]], dtype=np.uint32)
    assert rng._rejected_rows(halves.copy(), k).tolist() == [0]
    # 2**32 mod k is 0 for a power of two: nothing is ever rejected
    assert rng._rejected_rows(halves.copy(), 2).tolist() == []


def test_rejected_rows_match_python_ints():
    # 2**32 mod k is about a third of 2**32, so about a third of the draws
    # are rejected and most rows hold one
    k = (1 << 32) // 3 + 1
    halves = np.random.default_rng(3).integers(0, 1 << 32, (50, 3), dtype=np.uint32)
    want = [r for r, row in enumerate(halves.tolist()) if any(x * k % (1 << 32) < (1 << 32) % k for x in row)]
    assert 0 < len(want) < 50
    assert rng._rejected_rows(halves.copy(), k).tolist() == want


# 128-bit words as (low, high) uint64 pairs, against Python ints

EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def word_pairs():
    """Every combination of edge words for (a low, a high, b low, b high),
    then seeded random words."""
    rows = list(itertools.product(EDGE_WORDS, repeat=4))
    rows += np.random.default_rng(8).integers(0, 2**64, (500, 4), dtype=np.uint64).tolist()
    cols = np.array(rows, dtype=np.uint64).T
    return (cols[0], cols[1]), (cols[2], cols[3])


def as_ints(pair):
    return [int(lo) | int(hi) << 64 for lo, hi in zip(*pair)]


def test_add128_matches_python_ints():
    a, b = word_pairs()
    ai, bi = as_ints(a), as_ints(b)
    assert as_ints(rng._add128(a, b)) == [(x + y) % 2**128 for x, y in zip(ai, bi)]
    # the low-word carry: (2**64 - 1) + 1 moves one into the high word
    one, top = np.array([1], dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint64)
    assert as_ints(rng._add128((top, zero), (one, zero))) == [2**64]


def test_mulhi64_matches_python_ints():
    a, b = word_pairs()
    got = rng._mulhi64(a[0], b[0]).tolist()
    assert got == [(int(x) * int(y)) >> 64 for x, y in zip(a[0], b[0])]
    # the middle limbs' carry reaches the high word only through mid >> 32
    top = np.array([2**64 - 1], dtype=np.uint64)
    assert rng._mulhi64(top, np.uint64(2**64 - 1)).tolist() == [2**64 - 2]


def test_mul128_matches_python_ints():
    a, b = word_pairs()
    ai, bi = as_ints(a), as_ints(b)
    assert as_ints(rng._mul128(a, b)) == [(x * y) % 2**128 for x, y in zip(ai, bi)]
    lo, hi = rng._PCG_MULT
    mult = int(lo) | int(hi) << 64
    assert as_ints(rng._mul128(a, rng._PCG_MULT)) == [(x * mult) % 2**128 for x in ai]


def test_state_rows_match_seeded_pcg64():
    spec = SeedSpec(2**40 + 3).child(7, 9)
    prefix = [3, 2**8, 0, 7, 9]  # the 32-bit words of 2**40 + 3, the zero word, 7 and 9
    entropy = [np.full(4, w, dtype=np.uint32) for w in prefix] + [np.arange(4, dtype=np.uint32)]
    rows = rng._pcg64_states(entropy)
    assert rows.shape == (4, 4) and rows.dtype == np.uint64 and rows.flags.c_contiguous
    for r, (state_lo, state_hi, inc_lo, inc_hi) in enumerate(rows.tolist()):
        want = spec.child(r).rng().bit_generator.state["state"]
        assert want == {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}


@pytest.mark.parametrize("path", [(3,), (3, 8), (3, 8, 2**32 - 1)], ids=["3-words", "4-words", "5-words"])
def test_states_at_the_fold_boundary(path):
    # with a prefix of 3 words the key word enters the pool's first pass; with
    # 4 or 5 it is the first or second word past the pool, mixed in after the
    # prefix has been folded in Python ints
    spec = SeedSpec(2**32 - 2).child(*path)
    prefix = [w for key in spec._keys for w in rng._words(key)]
    assert len(prefix) == 2 + len(path)
    keys = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
    rows = rng._pcg64_states(prefix + [keys])
    for key, (state_lo, state_hi, inc_lo, inc_hi) in zip(keys.tolist(), rows.tolist()):
        want = spec.child(key).rng().bit_generator.state["state"]
        assert want == {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}


@pytest.mark.parametrize("word", range(6))
def test_state_write_declined_when_a_word_reads_back_wrong(monkeypatch, word):
    # unperturbed, a fresh check gives the cached answer
    assert rng._state_write_ok.__wrapped__() is rng._state_write_ok()
    read = rng._read_seat

    def one_bit_off(bitgen):
        got = list(read(bitgen))
        got[word] ^= 1
        return tuple(got)

    monkeypatch.setattr(rng, "_read_seat", one_bit_off)
    assert rng._state_write_ok.__wrapped__() is False


def test_short_paths_ending_in_zeros_share_a_stream():
    # SeedSequence zero-pads entropy to four words; the SeedSpec docstring says so
    states = {state_of(s.rng()) for s in (SeedSpec(5), SeedSpec(5).child(0), SeedSpec(5).child(0, 0))}
    assert len(states) == 1
    assert state_of(SeedSpec(5).child(0, 0, 0).rng()) not in states


def test_run_experiment_streams_are_distinct(monkeypatch):
    states = []
    fresh, seated = SeedSpec.rng, rng._seated

    def recording_rng(self):
        gen = fresh(self)
        states.append(state_of(gen))
        return gen

    def recording_seated(batches):
        # every step of every child_rngs walk
        for gen in seated(batches):
            states.append(state_of(gen))
            yield gen

    monkeypatch.setattr(SeedSpec, "rng", recording_rng)
    monkeypatch.setattr(rng, "_seated", recording_seated)
    config = ExperimentConfig(
        copula=CopulaSpec(Dependence.AR1, 0.2, 1.0),
        n=12,
        p=3,
        schemes=(
            BootstrapPlan.wild(GAUSSIAN, 20),
            BootstrapPlan.wild(MAMMEN, 20),
            BootstrapPlan.empirical(20),
        ),
        outer_reps=4,
        truth_reps=6,
        master_seed=0,
    )
    run_experiment(config)
    # truth r, data r, and the 20 boot children of every (r, scheme)
    assert len(states) == 6 + 4 + 4 * 3 * 20
    assert len(set(states)) == len(states)

