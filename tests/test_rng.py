import numpy as np
import pytest

from maxboot.bootstrap import GAUSSIAN, MAMMEN, BootstrapPlan
from maxboot.datagen import CopulaSpec, Dependence
from maxboot.harness import ExperimentConfig, run_experiment
from maxboot.rng import SeedSpec

# master seeds of one, two and three 32-bit words; paths of 0 to 5 keys, so
# with the child key the entropy runs from 3 words (below the 4-word pool)
# to 12 words (past it)
SPECS = [
    SeedSpec(0),
    SeedSpec(2**32 + 5, 3),
    SeedSpec(2**64 + 11, 1, (2,)),
    SeedSpec(7, 0, (0, 4)),
    SeedSpec(2**32 + 5, 0, (1, 0, 9)),
    SeedSpec(0, 2, (5, 6, 7, 8)),
    SeedSpec(2**70 + 1, 2**33, (3, 0, 2**40, 1, 0)),
]


def state_of(gen: np.random.Generator) -> tuple[int, int]:
    st = gen.bit_generator.state
    return st["state"]["state"], st["state"]["inc"]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.master_seed}-{s.stream_index}-{len(s.path)}")
@pytest.mark.parametrize("count", [1, 600])
def test_child_rngs_match_child_rng(spec, count):
    seen = 0
    for r, gen in enumerate(spec.child_rngs(count)):
        ref = spec.child(r).rng()
        assert gen.bit_generator.state == ref.bit_generator.state
        if r % 149 == 0 or r == count - 1:
            # the draws the schemes make, in the order they make them
            assert np.array_equal(gen.integers(0, 200, 9), ref.integers(0, 200, 9))
            assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(gen.random(3), ref.random(3))
        seen += 1
    assert seen == count


def test_child_rngs_resets_state_left_by_odd_32_bit_draws():
    # an odd count of 32-bit draws leaves a buffered half word in the bit generator
    spec = SeedSpec(42, 0, (1,))
    for r, gen in enumerate(spec.child_rngs(3)):
        ref = spec.child(r).rng()
        assert np.array_equal(gen.integers(0, 2, 3), ref.integers(0, 2, 3))
        assert gen.random() == ref.random()


def test_child_rngs_crosses_derivation_batches():
    spec = SeedSpec(3, 1, (4,))
    picked = {0, 4095, 4096, 4097, 8999}
    for r, gen in enumerate(spec.child_rngs(9000)):
        if r in picked:
            assert gen.bit_generator.state == spec.child(r).rng().bit_generator.state


def test_child_rngs_count_bounds():
    assert list(SeedSpec(1).child_rngs(0)) == []
    with pytest.raises(ValueError):
        list(SeedSpec(1).child_rngs(-1))


def test_short_paths_ending_in_zeros_share_a_stream():
    # SeedSequence zero-pads entropy to four words; the SeedSpec docstring says so
    states = {state_of(s.rng()) for s in (SeedSpec(5), SeedSpec(5).child(0), SeedSpec(5).child(0, 0))}
    assert len(states) == 1
    assert state_of(SeedSpec(5).child(0, 0, 0).rng()) not in states


def test_run_experiment_streams_are_distinct(monkeypatch):
    states = []
    rng, child_rngs = SeedSpec.rng, SeedSpec.child_rngs

    def recording_rng(self):
        gen = rng(self)
        states.append(state_of(gen))
        return gen

    def recording_child_rngs(self, count):
        for gen in child_rngs(self, count):
            states.append(state_of(gen))
            yield gen

    monkeypatch.setattr(SeedSpec, "rng", recording_rng)
    monkeypatch.setattr(SeedSpec, "child_rngs", recording_child_rngs)
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
        b_reps=20,
        master_seed=0,
    )
    run_experiment(config)
    # truth r, data r, and the 20 boot children of every (r, scheme)
    assert len(states) == 6 + 4 + 4 * 3 * 20
    assert len(set(states)) == len(states)

