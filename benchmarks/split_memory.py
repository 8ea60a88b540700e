"""Traced memory peaks of split runs and of the calls built on them.

    python3 benchmarks/split_memory.py [SRC_DIR]        (default: src)

Prints one row per measured call: its label, the seed, the states the
trajectory holds and the tracemalloc peak of the call, in MB (2^20
bytes) and, for simulate_split, in bytes per returned state. The
simulate_split rows run 40,000 states from "pi" with
extend_to_regeneration=True on singular-mod1 and on two-state(0.3, 0.6),
each at the first seed (of np.random.default_rng) whose horizon ends
in a regeneration ("ends") and at the first whose run extends past it
("extends"). The other rows are collect_excursions with cos2pi and
16,000 excursions, and fit_bernstein_params and check_block_structure
at the sizes of perfbench's regen-harness workload. Every call runs
once untraced first, so lazy imports and caches stay out of the peaks.
Compare the listings of two checkouts to see what a change saves.
"""

import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1] if len(sys.argv) > 1 else "src")))

import numpy as np  # noqa: E402

import regen_bernstein as rb  # noqa: E402

STATES = 40_000
SEED = 7
SPLIT_CHAINS = {
    "mod1": rb.make_singular_mod1,
    "two-state": lambda: rb.make_two_state(0.3, 0.6),
}
HARNESS_TWO_STATE = {"a": 0.25, "b": 0.25, "delta": 1.0}


def traced_peak(call):
    """(result, peak bytes) of call(), run once untraced first."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def split_rows():
    for name, make in SPLIT_CHAINS.items():
        chain = make()
        wanted = {"ends", "extends"}
        seed = 0
        while wanted:
            def call(seed=seed):
                return rb.simulate_split(chain, "pi", STATES,
                                         np.random.default_rng(seed),
                                         extend_to_regeneration=True)
            traj = call()
            case = "extends" if len(traj) > STATES else "ends"
            if case in wanted:
                wanted.discard(case)
                traj, peak = traced_peak(call)
                yield (f"simulate_split:{name}:{case}", seed, len(traj),
                       peak, peak / len(traj))
            seed += 1


def library_rows():
    mod1 = rb.make_singular_mod1()
    two_state = rb.make_two_state(**HARNESS_TWO_STATE)
    calls = {
        "collect_excursions:mod1": lambda: rb.collect_excursions(
            mod1, "cos2pi", 16_000, SEED),
        "fit:two-state": lambda: rb.fit_bernstein_params(
            two_state, "indicator_centered", seed=SEED, n_excursions=4_000,
            n_first_blocks=2_000),
        "fit:mod1": lambda: rb.fit_bernstein_params(
            mod1, "cos2pi", seed=SEED, n_excursions=16_000,
            n_first_blocks=2_000),
        "structure:two-state": lambda: rb.check_block_structure(
            two_state, n_blocks=20_000, level=1e-5, seed=SEED),
        "structure:mod1": lambda: rb.check_block_structure(
            mod1, n_blocks=20_000, level=1e-5, seed=SEED),
    }
    for label, call in calls.items():
        _, peak = traced_peak(call)
        yield label, SEED, None, peak, None


def main() -> int:
    print(f"{'call':<32} {'seed':>4} {'states':>7} {'peak MB':>8} "
          f"{'B/state':>8}")
    for label, seed, states, peak, per_state in (*split_rows(),
                                                 *library_rows()):
        print(f"{label:<32} {seed:>4} {states or '-':>7} "
              f"{peak / 2 ** 20:>8.2f} "
              f"{'-' if per_state is None else f'{per_state:.1f}':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
