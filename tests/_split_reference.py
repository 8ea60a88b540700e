"""The split chain in plain Python: the reference for split_regen's runs."""

import numpy as np

from regen_bernstein import SplitTrajectory
from regen_bernstein import split_regen
from regen_bernstein._kernels import finite_split_path
from regen_bernstein.chain_models import resolve_start


def reference_split(chain, init, n, rng, extend, rows=None):
    # the split chain in plain Python, one request at a time for the rows
    # still running, all drawing from rng: every row's start, then
    # ceil(n / m) blocks, then requests of max(128, 2 * previous) blocks
    # (at most 65536) until a level-1 block starts at or after n - m. A
    # request takes the running rows in groups of split_regen's
    # _GROUP_STATES // (blocks * m) rows (at least one); a group draws
    # each of its rows' state uniforms, then each one's level uniforms
    # (on the mod-1 chain all their coins, then all their words).
    # rows=None is one run, returned as a trajectory; otherwise a list
    # of rows runs
    m = chain.m
    mod1 = chain.mod1
    spec = chain.minorization
    start = resolve_start(chain, init)
    states = [[start.draw(rng)] for _ in range(rows or 1)]
    levels = [[] for _ in states]
    running = list(range(len(states)))
    blocks = -(-n // m)
    while running:
        size = max(1, split_regen._GROUP_STATES // (blocks * m))
        for group in (running[lo:lo + size]
                      for lo in range(0, len(running), size)):
            if mod1 is None:
                state_u = [rng.random(blocks * m) for _ in group]
                level_u = [rng.random(blocks) for _ in group]
                paths = [finite_split_path(
                    chain.kernel.cumulative_rows(),
                    np.asarray(spec.small_set, dtype=bool),
                    np.asarray(spec.r, dtype=np.float64), m, states[i][-1],
                    su, lu)
                    for i, su, lu in zip(group, state_u, level_u)]
            else:
                eps, words = mod1.draw_moves(rng, (len(group), blocks * m))
                paths = [(mod1.path(states[i][-1], e, w),
                          [e[2 * k] != e[2 * k + 1] for k in range(blocks)])
                         for i, e, w in zip(group, eps, words)]
            for i, (path, block_levels) in zip(group, paths):
                states[i] += path[1:].tolist()
                levels[i] += [int(v) for v in block_levels]
        if not extend:
            break
        running = [i for i in running
                   if not any(v and k * m >= n - m for k, v in enumerate(levels[i]))]
        blocks = min(max(128, 2 * blocks), 65536)
    runs = []
    for run_states, run_levels in zip(states, levels):
        hits = [k * m for k, v in enumerate(run_levels) if v and k * m >= n - m]
        stop = hits[0] + m if extend else n
        per_state = [v for v in run_levels for _ in range(m)]
        run_states = (np.array(run_states[:stop], dtype=np.int64) if mod1 is None
                      else mod1.bits_to_float(np.array(run_states[:stop],
                                                       dtype=np.uint64)))
        runs.append(SplitTrajectory(
            states=run_states, levels=np.array(per_state[:stop], dtype=np.uint8),
            m=m))
    return runs if rows is not None else runs[0]
