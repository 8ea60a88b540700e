"""Hot simulation loops, one implementation each.

No kernel draws randomness of its own. Callers pass arrays of uniforms
(or raw 64-bit words) and every kernel consumes them in a fixed order.
The finite path loop is plain Python. The finite replica sums are numpy:
they step every replica at once through step-major uniforms, one row
per step, and a caller may feed them one tile of steps at a time. A
split path (finite_split_path) is the finite path loop plus a
vectorized read-off of the block levels from the drawn path. The
replica-batched split paths (finite_split_first_hits) are numpy, with
finite_split_path as their scalar reference; split_regen._split_runs
takes the scalar loop for one replica, which is much faster than
stepping a single row through numpy, and the batched one for several.
The mod-1 kernels are numpy, and the replica sums read f off the one
mod-1 path kernel.
"""

from __future__ import annotations

import math

import numpy as np

from ._backend import backend_choice


# Functional codes understood by the mod-1 kernels.
F_COS2PI = 0
F_IDENTITY_CENTERED = 1
F_INDICATOR_CENTERED = 2

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# finite-state kernels
#
# State update: with u uniform on [0, 1), the next state is the count of
# cumulative-row entries <= u among the first ns - 1 columns (rows are
# nondecreasing, so the scalar loops stop at the first miss). Every
# kernel uses the same comparison, so paths agree bitwise. A numpy step
# (_finite_step) makes one fancy-index gather and one compare per
# column, the first written straight into the next state and the rest
# added to it; the replica sums then add f of the new states by index.
# ---------------------------------------------------------------------------


def finite_chain_path(cum_rows, x0, uniforms):
    """One finite-chain path; returns len(uniforms) + 1 state indices."""
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    out = np.empty(uniforms.shape[0] + 1, dtype=np.int64)
    ns = cum_rows.shape[1]
    x = out[0] = int(x0)
    for i in range(uniforms.shape[0]):
        u = uniforms[i]
        j = 0
        while j < ns - 1 and u >= cum_rows[x, j]:
            j += 1
        x = out[i + 1] = j
    return out


def _finite_step(cols, states, u, nxt):
    """One step of many replicas: nxt[i] counts the columns c with
    u[i] >= c[states[i]], the scalar loops' state update."""
    if not cols:
        nxt.fill(0)
        return
    np.greater_equal(u, cols[0][states], out=nxt)
    for col in cols[1:]:
        nxt += u >= col[states]


def finite_chain_sums(cum_rows, f_vals, states, uniforms, sums):
    """Step replicas through step-major uniforms, summing f as they go.

    Row i of uniforms (shape (steps, replicas)) moves every replica one
    step, column r driving replica r. states (int64) and sums (float64)
    hold one entry per replica and are updated in place: states to the
    last state visited, sums by f of every state visited after the
    start, added in visit order. With sums started at f_vals[x0], one
    call per tile of steps gives each replica's sum of f over its path.
    """
    cols = [np.ascontiguousarray(cum_rows[:, j])
            for j in range(cum_rows.shape[1] - 1)]
    cur, nxt = states, np.empty_like(states)
    for u in uniforms:
        _finite_step(cols, cur, u, nxt)
        cur, nxt = nxt, cur
        sums += f_vals[cur]
    if cur is not states:
        states[:] = cur


def finite_split_path(cum_rows, in_c, r_mat, m, x0, state_u, level_u):
    """One split-chain path over complete m-blocks.

    state_u has length blocks * m and level_u length blocks. Returns
    (states, block_levels) where states holds blocks * m + 1 indices;
    the extra final state is the endpoint that the last level draw
    conditions on. The path is finite_chain_path's, and the levels are
    read off it: level k is 1 when the block start lies in the small
    set and level_u[k] < r(start, endpoint).
    """
    level_u = np.asarray(level_u, dtype=np.float64)
    if np.shape(state_u)[0] != level_u.shape[0] * m:
        raise ValueError("state_u must hold m uniforms per block")
    states = finite_chain_path(cum_rows, x0, state_u)
    starts, ends = states[:-1:m], states[m::m]
    levels = (in_c[starts] & (level_u < r_mat[starts, ends])).astype(np.uint8)
    return states, levels


def finite_split_first_hits(cum_rows, in_c, r_mat, m, x0, state_u, level_u,
                            first):
    """Split paths of many replicas, each up to its first level-1 block
    at or after block first.

    Row i of state_u (blocks * m uniforms) and level_u (blocks uniforms)
    drives replica i from x0[i] with finite_split_path's comparisons,
    one step for all replicas at a time, in numpy.
    Returns (states, levels) of shapes (rows, blocks * m + 1) and
    (rows, blocks), levels as uint8. The steps stop after the block in
    which every row has a level-1 block at or after block first, so a
    row's states and levels are set only through the end of its first
    such block (all of them when it has none).
    """
    rows, blocks = level_u.shape
    cols = [np.ascontiguousarray(cum_rows[:, j])
            for j in range(cum_rows.shape[1] - 1)]
    states = np.empty((blocks * m + 1, rows), dtype=np.int64)  # step-major
    states[0] = x0
    levels = np.zeros((blocks, rows), dtype=np.bool_)  # block-major
    hit = np.zeros(rows, dtype=np.bool_)
    for k in range(blocks):
        for i in range(k * m, (k + 1) * m):
            _finite_step(cols, states[i], state_u[:, i], states[i + 1])
        start, end = states[k * m], states[(k + 1) * m]
        levels[k] = in_c[start] & (level_u[:, k] < r_mat[start, end])
        if k >= first:
            hit |= levels[k]
            if hit.all():
                break
    return states.T, levels.T.astype(np.uint8)


# ---------------------------------------------------------------------------
# mod-1 kernels
#
# The state is a B-bit fixed-point fraction held in a uint64. Each step
# masks a fresh 64-bit word down to the odd or even bit positions
# (picked by eps) and adds it with wraparound; mod1_chain_path is that
# step, and the replica sums read f off its paths a tile at a time.
# Converting to a float for f uses at most 53 of the leading bits, which
# is exact.
# ---------------------------------------------------------------------------

# mod-1 states per tile of the replica sums (256 KB of uint64)
_MOD1_TILE_STATES = 1 << 15


def mod1_chain_path(odd_mask, even_mask, wrap_mask, x0_bits, eps, words):
    """Mod-1 paths in fixed-point bits along the last axis of eps.

    eps and words hold one move per entry; x0_bits is one start (or one
    per leading index). Each path holds its start and then one state
    per move. The running sum wraps modulo 2^64 and 2^B divides 2^64,
    so masking the prefix sums once equals wrapping after every step.
    """
    eps = np.asarray(eps, dtype=np.uint8)
    words = np.asarray(words, dtype=np.uint64)
    out = np.empty(eps.shape[:-1] + (eps.shape[-1] + 1,), dtype=np.uint64)
    out[..., 0] = x0_bits
    # step masks built in place: even, flipped to odd where eps == 1
    steps = out[..., 1:]
    np.multiply(eps == 1, np.uint64(odd_mask ^ even_mask), out=steps)
    steps ^= np.uint64(even_mask)
    steps &= words
    np.cumsum(out, axis=-1, out=out)
    out[..., 1:] &= np.uint64(wrap_mask)
    return out


# the replica sums' own name for the path kernel, so that a wrapper put
# on the module attribute mod1_chain_path sees only the path callers
_mod1_path = mod1_chain_path


def mod1_f(x, f_code):
    """A coded mod-1 functional on float states x in [0, 1).

    Raises ValueError on a code other than the F_* codes.
    """
    if f_code == F_COS2PI:
        return np.cos(_TWO_PI * x)
    if f_code == F_IDENTITY_CENTERED:
        return x - 0.5
    if f_code == F_INDICATOR_CENTERED:
        return np.where(x < 0.5, 0.5, -0.5)
    raise ValueError(f"unknown mod-1 functional code {f_code!r}")


def mod1_chain_sums(odd_mask, even_mask, wrap_mask, shift, scale, f_code,
                    x0_bits, eps, words):
    """Per-replica sums of a coded functional over a mod-1 path.

    eps and words have shape (replicas, steps) and x0_bits one initial
    state per replica; each replica visits steps + 1 states and the sum
    covers all of them, accumulated in visit order. shift and scale
    define the exact bits-to-float conversion x = (bits >> shift) * scale.
    """
    eps = np.asarray(eps, dtype=np.uint8)
    nrep, nsteps = eps.shape
    x0_bits = np.broadcast_to(np.asarray(x0_bits, dtype=np.uint64), (nrep,))
    out = np.empty(nrep, dtype=np.float64)
    tile = max(1, _MOD1_TILE_STATES // (nsteps + 1))
    for lo in range(0, nrep, tile):
        rows = slice(lo, lo + tile)
        bits = _mod1_path(odd_mask, even_mask, wrap_mask, x0_bits[rows],
                          eps[rows], words[rows])
        vals = mod1_f((bits >> np.uint64(shift)) * scale, f_code)
        # accumulate adds left to right, as the visits come; sum would
        # add pairwise
        out[rows] = np.add.accumulate(vals, axis=1)[:, -1]
    return out


def mod1_bits_to_float(bits, precision):
    """Exact conversion of fixed-point states to floats in [0, 1)."""
    shift, scale = mod1_float_params(precision)
    return (np.asarray(bits, dtype=np.uint64) >> np.uint64(shift)) * scale


def mod1_float_params(precision):
    """(shift, scale) so that (bits >> shift) * scale is float-exact."""
    shift = max(0, int(precision) - 53)
    scale = 2.0 ** -(int(precision) - shift)
    return shift, scale


def warm_up():
    """Run every kernel once on tiny inputs, paying first-call costs
    before the timed work; returns the backend name."""
    cum = np.array([[0.5, 1.0], [0.5, 1.0]])
    f_vals = np.array([0.5, -0.5])
    in_c = np.array([True, False])
    r_mat = np.full((2, 2), 1.0)
    u1 = np.array([0.3, 0.7])
    u2 = np.array([[0.3, 0.7], [0.6, 0.1]])
    finite_chain_path(cum, 0, u1)
    finite_chain_sums(cum, f_vals, np.zeros(2, dtype=np.int64), u2,
                      np.zeros(2))
    finite_split_path(cum, in_c, r_mat, 1, 0, u1, u1)
    eps1 = np.array([0, 1], dtype=np.uint8)
    w1 = np.array([123456789, 987654321], dtype=np.uint64)
    odd, even, wrap = 0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 0xFFFFFFFFFFFFFFFF
    shift, scale = mod1_float_params(64)
    mod1_chain_path(odd, even, wrap, 0, eps1, w1)
    mod1_chain_sums(odd, even, wrap, shift, scale, F_COS2PI, 0,
                    eps1[None, :], w1[None, :])
    return backend_choice()
