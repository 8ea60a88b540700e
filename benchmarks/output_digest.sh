#!/bin/bash
# Hash every CLI output of a fixed command set, plus a few library
# outputs the CLI does not reach, to show that a refactor leaves output
# bytes unchanged.
#
#   benchmarks/output_digest.sh [SRC_DIR]        (default: src)
#
# Prints one "label/file sha256-prefix" line per output file and per
# stdout, plus one "label exit=CODE" line per command. Compare the
# listings of two checkouts with diff, or their sha256sum for a short
# summary. Runs in about a minute and a half on two cores.
SRC=${1:-src}
HERE=$(cd "$(dirname "$0")" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export PYTHONPATH=$SRC

record() { # label, command...: run the command and hash what it leaves
  local label=$1; shift
  local dir=$WORK/$label
  mkdir -p "$dir"
  "$@" > "$dir/stdout.txt" 2> "$dir/stderr.txt"
  local code=$?
  echo "exit=$code" >> "$dir/stdout.txt"
  echo "$label exit=$code"
  for f in $(ls "$dir" | sort); do
    [ "$f" = stderr.txt ] && continue
    echo "$label/$f $(sha256sum < "$dir/$f" | cut -c1-16)"
  done
}

run() { # label, cli args...
  local label=$1; shift
  record "$label" python3 -m regen_bernstein.cli "$@" --out "$WORK/$label"
}

lib() { # label, python expression over the package's names; prints its repr
  record "$1" python3 -c "from regen_bernstein import *; print(repr($2))"
}

for ch in two-state singular-mod1; do
  if [ $ch = two-state ]; then points="0 1"; F=indicator_centered; else points="0.3 0.0"; F=cos2pi; fi
  for init in pi nu $points; do
    run sim-$ch-$init simulate --chain $ch --n 37 --init $init --seed 3 --f $F
    run simx-$ch-$init simulate --chain $ch --n 37 --init $init --seed 3 --extend --f $F
  done
  run simbig-$ch simulate --chain $ch --n 2000 --seed 5 --extend
  run varb-$ch variance --chain $ch --method batch --n 500 --seed 2 --f $F
  run varr-$ch variance --chain $ch --method regenerative --n-regen 2000 --seed 2 --f $F
  run ver-$ch verify --chain $ch --f $F --n 40 --replicas 1000 --seed 4 \
    --n-excursions 400 --n-first-blocks 200 --init pi
  run verth-$ch verify --chain $ch --f $F --n 40 --replicas 3000 --threads 2 --seed 4 \
    --n-excursions 400 --n-first-blocks 200 --init nu --format csv
  run vers-$ch verify --chain $ch --f $F --n 40 --replicas 1000 --seed 4 \
    --n-excursions 400 --n-first-blocks 200 --structure
done
run varb-x0 variance --chain two-state --method batch --n 500 --seed 2 --x0 1
run varb-mx0 variance --chain singular-mod1 --method batch --n 500 --seed 2 --x0 0.25 --f cos2pi
run ver-pt verify --chain two-state --n 40 --replicas 1000 --seed 4 \
  --n-excursions 400 --n-first-blocks 200 --init 1
run ver-ex verify --chain two-state --n 12 --exact --seed 4 \
  --n-excursions 400 --n-first-blocks 200
run ver-mpt verify --chain singular-mod1 --f cos2pi --n 40 --replicas 1000 --seed 4 \
  --n-excursions 400 --n-first-blocks 200 --init 0.5
run orc oracle --chain two-state --n 12
run orc1 oracle --chain two-state --n 12 --x0 1 --format csv
run vexact variance --chain two-state --method exact
# B < 64: the mod-1 path kernel masks its prefix sums once, modulo 2^B
run simbig-b40 simulate --chain singular-mod1 --precision 40 --n 2000 --seed 5 --extend
# B = 53 and 54: the last precision whose states convert to floats
# unshifted, and the first that drops a bit
for b in 53 54; do
  run simbig-b$b simulate --chain singular-mod1 --precision $b --n 2000 --seed 5 --extend
done
# non-dyadic rows: the rational exact-tail route normalizes each row
run orc-float oracle --chain two-state --a 0.3 --b 0.6 --n 12
# library outputs: the binned mod-1 TV curve, a mod-1 Pitman check and
# exact regeneration-count tails on dyadic and non-dyadic rows
lib tv-mod1 "(lambda c: (c.tv.tolist(), c.se.tolist()))(tv_decay_curve(
  make_singular_mod1(), 0.3, 6, replicas=20000, seed=1, bootstrap=50))"
lib pitman-mod1 "check_pitman(make_singular_mod1(), 'one', replicas=2000, seed=1)"
lib regen-count-half "exact_regeneration_count_tail(make_two_state(0.5, 0.5), 10, 2)"
lib regen-count-float "exact_regeneration_count_tail(make_two_state(0.3, 0.6), 10, 2)"
# a three-state chain: the replica kernel's comparisons against more than
# one cumulative column, in one 1000-replica chunk of 599 steps
lib mc-three-state "mc_tail(chain_from_dict({'matrix': [[0.5, 0.25, 0.25],
  [0.125, 0.375, 0.5], [0.25, 0.5, 0.25]], 'small_set': [True, True, True],
  'm': 1, 'delta': 0.5, 'nu': [0.25, 0.5, 0.25]}), 'indicator_centered', 'pi',
  600, [0.5 * i for i in range(80)], 1000, seed=3).estimate.tolist()"
# the long-horizon shape, as in verify at n = 10^4: one 4000-replica
# chunk stepped through 313 tiles of 32 steps (the last one 15), its
# last block of 160 replicas short
lib mc-long "mc_tail(make_two_state(0.25, 0.25), 'indicator_centered', 'pi',
  10000, [0.5 * i for i in range(601)], 4000, seed=7).estimate.tolist()"
# two threads: chunks of 4608 and 4392 replicas (the last block 40
# replicas) through tiles of 28 and 29 steps, from the nu start
lib mc-long-threads "mc_tail(make_two_state(0.3, 0.6), 'identity_centered',
  'nu', 10000, [0.5 * i for i in range(401)], 9000, seed=11,
  threads=2).estimate.tolist()"
# mod-1 tails at n = 2000: 16 replicas per tile of the mod-1 replica
# sums, so each 1000-replica chunk spans many tiles; every functional,
# B = 32 from a point start and B = 54 from pi
for F in cos2pi identity_centered indicator_centered; do
  lib mc-mod1-$F "mc_tail(make_singular_mod1(), '$F', 'pi', 2000,
  [0.5 * i for i in range(161)], 1000, seed=7).estimate.tolist()"
done
lib mc-mod1-b32 "mc_tail(make_singular_mod1(32), 'cos2pi', 0.3, 2000,
  [0.5 * i for i in range(161)], 1000, seed=7).estimate.tolist()"
lib mc-mod1-b54 "mc_tail(make_singular_mod1(54), 'identity_centered', 'pi', 2000,
  [0.5 * i for i in range(161)], 1000, seed=7).estimate.tolist()"
# two threads on the mod-1 chain: chunks of 1280 and 1220 replicas, the
# last block of 196 replicas short
lib mc-mod1-threads "mc_tail(make_singular_mod1(), 'cos2pi', 'pi', 3001,
  [0.5 * i for i in range(201)], 2500, seed=13, threads=2).estimate.tolist()"
# the exact tail's lattice DP past 2^26 paths
run orc-long oracle --chain two-state --n 1000
# the block kernel B0 = P^m - delta 1_C nu at m = 2 on a dyadic
# three-state chain (float for the gap law and its norm, exact rationals
# for the count tail), and the history count of the block-Markov check
THREE="chain_from_dict({'matrix': [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5],
  [0.25, 0.5, 0.25]], 'small_set': [1, 1, 0], 'm': 2, 'delta': 0.5,
  'nu': [0.25, 0.5, 0.25]})"
lib gap-three-m2 "(lambda g: (g[0].tolist(), g[1].tolist(), g[2]))(
  exact_gap_distribution($THREE))"
lib gap-psi1-three-m2 "exact_gap_psi1($THREE)"
lib regen-count-three-m2 "exact_regeneration_count_tail($THREE, 12, 2, init=0)"
lib block-markov-half "check_block_markov(make_two_state(0.5, 0.5, delta=0.5), n=10)"
# long split runs on the same chain at m = 2 and m = 3, whose r varies
# with the block endpoint: the states and levels, hashed
for m in 2 3; do
  lib split-three-m$m "(lambda t, h=__import__('hashlib'): (len(t), t.sigma.size,
  h.sha256(t.states.tobytes()).hexdigest(), h.sha256(t.levels.tobytes()).hexdigest()))(
  simulate_split(chain_from_dict(dict(chain_to_dict($THREE), m=$m, r=None)), 'pi',
  100000, __import__('numpy').random.default_rng(7), extend_to_regeneration=True))"
done
# the same runs without extension at a horizon m does not divide: the
# first request's ceil(n / m) blocks cut to n states
for m in 2 3; do
  lib split-cut-three-m$m "(lambda t, h=__import__('hashlib'): (len(t), t.sigma.size,
  h.sha256(t.states.tobytes()).hexdigest(), h.sha256(t.levels.tobytes()).hexdigest()))(
  simulate_split(chain_from_dict(dict(chain_to_dict($THREE), m=$m, r=None)), 'pi',
  100001, __import__('numpy').random.default_rng(7)))"
done
# first-regeneration runs: Pitman checks and fitted first-block norms on
# the three-state m = 2 chain and on a slowly regenerating two-state
# chain whose runs take several extension requests
SLOW="make_two_state(0.1, 0.1, delta=0.05)"
for pair in three-m2:"$THREE" slow:"$SLOW"; do
  name=${pair%%:*}; ch=${pair#*:}
  lib pitman-$name "[check_pitman($ch, g, replicas=3000, seed=2)
  for g in ('one', 'level', ('state', 1))]"
  lib fit-$name "(lambda p: (p.params, p.diagnostics))(fit_bernstein_params(
  $ch, 'indicator_centered', n_excursions=400, n_first_blocks=2500, seed=2))"
done
# the substream derivation, numpy's SeedSequence: first draws of each
# stream over a grid of seeds (masked to 64 bits) and paths (empty,
# indices around 256, past 2^32 and past 2^64, entropy longer than the
# 4-word pool)
lib rng-grid "[(lambda g: (g.random(2).tolist(),
  g.integers(0, 256, 3, dtype='u1').tolist(),
  g.integers(0, 2**64, 2, dtype='u8').tolist(), g.standard_normal(2).tolist()))(
  __import__('regen_bernstein._rng', fromlist=['substream']).substream(seed, *path))
  for seed in (0, 7, 2**63 + 1, 2**64 + 5, -1)
  for path in ((), (3, 0), (3, 255), (3, 256), (3, 257), (3, 70000), (3, 2**32 - 1),
  (3, 2**32), (3, 2**64 + 3), (5, 2**33, 17), (5, 3, 4, 5, 6, 7, 8, 9))]"
# two-block sup tails over 1500 replicas (five blocks of 256 and a short
# one) on two threads
lib two-block-product "two_block_sup_tail('product', 'uniform', 200,
  [0.5 * i for i in range(41)], 1500, seed=3, threads=2).estimate.tolist()"
lib two-block-difference "two_block_sup_tail('difference', 'uniform', 200,
  [0.1 * i for i in range(21)], 1500, seed=3, threads=2).estimate.tolist()"
# the bounds command: a full parameter bundle, a missing one, and a
# single evaluator
run bnd-bi bounds thm_bi a=1 b=1 c=1 d=2 alpha=1 sigma2_mrv=0.5 delta=0.5 \
  pi_C=0.5 m=1 n=100 t=40 D=3 f_sup=0.5
run bnd-miss bounds thm_bi a=1 b=1 c=1
run bnd-cb bounds classical_bernstein n=100 sigma2=0.25 M=1 t=10
# raw values of every bound evaluator and of the two Orlicz tails over
# an edge grid: t = 0 and subnormal t, zero scales, overflowing
# denominators (see bound_grid.py)
for name in $(python3 "$HERE/bound_grid.py"); do
  record bnd-raw-$name python3 "$HERE/bound_grid.py" $name
done
# every --format csv form: four bounds (two of them bundle theorems),
# the two estimate-and-se variance methods, and simulate, which has no
# CSV form and prints its JSON
BI="a=1 b=1 c=1 d=2 alpha=1 sigma2_mrv=0.5 delta=0.5 pi_C=0.5 m=1 n=100 t=40 D=3 f_sup=0.5"
run bnd-cb-csv bounds classical_bernstein n=100 sigma2=0.25 M=1 t=10 --format csv
run bnd-bi-csv bounds thm_bi $BI --format csv
run bnd-bi2-csv bounds thm_bi2 $BI p=0.5 --format csv
run bnd-kp-csv bounds kp_constant p=0.5 --format csv
run varr-csv variance --chain two-state --method regenerative --n-regen 2000 \
  --seed 2 --format csv
run varb-csv variance --chain two-state --method batch --n 500 --seed 2 --format csv
run sim-csv simulate --chain two-state --n 37 --seed 3 --format csv
# config files: each entry is read as the flag of the same name reads it
cfgrun() { # label, JSON config, cli args...: run with the config in a file
  local label=$1 json=$2; shift 2
  echo "$json" > "$WORK/$label.json"
  run "$label" "$@" --config "$WORK/$label.json"
}
# verify with its numeric fit and tail options from the config
cfgrun ver-cfg '{"chain": "two-state", "f": "indicator_centered", "n": 40,
  "replicas": 1000, "threads": 2, "z": 2, "p": 0.5, "alpha": 1, "safety": 2,
  "n_excursions": 400, "n_first_blocks": 200, "seed": 4}' verify
# twins of flag rows above, with JSON-typed entries: simx-two-state-1,
# varb-x0 (batch_length 11 is the default at n = 500), bnd-cb, ver-ex
# (x0 0 and the three formulas are the defaults) and orc-grid
cfgrun simx-cfg '{"chain": "two-state", "n": 37, "init": 1, "seed": 3,
  "extend": true, "f": "indicator_centered"}' simulate
cfgrun varb-x0-cfg '{"chain": "two-state", "method": "batch", "n": 500,
  "seed": 2, "x0": 1, "batch_length": 11}' variance
cfgrun bnd-cb-cfg '{"formula": "classical_bernstein",
  "args": {"n": 100, "sigma2": 0.25, "M": 1, "t": 10}}' bounds
cfgrun ver-ex-cfg '{"chain": "two-state", "n": 12, "exact": true, "seed": 4,
  "n_excursions": 400, "n_first_blocks": 200, "x0": 0,
  "formulas": ["thm_bi", "thm_bi2", "thm_sbi"], "structure": false}' verify
run orc-grid oracle --chain two-state --n 12 --x0 1 --t-grid 0,0.5,1.5,2.5,4 \
  --format csv
cfgrun orc-grid-cfg '{"chain": "two-state", "n": 12, "x0": 1,
  "t_grid": [0, 0.5, 1.5, 2.5, 4], "format": "csv"}' oracle
