"""Benchmark of regen_bernstein: whole workloads and the layers inside them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round of the workload runs in a
fresh single-threaded process (perfbench/round.py) that imports the
package from the checkout's src/, sets up, runs the workload's
operations, and checks every output against references computed apart
from the program. Rounds repeat for about S seconds (at least three
untraced rounds). With --trace 0 the last line of standard output
holds the medians of the end-to-end metrics; with --trace 1 each round
is an untraced and a traced process, and the line holds the medians of
the per-layer metrics. --toy runs the same operations and checks at
toy sizes. A JSON file per run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_UNTRACED_ROUNDS = 3
# A run ends within this many seconds: no round starts that would pass it.
RUN_LIMIT_S = 170.0
MIN_TRACE_COVERAGE = 0.9
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def _round(workload: str, seed: int, traced: bool, size: str,
           timeout: float) -> dict:
    env = dict(os.environ)
    # the backend stays at its default, "auto"
    env.pop("REGEN_BERNSTEIN_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for name in THREAD_VARIABLES:
        env[name] = "1"
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--size", size,
           "--out", str(OUT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(result["src"]) != SRC:
        raise RuntimeError(f"imported regen_bernstein from {result['src']}, "
                           f"not from {SRC}")
    return result


def _rounds(args, size: str, min_rounds: int) -> list:
    """Whole rounds until the run length has passed; each is a list of
    round results (one untraced, or an untraced and a traced one)."""
    start = time.monotonic()
    rounds = []
    while True:
        elapsed = time.monotonic() - start
        one = [_round(args.workload, args.seed, False, size,
                      RUN_LIMIT_S - elapsed)]
        if args.trace:
            elapsed = time.monotonic() - start
            one.append(_round(args.workload, args.seed, True, size,
                              RUN_LIMIT_S - elapsed))
        rounds.append(one)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        # the next round would end closer to the run length than this one
        if len(rounds) >= min_rounds and elapsed + per_round / 2 >= args.seconds:
            return rounds
        if elapsed + per_round > RUN_LIMIT_S:
            print(f"stopping after {len(rounds)} rounds to end within "
                  f"{RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return rounds


def _problems(rounds: list) -> list:
    problems = []
    for i, one in enumerate(rounds):
        for result in one:
            problems += [f"round {i}: {p}" for p in result["problems"]]
    digests = {result["digest"] for one in rounds for result in one}
    if len(digests) != 1:
        problems.append(f"outputs differ between rounds and between traced "
                        f"and untraced processes: {len(digests)} digests")
    for i, one in enumerate(rounds):
        if len(one) == 2 and one[1]["layers"]["trace.coverage"] < MIN_TRACE_COVERAGE:
            problems.append(f"round {i}: top-level spans cover "
                            f"{one[1]['layers']['trace.coverage']:.3f} of wall_s")
    return problems


def _metrics(rounds: list, traced: bool) -> dict:
    """Medians of the metrics BENCHMARK.json lists for this kind of run."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not traced:
        return {m["name"]: {"value": statistics.median(one[0][m["name"]]
                                                       for one in rounds),
                            "unit": m["unit"]}
                for m in benchmark["end_to_end"]}
    out = {}
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        if name == "trace.overhead_s":
            values = [one[1]["wall_s"] - one[0]["wall_s"] for one in rounds]
        else:
            values = [one[1]["layers"][name] for one in rounds]
        # counts repeat exactly across rounds; keep them whole numbers
        median = (statistics.median_low if all(isinstance(v, int) for v in values)
                  else statistics.median)
        out[name] = {"value": median(values), "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes: every operation and check, in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "regen_bernstein" / "__init__.py").is_file():
        print(f"no regen_bernstein package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    size = "toy" if args.toy else "full"
    rounds = _rounds(args, size, 1 if (args.toy or args.trace)
                     else MIN_UNTRACED_ROUNDS)
    for i, one in enumerate(rounds):
        for result in one:
            print(f"round {i} {'traced' if result['layers'] else 'untraced'}: "
                  f"setup {result['setup_s']:.3f} s, wall {result['wall_s']:.3f} s, "
                  f"cpu {result['cpu_s']:.3f} s, rss {result['peak_rss_mb']:.1f} MB, "
                  f"{result['failed']}/{result['attempted']} failed, "
                  f"{len(result['problems'])} problems")
    problems = _problems(rounds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for one in rounds for r in one),
        "failed": sum(r["failed"] for one in rounds for r in one),
        "metrics": _metrics(rounds, bool(args.trace)),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": size,
              "environment": rounds[0][0]["environment"],
              "problems": problems, "rounds": rounds, "summary": summary}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
