#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark, in alternating pairs.

    python3 scripts/ab.py <base-rev> [<change-rev>]    # change defaults to HEAD

Both revisions are checked out as git worktrees under .ab/ (each keeps its
own perfbench build there, so a second comparison of the same revisions
rebuilds nothing); uncommitted changes are not measured. The script refuses to compare (exit 2) when perfbench/
or BENCHMARK.json differ between the two: the yardstick must be the same on
both sides.

For seeds 1-10 on every workload in BENCHMARK.json it runs each side's
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
one pair per seed, and alternates from pair to pair which side runs first.
For each workload and end-to-end metric it prints both medians with their
quartiles, the pairs the change won (ties count for neither side) and one
verdict, checked in this order:

  unresolved  the base's IQR/median is above the metric's bound, unless
              every change run beats every base run
  worse       the change median is worse than the base's by more than the bound
  better      the change won >= 9 of 10 pairs and the medians differ by
              more than the base's IQR
  same        anything else

It then prints failed/attempted operations for each side. Exit status: 0,
1 when any row is `worse` or the change fails a larger share of its
operations than the base, 2 when the comparison could not be made. The raw results go to .ab/<base>-<change>.json.
The pair count, seeds, run length and bounds are fixed; there are no flags.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".ab")
SEEDS = range(1, 11)
MIN_WINS = 9


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(base, change, bound, lower_is_better):
    """Verdict for one metric. `base` and `change` list each pair's value in
    pair order, None where that run did not measure the metric. Returns
    (verdict, wins, pairs), counting only pairs that measured both sides."""
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    wins = sum(c < b if lower_is_better else c > b for b, c in pairs)
    b_vals = [b for b in base if b is not None]
    c_vals = [c for c in change if c is not None]
    if not b_vals or not c_vals:
        return "unresolved", wins, len(pairs)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    c_med = statistics.median(c_vals)
    iqr = b_q3 - b_q1
    spread = iqr / abs(b_med) if b_med else float("inf")
    if lower_is_better:
        sweep = max(c_vals) < min(b_vals)
        worsening = c_med - b_med
    else:
        sweep = min(c_vals) > max(b_vals)
        worsening = b_med - c_med
    if spread > bound and not sweep:
        return "unresolved", wins, len(pairs)
    if worsening > bound * abs(b_med):
        return "worse", wins, len(pairs)
    if wins >= MIN_WINS and -worsening > iqr:
        return "better", wins, len(pairs)
    return "same", wins, len(pairs)


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs if r)
    failed = sum(r["failed"] for r in runs if r)
    return failed, attempted


def exit_status(verdicts, base_runs, change_runs):
    """1 on any `worse` verdict, on a higher failed share for the change, or
    on more change runs than base runs that produced no result; else 0."""
    if "worse" in verdicts:
        return 1
    b_failed, b_attempted = failed_share(base_runs)
    c_failed, c_attempted = failed_share(change_runs)
    b_share = b_failed / b_attempted if b_attempted else 0.0
    c_share = c_failed / c_attempted if c_attempted else 0.0
    if c_share > b_share:
        return 1
    if sum(r is None for r in change_runs) > sum(r is None for r in base_runs):
        return 1
    return 0


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        fail(f"git {' '.join(args)} failed: {out.stderr.strip()}")
    return out.stdout.strip()


def worktree(side, sha):
    """A checkout of `sha` under .ab/, reused when it is already there."""
    path = os.path.join(AB_DIR, f"{side}-{sha[:12]}")
    if os.path.isdir(path):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                              capture_output=True, text=True)
        if head.returncode == 0 and head.stdout.strip() == sha:
            return path
        shutil.rmtree(path)
    git("worktree", "prune")
    git("worktree", "add", "--detach", path, sha)
    return path


def run_side(path, workload, seed, seconds):
    """One perfbench run. Returns its result line as a dict, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-10:])
        print(f"ab: {path}: no result (exit {proc.returncode})\n{tail}", file=sys.stderr)
        return None
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def main():
    args = sys.argv[1:]
    if not 1 <= len(args) <= 2 or any(a.startswith("-") for a in args):
        fail(__doc__.split("\n\n")[1].strip())
    base_rev, change_rev = args[0], args[1] if len(args) == 2 else "HEAD"
    base = git("rev-parse", "--verify", base_rev + "^{commit}")
    change = git("rev-parse", "--verify", change_rev + "^{commit}")
    differ = subprocess.run(["git", "diff", "--quiet", base, change, "--",
                             "perfbench", "BENCHMARK.json"], cwd=ROOT).returncode
    if differ:
        fail(f"perfbench/ or BENCHMARK.json differ between {base_rev} and "
             f"{change_rev}; the yardstick must be the same on both sides")
    spec = json.loads(git("show", f"{base}:BENCHMARK.json"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    paths = {"base": worktree("base", base), "change": worktree("change", change)}
    runs = {(side, w): [] for side in paths for w in workloads}
    pairs = [(w, seed) for w in workloads for seed in SEEDS]
    for i, (w, seed) in enumerate(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            t0 = time.monotonic()
            r = run_side(paths[side], w, seed, seconds)
            runs[(side, w)].append(r)
            state = "no result" if r is None else "ok" if r["correct"] else "check failed"
            print(f"[pair {i + 1}/{len(pairs)}] {w} seed {seed} {side}: {state} "
                  f"({time.monotonic() - t0:.0f} s)", file=sys.stderr)
    with open(os.path.join(AB_DIR, f"{base[:12]}-{change[:12]}.json"), "w") as f:
        json.dump({f"{side}/{w}": r for (side, w), r in runs.items()}, f, indent=1)

    print(f"base {base_rev} = {base[:12]}, change {change_rev} = {change[:12]}, "
          f"{len(SEEDS)} pairs x {seconds} s per workload")
    print(f"{'workload':9s} {'metric':17s} {'base median [q1-q3]':>28s} "
          f"{'change median [q1-q3]':>28s} {'wins':>5s}  verdict")
    verdicts = []
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"].get(name) if r else None for r in runs[("base", w)]]
            c = [r["metrics"].get(name) if r else None for r in runs[("change", w)]]
            v, wins, n = verdict(b, c, m["bound"], m["better"] == "lower")
            verdicts.append(v)
            cols = []
            for vals in (b, c):
                vals = [x for x in vals if x is not None]
                if vals:
                    q1, med, q3 = quartiles(vals)
                    cols.append(f"{fmt(med)} [{fmt(q1)}-{fmt(q3)}]")
                else:
                    cols.append("-")
            print(f"{w:9s} {name:17s} {cols[0]:>28s} {cols[1]:>28s} "
                  f"{wins:>2d}/{n:<2d}  {v}")
    all_base = [r for w in workloads for r in runs[("base", w)]]
    all_change = [r for w in workloads for r in runs[("change", w)]]
    for side, side_runs in (("base", all_base), ("change", all_change)):
        failed, attempted = failed_share(side_runs)
        lost = sum(r is None for r in side_runs)
        print(f"{side:6s} failed/attempted {failed}/{attempted}"
              f" ({100.0 * failed / max(1, attempted):.4f}%), runs with no result {lost}")
    sys.exit(exit_status(verdicts, all_base, all_change))


if __name__ == "__main__":
    main()
