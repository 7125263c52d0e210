"""Leaf-by-leaf comparison of two source trees' summaries on the benchmark
markets.

    python3 tools/summary_diff.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``arbsurf`` package, such as a
checkout's ``src``.  Each tree's ``run_pipeline`` runs in its own subprocess
(one BLAS thread) on every market of the ``ref31`` and ``descent3k``
workloads at seed 7, with the configs and market seeds that
``perfbench/run.py`` declares, artifacts included where the workload writes
them.  The script prints, for each market, both exit statuses and whether
the SHA-256 digests of ``strip_meta(summary)`` are equal, beside each
tree's minor page faults over its ``run_pipeline`` call
(``getrusage(RUSAGE_SELF).ru_minflt``), which no summary records and which
move with heap layout; then, for each leaf
that moved, the number of markets where it moved and its largest relative
change, first the summary's leaves and then the ``meta`` counters (the
``wall_*`` times and the timestamp are left out).  List elements are grouped
as ``[*]``.  Exits 1 if any market's exit status or digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ref31", "descent3k")
SEED = 7


def run_markets(src: str) -> None:
    """Child side: run every market with the package in ``src`` and print
    one JSON line each."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import run as bench
    from arbsurf.pipeline import run_pipeline, strip_meta, summary_to_json
    for workload in WORKLOADS:
        writes = bench.WORKLOADS[workload][1]
        for market in bench.market_seeds(workload, SEED):
            record = {"workload": workload, "market": market, "minflt": None}
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                with tempfile.TemporaryDirectory() as out:
                    summary, status = run_pipeline(bench.build_config(workload, market),
                                                   out_dir=Path(out) if writes else None)
                    record["minflt"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                                        - faults)
            except Exception as exc:  # reported per market, as the benchmark does
                record.update(status=f"raised {type(exc).__name__}: {exc}",
                              digest=None, summary=None)
            else:
                text = summary_to_json(strip_meta(summary))
                record.update(status=status,
                              digest=hashlib.sha256(text.encode()).hexdigest(),
                              summary=json.loads(summary_to_json(summary)))
            print(json.dumps(record), flush=True)


def start(src: str) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, __file__, "--child", src],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def leaves(tree, path=""):
    """(path, value) for every leaf, list indices written ``[*]``."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(tree, list):
        for value in tree:
            yield from leaves(value, f"{path}[*]")
    else:
        yield path, tree


def relative_change(a, b) -> float:
    """|a - b| / max(|a|, |b|) for numbers; infinite for any other change."""
    if a == b:
        return 0.0
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numbers or not all(map(math.isfinite, (a, b))):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def moved_leaves(pairs) -> dict:
    """Leaf path -> (markets where it moved, largest relative change)."""
    moved = {}
    for old, new in pairs:
        a, b = dict(_pairs(old)), dict(_pairs(new))
        worst = {}
        for key in a.keys() | b.keys():
            change = relative_change(a.get(key), b.get(key))
            if change > 0:
                worst[key[0]] = max(worst.get(key[0], 0.0), change)
        for path, change in worst.items():
            count, largest = moved.get(path, (0, 0.0))
            moved[path] = (count + 1, max(largest, change))
    return moved


def _pairs(summary):
    """The leaves of a summary keyed by path and position among the leaves
    of that path."""
    out = {}
    for path, value in leaves(summary):
        out.setdefault(path, []).append(value)
    return [((path, i), v) for path, values in out.items() for i, v in enumerate(values)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    procs = [start(str(Path(p).resolve())) for p in (args.parent_src, args.change_src)]
    runs = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"a tree's run failed with exit status {proc.returncode}")
            return 2
        runs.append([json.loads(line) for line in out.splitlines()])
    differs = False
    print(f"{'workload':10} {'market':>8}  parent  change  digest   "
          "minor faults: parent  change")
    for old, new in zip(*runs):
        same = old["digest"] is not None and old["digest"] == new["digest"]
        differs |= not same or old["status"] != new["status"]
        print(f"{old['workload']:10} {old['market']:>8}  {old['status']!s:>6}  "
              f"{new['status']!s:>6}  {'equal' if same else 'differs':7}  "
              f"{old['minflt']!s:>13}  {new['minflt']!s:>6}")
    solved = [(o["summary"], n["summary"]) for o, n in zip(*runs)
              if o["summary"] is not None and n["summary"] is not None]
    timing = re.compile(r"^(wall_|timestamp$)")
    sections = (
        ("summary leaves (strip_meta)",
         [({k: v for k, v in o.items() if k != "meta"},
           {k: v for k, v in n.items() if k != "meta"}) for o, n in solved]),
        ("meta counters",
         [tuple({k: v for k, v in s["meta"].items() if not timing.match(k)}
                for s in pair) for pair in solved]))
    for title, pairs in sections:
        moved = moved_leaves(pairs)
        print(f"\n{title}: {len(moved)} moved, of {len(pairs)} markets")
        for path, (count, largest) in sorted(moved.items()):
            print(f"  {path:45} {count:3} markets  largest relative change {largest:.3g}")
    return 1 if differs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_markets(sys.argv[2])
    else:
        sys.exit(main())
