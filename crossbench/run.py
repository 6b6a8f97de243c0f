"""Cross-validation benchmark for reflectedwalk.

Run from the repository root:

    python3 crossbench/run.py --workload crossval-std --seed 1 --seconds 40 --trace 0

One process, one Python thread, closed loop: each pass runs the workload's
op list once, and every op's output is checked against an independent
reference.  One untimed warm-up pass runs first.  ``--trace 0`` prints the
end-to-end metrics (setup_s, pass_s, peak_rss_mb); ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and span
dumps go to crossbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

IMPORT_RUNS = 3     # timed fresh interpreters, after one discarded warm-up
MIN_PASSES = 3      # per measured series, whatever --seconds says
WARMUP_PASSES = 1   # checked and counted, not timed: lazy imports and caches fill
CHILD = (
    "import sys, time\n"
    "sys.stderr.write('crossbench: import starts\\n'); sys.stderr.flush()\n"
    "t = time.perf_counter()\n"
    "import reflectedwalk.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_tree(stderr: str):
    """(total, scipy) seconds from ``-X importtime`` lines after the marker.

    Lines come in post-order, indented by depth.  scipy's share is the
    cumulative time of every scipy module whose importer is not scipy.
    """
    lines = stderr.split("crossbench: import starts\n", 1)[1].splitlines()
    rows = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if cumulative.strip() == "cumulative":
            continue
        depth = len(name) - len(name.lstrip())
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    top = min(depth for depth, _, _ in rows)
    total = sum(cum for depth, cum, _ in rows if depth == top)
    scipy = 0.0
    for i, (depth, cum, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        importer = next((n for d, _, n in rows[i + 1 :] if d < depth), "")
        if importer.split(".")[0] != "scipy":
            scipy += cum
    return total, scipy


def fresh_imports(root: Path, importtime: bool):
    """Time ``import reflectedwalk.cli`` in fresh interpreters."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", CHILD]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(IMPORT_RUNS + 1):
        child = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                               timeout=120, check=True)
        samples.append((float(child.stdout.strip().splitlines()[-1]),
                        *(import_tree(child.stderr) if importtime else ())))
    return samples[1:]


def run_pass(ops, pass_no, tracer, failures) -> int:
    """Attempt every op once; record failures; return how many failed."""
    failed = 0
    for op in ops:
        if tracer is not None:
            tracer.op, tracer.pass_no = op.name, pass_no
        why = op.attempt()
        if why is not None:
            failed += 1
            failures.setdefault(op.name, (why, op.known_fault))
    return failed


def measure(ops, seconds, tracer=None):
    """Warm-up, then passes until --seconds would be overrun (at least
    MIN_PASSES per series).

    With a tracer, timed passes alternate untraced (even) and traced (odd).
    Returns the untraced and traced pass times, failed ops and failures.
    """
    plain, traced, failures = [], [], {}
    failed = sum(run_pass(ops, None, None, failures) for _ in range(WARMUP_PASSES))
    start = time.perf_counter()
    while True:
        pass_no = len(plain) + len(traced)
        tracing = tracer is not None and pass_no % 2 == 1
        t0 = time.perf_counter()
        if tracing:
            with tracer.installed():
                failed += run_pass(ops, pass_no, tracer, failures)
        else:
            failed += run_pass(ops, pass_no, None, failures)
        (traced if tracing else plain).append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and elapsed + elapsed / (pass_no + 1) > seconds:
            break
    return plain, traced, failed, failures


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("crossval-std", "heavy-traffic", "point-eval"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "reflectedwalk" / "__init__.py").is_file():
        print("crossbench: src/reflectedwalk not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    warnings.filterwarnings("ignore", message=r"P\(A=0\) = 0", category=UserWarning)

    imports = fresh_imports(root, importtime=bool(args.trace))
    import workloads  # after sys.path holds src: it imports reflectedwalk
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is None:
        ops, build_s = workloads.build(args.workload, args.seed)
    else:
        tracer.op = "setup"
        with tracer.installed():
            ops, build_s = workloads.build(args.workload, args.seed)
    plain, traced, failed, failures = measure(ops, args.seconds, tracer)
    attempted = len(ops) * (WARMUP_PASSES + len(plain) + len(traced))

    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(s[0] for s in imports) + build_s, "s"),
            "pass_s": metric(statistics.median(plain), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_passes = [p for p in range(len(plain) + len(traced)) if p % 2 == 1]
        layer = tracer.layer_metrics(traced_passes)
        metrics = {name: metric(value, "s" if name.endswith(".s") else "count")
                   for name, value in layer.items()}
        metrics["import.total_s"] = metric(statistics.median(s[1] for s in imports), "s")
        metrics["import.scipy_s"] = metric(statistics.median(s[2] for s in imports), "s")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(plain), "s")

    correct = all(known for _, known in failures.values())
    out_dir = root / "crossbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(out_dir / f"spans-{stem}.jsonl")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "passes": plain + traced,
         "failures": {op: why for op, (why, _) in failures.items()}}, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {WARMUP_PASSES} warm-up and "
          f"{len(plain) + len(traced)} timed passes of {len(ops)} ops; "
          f"attempted {attempted}, failed {failed}")
    for op, (why, known) in sorted(failures.items()):
        print(f"  failed op {op}: {why}" + (f" [known fault: {known}]" if known else ""))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
