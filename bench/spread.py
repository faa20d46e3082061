"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/spread.py --seeds 1 2 3 4 5 [--workloads NAME ...]
                            [--trace-seeds 1 2 3] [--out bench/baseline.json]

Runs are sequential, one process each, from the checkout root, with the
``run_seconds`` of BENCHMARK.json.  For every (workload, metric) pair it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``,
the sample count and the spread (quartile distance over the median), and
flags an end-to-end spread that is not below a third of the metric's bound.
``--out`` writes the same summary as JSON, with the environment of each
workload's first run; when the file exists, only the workloads run now are
replaced.  This is how ``baseline.json`` was recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {record['problems']}")
    return result, record


def summarize(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / abs(med) if med else 0.0)
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[])
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary, steady = {}, True
    for workload in args.workloads:
        entry = summary.setdefault(workload, {})
        env = None
        for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
            if not seeds:
                continue
            values: dict = {}
            digests, probes, fail_ratios = [], [], []
            for seed in seeds:
                result, record = run_once(workload, seed, spec["run_seconds"], trace)
                env = env or record["env"]
                entry["env"] = env
                digests.append(record["input_digest"])
                probes.append(record["host_probe_ms"])
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                fail_ratios.append(record["fail_ratio"])
                print(f"{workload} seed {seed} trace {trace}: host_probe_ms={probes[-1]:.4g}, "
                      + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items())
                      + f", fail_ratio={fail_ratios[-1]:.6g}", flush=True)
            entry[key] = {name: summarize(vals) for name, vals in values.items()}
            entry[f"{key}_seeds"] = list(seeds)
            entry[f"{key}_digests"] = digests
            entry[f"{key}_host_probe_ms"] = summarize(probes)
            entry[f"{key}_fail_ratio"] = max(fail_ratios)
        if "end_to_end_host_probe_ms" in entry:
            probe = entry["end_to_end_host_probe_ms"]
            print(f"{workload:17s} host probe   median {probe['median']:.4g} ms  spread {probe.get('spread', 0.0):.4f}")
        for name, s in entry.get("end_to_end", {}).items():
            limit = bounds[name] / 3
            flag = ""
            if name != "setup_s" and s.get("spread", 0.0) >= limit:
                flag, steady = "  <-- not below a third of the bound", False
            print(f"{workload:17s} {name:12s} median {s['median']:.6g}  spread {s.get('spread', 0.0):.4f} "
                  f"(bound/3 {limit:.4f}, n={s['n']}){flag}")
    if args.out:
        out = Path(args.out)
        payload = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
        payload["run_seconds"] = spec["run_seconds"]
        payload["workloads"].update(summary)
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
