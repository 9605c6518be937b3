"""lithovid benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lithovid checkout; lithovid is imported from its
``src``. Inputs come from --seed only. The benchmark runs the set-up
commands three times (each in a fresh process), lays out the inputs,
then measures one timed region in a fresh process for --seconds. With
--trace 1 it measures a second, traced timed region as well and reports
the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Scratch files go to
``.perfbench_work/<workload>``; the generated inputs are removed at the end.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads
from checks import CheckFailed, tree_digest

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170  # the whole run, children included


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy

    def proc_field(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def child(cfg: dict, work: Path, tag: str, root: Path, deadline: float) -> dict:
    """Run timed.py on cfg in a fresh interpreter and return its result."""
    cfg_path = work / f"{tag}.config.json"
    result_path = work / f"{tag}.result.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("LITHO_WORKERS", None)
    with open(work / f"{tag}.log", "w") as log:
        proc = subprocess.run([sys.executable, str(HERE / "timed.py"), str(cfg_path),
                               str(result_path)], cwd=root, env=env, stdout=log,
                              stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        tail = (work / f"{tag}.log").read_text()[-4000:]
        raise RuntimeError(f"{tag} exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                  w: workloads.Workload | None = None) -> dict:
    """Measure one workload: metric values, report lines and failed checks."""
    deadline = time.monotonic() + TIME_LIMIT_S
    w = w or workloads.WORKLOADS[workload]
    work = root / ".perfbench_work" / w.name
    workloads.remove(work)
    work.mkdir(parents=True)
    try:
        return _measure(w, seed, seconds, trace, root, work, deadline)
    finally:  # the inputs are large; keep only logs, results and timelines
        workloads.remove(work / "inputs")
        for r in range(SETUP_REPEATS):
            workloads.remove(work / f"setup_{r}")


def _measure(w: workloads.Workload, seed: int, seconds: float, trace: bool, root: Path,
             work: Path, deadline: float) -> dict:
    problems: list[str] = []
    sizes = dataclasses.asdict(w.sizes)
    setup_times, setup_dumps, digests = [], [], set()
    for r in range(SETUP_REPEATS):
        out = work / f"setup_{r}"
        out.mkdir()
        res = child({"mode": "setup", "workload": w.name, "sizes": sizes, "trace": trace,
                     "commands": workloads.setup_commands(w, seed, out)},
                    work, f"setup_{r}", root, deadline)
        if any(rc != 0 for rc in res["rcs"]):
            raise RuntimeError(f"set-up command exited {res['rcs']}; see {work}/setup_{r}.log")
        setup_times.append(res["setup_s"])
        setup_dumps.append(res.get("trace"))
        digests.add(tree_digest(out))
    if len(digests) != 1:
        problems.append("set-up repeats wrote different bytes")
    for r in range(1, SETUP_REPEATS):
        workloads.remove(work / f"setup_{r}")

    videos = workloads.prepare_inputs(w, seed, work / "setup_0", work / "inputs")
    workloads.flush_to_disk(work)
    cfg = {"mode": "timed", "workload": w.name, "sizes": sizes, "seconds": seconds,
           "trace": False, "videos": videos, "model": str(work / "setup_0" / "model.json"),
           "calibration": str(work / "setup_0" / "calibration.json"),
           "work": str(work / "untraced")}
    untraced = child(cfg, work, "untraced", root, deadline)
    runs = [untraced]
    if trace:
        traced = child(dict(cfg, trace=True, work=str(work / "traced")), work, "traced", root,
                       deadline)
        runs.append(traced)
        if traced.get("digest") != untraced.get("digest"):
            problems.append("traced and untraced outputs differ")
    for run in runs:
        if "error" in run:
            problems.append(run["error"])
        problems += [f"{s['video']} pass {s['pass']}: {s.get('error', 'exit %d' % s['rc'])}"
                     for s in run["samples"] if s["rc"] != 0 or "error" in s]

    result = runs[-1]
    report = {"machine": machine_record(seed), "outputs_sha256": untraced.get("digest"),
              "video_samples": len(result["samples"])}
    values = {"end_to_end": metrics.end_to_end(untraced, setup_times), "per_layer": {}}
    if trace:
        stats = metrics.SpanStats(setup_dumps + [traced["trace"]])
        missing = sorted(workloads.EXPECTED_SPANS[w.name] - stats.names())
        if missing:
            raise RuntimeError(f"traced run recorded no call of: {', '.join(missing)}")
        if "quality" in traced:
            values["per_layer"] = metrics.per_layer(stats, traced, untraced)
        report["spans_seen"] = sorted(stats.names())
    failed = sum(1 for s in result["samples"] if s["rc"] != 0 or "error" in s)
    return {"correct": not problems, "attempted": len(result["samples"]), "failed": failed,
            "values": values, "report": report, "problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lithovid" / "__init__.py").is_file():
        print(f"error: {root} is not a lithovid checkout (no src/lithovid)", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    specs = benchmark[section]
    values = out["values"][section]
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing and out["correct"]:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for key, value in out["report"].items():
        print(f"{key}: {json.dumps(value)}")
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    metrics_out = {}
    for spec in specs:
        if spec["name"] in values:
            value = values[spec["name"]]
            metrics_out[spec["name"]] = {"value": value, "unit": spec["unit"]}
            print(f"{spec['name']:<56} {value:>14.6g} {spec['unit']:<8} "
                  f"({spec['better']} is better)")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
