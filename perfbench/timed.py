"""Child process of the benchmark: one set-up repeat or one timed region.

    python3 perfbench/timed.py CONFIG.json RESULT.json

run.py starts one child per set-up repeat and per timed region, so that
each set-up starts cold and the peak RSS of a timed region is its own.
lithovid is imported from PYTHONPATH, which run.py points at the
checkout's ``src``.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from checks import CheckFailed
from spans import Tracer


def main(config_path: str, result_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    w = dataclasses.replace(workloads.WORKLOADS[cfg["workload"]],
                            sizes=workloads.Sizes(**cfg["sizes"]))
    from lithovid import cli

    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install()
        tracer.phase = cfg["mode"]
    result: dict = {}
    if cfg["mode"] == "setup":
        t0 = time.perf_counter()
        result["rcs"] = [cli.main(argv) for argv in cfg["commands"]]
        result["setup_s"] = time.perf_counter() - t0
    else:
        loop = workloads.run_videos if w.on_disk else workloads.run_ablation_passes
        run = loop(w, cfg, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["wall_s"] = run["wall_s"]
        result["samples"] = run["samples"]
        if tracer:
            tracer.phase = "post"
        try:
            files, quality = workloads.timed_outputs(w, cfg, run)
            if tracer:
                tracer.uninstall()  # the untimed no-qc pass is not traced
                if w.on_disk:
                    quality["no-qc"] = workloads.no_qc_quality(w, cfg)
            result["digest"] = workloads.outputs_digest(files)
            result["quality"] = quality
        except CheckFailed as exc:
            result["error"] = str(exc)
    if tracer:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
