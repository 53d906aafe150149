"""drivearea benchmark: the CLI pipeline on generated BDD-shaped workloads.

    python3 perfbench/run.py --workload bdd-mask --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/drivearea``). Inputs
are generated from ``--seed`` by ``gen.py`` in a child process and cached
under ``.perfbench_work/``. With ``--trace 0`` each iteration runs
``drivearea --help`` (the set-up probe), ``preprocess``, ``rasterize`` and
``eval`` as separate CLI processes, timed with their own peak RSS, until
``--seconds`` have passed; the end-to-end metrics are medians over
iterations, and ``setup_s`` also counts the probes made before the loop. With ``--trace 1`` ``trace.py`` runs
the same pipeline in-process with spans around each layer and reports the
per-layer metrics. Every result is checked against the generator's counts,
and once per run against ``synth.oracle_map`` and a per-pixel rasterizer
oracle. The last line of standard output is the JSON result; the line
before it holds the environment, input properties and raw samples.

This process imports only the standard library and never reads workload
data: on Linux a spawned child's peak RSS includes its parent's RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI = [sys.executable, "-c", "from drivearea.cli import main; main()"]
SETUP_PROBES = 4
MIN_ITERATIONS = 3
CACHED_INPUTS_PER_WORKLOAD = 3
ORACLE_TOLERANCE = 1e-9


class Runner:
    """Spawns children with ``src`` on their path and reads their own rusage."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], name: str) -> tuple[float, int, float, str, str]:
        """(wall seconds, exit code, peak RSS in MiB, stdout, stderr) of one child."""
        out_path, err_path = self.logs / f"{name}.out", self.logs / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "drivearea").glob("*.py")) + [HERE / "gen.py", HERE / "pipeline.py"]:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def ensure_inputs(runner: Runner, workload: str, seed: int, src_digest: str) -> Path:
    """Generated inputs, cached by workload, seed, generator version and source."""
    cache = WORK / "inputs"
    final = cache / f"{workload}-s{seed}-g{pipeline.GEN_VERSION}-{src_digest[:12]}"
    if (final / pipeline.META).is_file():
        final.touch()
        return final
    tmp = cache / f"tmp-{os.getpid()}-{final.name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    _, rc, _, _, err = runner.spawn(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(tmp)], "gen")
    if rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"input generation failed ({rc}): {err.strip()[-500:]}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    old = sorted(cache.glob(f"{workload}-s*"), key=lambda p: p.stat().st_mtime)
    for stale in old[:-CACHED_INPUTS_PER_WORKLOAD]:
        shutil.rmtree(stale, ignore_errors=True)
    return final


def probe_setup(runner: Runner, setup: dict) -> None:
    """Adds the wall time and peak RSS of one ``drivearea --help`` to ``setup``."""
    wall, rc, peak, _, err = runner.spawn(CLI + ["--help"], "noop")
    if rc != 0:
        raise RuntimeError(f"drivearea --help failed ({rc}): {err.strip()[-500:]}")
    setup["wall_s"].append(wall)
    setup["rss_mb"].append(peak)


def timed_pipeline(runner: Runner, workload: str, inputs: Path, out: Path, expect: dict,
                   seconds: float, setup: dict) -> tuple[dict, int, int, list[str]]:
    """Iterations of the CLI pipeline until ``seconds`` pass (at least
    MIN_ITERATIONS), each after one set-up probe, so that set-up time is
    sampled across the run like the commands. Returns the set-up samples
    and the per-command samples of successful runs, the number of commands
    run and failed, and the problems found."""
    args = pipeline.command_args(workload, inputs, out)
    samples = {"setup": setup, **{cmd: {"wall_s": [], "rss_mb": []} for cmd in pipeline.COMMANDS}}
    first_digest: dict[str, str] = {}
    problems: list[str] = []
    attempted = failed = 0
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pipeline.clear_outputs(out)
        probe_setup(runner, setup)
        for cmd in pipeline.COMMANDS:
            wall, rc, rss, stdout, stderr = runner.spawn(CLI + args[cmd], cmd)
            attempted += 1
            found = pipeline.verify(cmd, rc, stdout, stderr, expect, out, first_digest)
            if found:
                failed += 1
                problems.extend(found)
                continue
            samples[cmd]["wall_s"].append(wall)
            samples[cmd]["rss_mb"].append(rss)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_ITERATIONS and elapsed + statistics.median(durations) > seconds:
            return samples, attempted, failed, problems


def end_to_end(samples: dict, expect: dict) -> dict[str, float]:
    def rate(cmd: str, items: int) -> float:
        walls = samples[cmd]["wall_s"]
        return items / statistics.median(walls) if walls else 0.0

    def rss(cmd: str) -> float:
        return statistics.median(samples[cmd]["rss_mb"]) if samples[cmd]["rss_mb"] else 0.0

    n_images = expect["eval"]["n_images"]
    return {
        "setup_s": statistics.median(samples["setup"]["wall_s"]),
        "preprocess_frames_per_s": rate("preprocess", expect["preprocess"]["total_in"]),
        "rasterize_images_per_s": rate("rasterize", n_images),
        "eval_images_per_s": rate("eval", n_images),
        "preprocess_peak_rss_mb": rss("preprocess"),
        "rasterize_peak_rss_mb": rss("rasterize"),
        "eval_peak_rss_mb": rss("eval"),
    }


def traced(runner: Runner, workload: str, inputs: Path, out: Path,
           seconds: float) -> tuple[dict, int, int, list[str]]:
    _, rc, _, stdout, stderr = runner.spawn(
        [sys.executable, str(HERE / "trace.py"), "--workload", workload, "--inputs", str(inputs),
         "--out", str(out), "--seconds", str(seconds)], "trace")
    if rc != 0:
        return {}, 1, 1, [f"traced run: exit code {rc}: {stderr.strip()[-500:]}"]
    result = json.loads(stdout.strip().splitlines()[-1])
    return result["metrics"], result["attempted"], result["failed"], result["problems"]


def input_metrics(meta: dict) -> dict[str, float]:
    props, timings = meta["properties"], meta["timings"]
    return {
        **{f"input.gt_polys_{b}": props["gt_vertex_hist"][b] for b in pipeline.VERTEX_BUCKETS},
        "input.raw_frames": meta["expect"]["preprocess"]["total_in"],
        "input.raw_polys": sum(props["raw_vertex_hist"].values()),
        "input.dets_per_image": props["dets_per_image"],
        "input.strata_filled": props["strata_filled"],
        "input.raw_bytes": props["bytes"][pipeline.RAW],
        "input.labels_bytes": props["bytes"][pipeline.LABELS],
        "input.preds_bytes": props["bytes"][pipeline.PREDS],
        "synth.generate_s": timings["generate_s"],
        "synth.oracle_map_s": timings["oracle_map_s"],
    }


def slice_check(runner: Runner, workload: str, inputs: Path, out: Path, want: dict) -> tuple[dict, list[str]]:
    """eval on the correctness slice must agree with ``synth.oracle_map``."""
    _, rc, _, _, err = runner.spawn(CLI + pipeline.slice_eval_args(workload, inputs, out), "slice")
    if rc != 0:
        return {}, [f"slice eval: exit code {rc}: {err.strip()[-300:]}"]
    report = json.loads((out / "slice_report.json").read_text(encoding="utf-8"))
    problems = [f"slice eval: {key} is {report[key]}, expected {want[key]}"
                for key in ("n_images", "n_gt", "n_detections") if report[key] != want[key]]
    if abs(report["map"] - want["oracle_map"]) > ORACLE_TOLERANCE:
        problems.append(f"slice eval: map {report['map']!r} != oracle_map {want['oracle_map']!r}")
    return {"map": report["map"], "oracle_map": want["oracle_map"]}, problems


def rle_check(runner: Runner, inputs: Path, out: Path) -> tuple[dict, list[str]]:
    """Sampled rows of the last rasterize output against a per-pixel oracle."""
    _, rc, _, stdout, err = runner.spawn(
        [sys.executable, str(HERE / "check.py"), "--labels", str(inputs / pipeline.LABELS),
         "--masks", str(out / "masks")], "check")
    if rc != 0:
        return {}, [f"rle row check: exit code {rc}: {err.strip()[-300:]}"]
    rows = json.loads(stdout.strip().splitlines()[-1])
    return rows, rows["mismatches"]


def environment(seed: int, src_digest: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": src_digest,
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="drivearea CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "drivearea" / "cli.py").is_file():
        print(f"error: no drivearea sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out, logs = run_dir / "out", run_dir / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    try:
        runner = Runner(logs)
        src_digest = source_digest()
        inputs = ensure_inputs(runner, args.workload, args.seed, src_digest)
        meta = json.loads((inputs / pipeline.META).read_text(encoding="utf-8"))
        setup = {"wall_s": [], "rss_mb": []}
        for _ in range(SETUP_PROBES):
            probe_setup(runner, setup)
        samples = {}
        if args.trace:
            metrics, attempted, failed, problems = traced(
                runner, args.workload, inputs, out, args.seconds)
            metrics.update(input_metrics(meta))
            metrics["cli.noop_peak_rss_mb"] = statistics.median(setup["rss_mb"])
            units = pipeline.PER_LAYER
        else:
            samples, attempted, failed, problems = timed_pipeline(
                runner, args.workload, inputs, out, meta["expect"], args.seconds, setup)
            metrics = end_to_end(samples, meta["expect"])
            units = pipeline.END_TO_END
        slice_seen, slice_problems = slice_check(
            runner, args.workload, inputs, out, meta["expect"]["slice"])
        rle_seen, rle_problems = rle_check(runner, inputs, out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    problems += slice_problems + rle_problems
    attempted += 2
    failed += bool(slice_problems) + bool(rle_problems)
    missing = sorted(set(units) - set(metrics))
    problems += [f"metric {name} not measured" for name in missing]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed, src_digest),
        "inputs": meta["properties"],
        "expect": meta["expect"],
        "setup": {"setup_s": statistics.median(setup["wall_s"]),
                  "noop_peak_rss_mb": statistics.median(setup["rss_mb"]),
                  "probes": len(setup["wall_s"])},
        "samples": samples,
        "checks": {"slice": slice_seen, "rle_rows": rle_seen},
        "problems": problems,
    }
    print(json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
