"""Traced run: the benchmark pipeline in-process, with a span around every
call into each layer's public functions.

    python3 perfbench/trace.py --workload bdd-mask --inputs DIR --out DIR --seconds 20

Runs the pipeline through ``drivearea.cli.main(..., standalone_mode=False)``
alternately without and with tracing (at least once and twice) until
``--seconds`` pass, and prints one JSON line with the per-layer metrics,
the operations attempted and failed, and the problems found. Needs ``src``
on PYTHONPATH.

Wrappers are installed where each function is defined and wherever a module
imported it by name (``metrics`` and ``synth`` import geometry functions
that way). Spans stay in memory until the run ends. A span's self time is
its duration minus the time its child spans cover. The span of the
``read_predictions`` generator runs from its first item to its last, so it
also holds the consumer's time between items; ``cli.eval`` only collects
them into a list.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import statistics
import time
import traceback
from pathlib import Path

import pipeline
from drivearea import cli, dataset, geometry, metrics, synth

LAYERS = {
    dataset: ("parse_labels", "filter_drivable", "write_normalized"),
    geometry: ("rasterize_polygon", "rle_encode", "rle_decode", "mask_iou", "box_iou", "mask_to_bbox"),
    metrics: ("read_predictions", "match_detections", "precision_recall", "average_precision",
              "evaluate", "report_to_json", "report_to_csv"),
}
IMPORTERS = (cli, dataset, geometry, metrics, synth)


def _input_bytes(args) -> int:
    raw = args[0]
    return os.fstat(raw.fileno()).st_size if hasattr(raw, "fileno") else len(raw)


# Amount recorded on a span: from the arguments before the call, or from
# the arguments and result after it.
BEFORE = {
    "rasterize_polygon": lambda args: len(getattr(args[0], "vertices", args[0])),
    "parse_labels": _input_bytes,
}
AFTER = {
    "write_normalized": lambda args, result: args[1].tell(),
    "match_detections": lambda args, result: sum(result.det_is_tp),
}


class Tracer:
    """Spans as [name, start, end, parent index, run id, amount]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str, amount=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run, amount])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int, amount=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        if amount is not None:
            self.spans[idx][5] = amount
        self._stack.pop()

    def _wrap(self, name: str, fn):
        before, after = BEFORE.get(fn.__name__), AFTER.get(fn.__name__)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                idx = self.open(name)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    self.close(idx, n)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, before(args) if before else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, after(args, result) if after and result is not None else None)
        return traced

    def install(self) -> None:
        for module, names in LAYERS.items():
            for fname in names:
                orig = getattr(module, fname)
                wrapped = self._wrap(f"{module.__name__.split('.')[-1]}.{fname}", orig)
                for m in IMPORTERS:
                    if getattr(m, fname, None) is orig:
                        setattr(m, fname, wrapped)
                        self._patched.append((m, fname, orig))

    def uninstall(self) -> None:
        for m, fname, orig in reversed(self._patched):
            setattr(m, fname, orig)
        self._patched.clear()


def run_command(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="drivearea", standalone_mode=False)
            rc = 0
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def percentiles(durations_s: list[float], prefix: str) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = sorted(d * 1e3 for d in durations_s)
    n = len(ms)

    def at(q: float) -> float:
        return ms[max(0, -(-int(q * n) // 100) - 1)] if n else 0.0

    phi_q = next((q for q in (99.9, 99, 95, 90, 75, 50) if n * (100 - q) / 100 >= 10), 0)
    return {f"{prefix}.p50_ms": at(50), f"{prefix}.phi_ms": at(phi_q) if phi_q else 0.0,
            f"{prefix}.phi_q": float(phi_q), f"{prefix}.samples": float(n)}


def run_counts(spans: list[list]) -> dict[str, int]:
    """Everything in one run that must repeat exactly: calls and amounts."""
    counts: dict[str, int] = {}
    for name, _, _, _, _, amount in spans:
        counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        if name == "geometry.rasterize_polygon":
            key = f"{name}.{pipeline.vertex_bucket(amount)}.calls"
            counts[key] = counts.get(key, 0) + 1
        elif amount is not None:
            counts[f"{name}.amount"] = counts.get(f"{name}.amount", 0) + amount
    return counts


def layer_metrics(tracer: Tracer, runs: list[int], expect: dict,
                  bytes_written: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics over the traced ``runs``, and the first run's counts."""
    selfs = self_times(tracer.spans)
    per_run_self: dict[str, dict[int, float]] = {}
    per_call: dict[str, list[float]] = {}
    for span, self_s in zip(tracer.spans, selfs):
        name, start, end, _, run, amount = span
        per_run_self.setdefault(name, {}).setdefault(run, 0.0)
        per_run_self[name][run] += self_s
        if name == "geometry.rasterize_polygon":
            per_call.setdefault(f"{name}.{pipeline.vertex_bucket(amount)}", []).append(end - start)
        elif name == "geometry.mask_iou":
            per_call.setdefault(name, []).append(end - start)
    counts = run_counts([s for s in tracer.spans if s[4] == runs[0]])

    def self_s(name: str) -> float:
        return statistics.median(per_run_self.get(name, {}).get(r, 0.0) for r in runs)

    m: dict[str, float] = {}
    for name, unit in pipeline.PER_LAYER.items():
        if name.endswith(".calls"):
            m[name] = counts.get(name, 0)
        elif name.endswith(".self_s"):
            m[name] = self_s(name[: -len(".self_s")])
    for b in pipeline.VERTEX_BUCKETS:
        key = f"geometry.rasterize_polygon.{b}"
        m.update(percentiles(per_call.get(key, []), key))
    m.update(percentiles(per_call.get("geometry.mask_iou", []), "geometry.mask_iou"))

    e = expect["eval"]
    pairs = counts.get("geometry.mask_iou.calls", 0) + counts.get("geometry.box_iou.calls", 0)
    tps = counts.get("metrics.match_detections.amount", 0)
    read_s = m["metrics.read_predictions.self_s"]
    parse_s = m["dataset.parse_labels.self_s"]
    m.update({
        "geometry.rasterize_polygon.calls_per_gt": m["geometry.rasterize_polygon.calls"] / e["n_gt"],
        "metrics.iou_pairs_per_det": pairs / e["n_detections"],
        "metrics.tp_per_iou_pair": tps / pairs if pairs else 0.0,
        "metrics.read_predictions.dets_per_s": e["n_detections"] / read_s if read_s else 0.0,
        "dataset.parse_labels.mb_per_s":
            counts.get("dataset.parse_labels.amount", 0) / 2**20 / parse_s if parse_s else 0.0,
        "dataset.write_normalized.bytes": counts.get("dataset.write_normalized.amount", 0),
        **{f"cli.{cmd}.bytes_written": n for cmd, n in bytes_written.items()},
    })
    return m, counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    expect = json.loads((args.inputs / pipeline.META).read_text(encoding="utf-8"))["expect"]
    commands = pipeline.command_args(args.workload, args.inputs, args.out)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_runs: list[int] = []
    first_digest: dict[str, str] = {}
    bytes_written: dict[str, int] = {}
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        n_plain, n_traced = len(walls[False]), len(walls[True])
        if n_plain >= 1 and n_traced >= 2:
            estimate = statistics.median(walls[False] + walls[True])
            if time.perf_counter() - start + estimate > args.seconds:
                break
        trace = 0 < n_plain and n_traced < 2 * n_plain
        tracer.run = len(walls[False]) + len(walls[True])
        pipeline.clear_outputs(args.out)
        if trace:
            tracer.install()
        t0 = time.perf_counter()
        for cmd in pipeline.COMMANDS:
            idx = tracer.open(f"cli.{cmd}") if trace else None
            rc, stdout, stderr = run_command(commands[cmd])
            if trace:
                tracer.close(idx)
            attempted += 1
            found = pipeline.verify(cmd, rc, stdout, stderr, expect, args.out, first_digest)
            if found:
                failed += 1
                problems.extend(found)
            else:
                bytes_written[cmd] = pipeline.output_bytes(pipeline.output_paths(args.out)[cmd])
        walls[trace].append(time.perf_counter() - t0)
        if trace:
            tracer.uninstall()
            traced_runs.append(tracer.run)

    m, counts = layer_metrics(tracer, traced_runs, expect, bytes_written)
    for run in traced_runs[1:]:
        again = run_counts([s for s in tracer.spans if s[4] == run])
        if again != counts:
            failed += 1
            changed = sorted(k for k in set(again) | set(counts) if again.get(k) != counts.get(k))
            problems.append(f"traced run {run}: counts differ from the first traced run: {changed}")
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    m.update({"trace.runs": len(traced_runs), "trace.untraced_s": untraced,
              "trace.traced_s": traced, "trace.overhead_s": traced - untraced})
    print(json.dumps({"metrics": m, "attempted": attempted, "failed": failed, "problems": problems}))


if __name__ == "__main__":
    main()
