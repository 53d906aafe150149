"""Batch command-line front end.

Workflow mirrors the preprocessing-then-evaluation pipeline: ``preprocess``
normalizes annotation files, ``rasterize`` exports class masks, an external
model produces a predictions JSONL, and ``eval`` scores it with stratified
reports. ``synth``, ``anchors`` and ``roi-demo`` exercise the synthetic
generator and the proposal geometry.

Exit codes: 0 success, 1 internal error, 2 bad input or flags.
"""

from __future__ import annotations

import json
import logging
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import dataset, geometry, metrics, proposals, synth
from .errors import DimensionMismatch, DriveAreaError, IoFailure, OutputCollision

log = logging.getLogger(__name__)


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


@contextmanager
def _writing_outputs():
    """Report a failed write of an output file as IoFailure, exit 2."""
    try:
        yield
    except OSError as exc:
        _fail(IoFailure(f"cannot write output: {exc}"))


def _refuse_collisions(inputs: dict[str, Path], outputs: dict[str, Path | None]) -> None:
    """Fail with OutputCollision, before anything is written, when an output
    resolves to an input file or to another output."""
    seen = {path.resolve(): name for name, path in inputs.items()}
    for name, path in outputs.items():
        if path is not None and seen.setdefault(path.resolve(), name) != name:
            _fail(OutputCollision(f"{name} {path} is the same file as {seen[path.resolve()]}"))


def _parse_dims(_ctx, _param, value: str) -> tuple[int, int]:
    try:
        w, h = value.lower().split("x")
        dims = (int(w), int(h))
    except ValueError:
        raise click.BadParameter(f"expected WxH, got {value!r}")
    if not all(0 < d <= dataset._MAX_SIDE for d in dims):
        raise click.BadParameter(f"dimensions must be in 1..{dataset._MAX_SIDE}")
    return dims


def _parse_iou_threshold(_ctx, _param, value: float) -> float:
    try:
        return metrics.MatchConfig(iou_threshold=value).iou_threshold
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _parse_floats(_ctx, _param, value: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {value!r}")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Drivable-area annotation, geometry, and evaluation tooling."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _load_index(path: Path, default_dims: tuple[int, int]) -> dataset.DatasetIndex:
    try:
        with open(path, "rb") as fh:
            return dataset.parse_labels(fh, default_dims=default_dims)
    except DriveAreaError as exc:
        _fail(exc)


@main.command()
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
@click.option("--default-dims", default="1280x720", callback=_parse_dims, show_default=True)
@click.option("--keep-empty", is_flag=True, help="Keep images without drivable regions.")
def preprocess(labels: Path, out: Path, default_dims: tuple[int, int], keep_empty: bool) -> None:
    """Normalize an annotation file, dropping unlabeled images."""
    _refuse_collisions({"--labels": labels}, {"--out": out})
    index = _load_index(labels, default_dims)
    if keep_empty:
        filtered, report = index, dataset.DropReport(
            total_in=len(index), kept=len(index), dropped_ids=(), drop_fraction=0.0
        )
    else:
        filtered, report = dataset.filter_drivable(index)
    with _writing_outputs(), open(out, "wb") as fh:
        written = dataset.write_normalized(filtered, fh)
    click.echo(
        json.dumps(
            {
                "total_in": report.total_in,
                "kept": report.kept,
                "dropped": len(report.dropped_ids),
                "drop_fraction": report.drop_fraction,
                "dropped_unlabeled": report.dropped_unlabeled,
                "dropped_all_rejected": report.dropped_all_rejected,
                "dropped_ids": list(report.dropped_ids),
                "parse_warnings": index.parse_warnings,
                "records_written": written,
            },
            separators=(",", ":"),
        ),
        err=True,
    )


@main.command()
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
@click.option("--format", "fmt", type=click.Choice(["rle", "pgm"]), default="rle", show_default=True)
@click.option("--default-dims", default="1280x720", callback=_parse_dims, show_default=True)
def rasterize(labels: Path, out: Path, fmt: str, default_dims: tuple[int, int]) -> None:
    """Rasterize polygons to one mask per (image, class): direct and alternative separately."""
    index = _load_index(labels, default_dims)
    # Plan every file first, so that a name collision or a frame too large
    # for a dense PGM writes nothing.
    jobs: dict[str, tuple[dataset.ImageRecord, list[dataset.PolygonLabel]]] = {}
    for record in index.records:
        for class_id, class_name in sorted(dataset.CLASS_NAMES.items()):
            polys = [p for p in record.labels if p.class_id == class_id]
            if not polys:
                continue
            # "/" and NUL are the two bytes a POSIX file name cannot hold
            stem = record.image_id.replace("/", "_").replace("\0", "_") + f".{class_name}"
            if stem in jobs:
                _fail(OutputCollision(
                    f"image ids {jobs[stem][0].image_id!r} and {record.image_id!r} "
                    f"both map to output file name {stem!r}"
                ))
            try:
                if fmt == "pgm":
                    geometry._check_dense(record.width, record.height)
            except DimensionMismatch as exc:
                _fail(DimensionMismatch(f"image {record.image_id!r}: {exc}"))
            jobs[stem] = (record, polys)
    with _writing_outputs():
        out.mkdir(parents=True, exist_ok=True)
        for stem, (record, polys) in jobs.items():
            mask = geometry.mask_union(
                [geometry.rasterize_polygon(p, record.width, record.height) for p in polys]
            )
            if fmt == "pgm":
                with open(out / f"{stem}.pgm", "wb") as fh:
                    geometry.write_pgm(mask, fh)
            else:
                payload = {"width": mask.width, "height": mask.height, "runs": list(mask.runs)}
                with open(out / f"{stem}.rle.json", "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(payload, separators=(",", ":")))
    click.echo(json.dumps({"written": len(jobs)}, separators=(",", ":")))


@main.command("eval")
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--predictions", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True, help="Report JSON path.")
@click.option("--csv", "csv_out", type=click.Path(dir_okay=False, path_type=Path), default=None, help="Optional flat CSV path.")
@click.option("--iou-threshold", type=float, default=0.5, callback=_parse_iou_threshold, show_default=True)
@click.option("--iou-kind", type=click.Choice(["box", "mask"]), default="box", show_default=True)
@click.option("--default-dims", default="1280x720", callback=_parse_dims, show_default=True)
@click.option("--strict-orphans", is_flag=True, help="Count detections for unknown images as false positives.")
@click.option("--stamp", is_flag=True, help="Embed a generation timestamp in the report.")
def cmd_eval(
    labels: Path,
    predictions: Path,
    out: Path,
    csv_out: Path | None,
    iou_threshold: float,
    iou_kind: str,
    default_dims: tuple[int, int],
    strict_orphans: bool,
    stamp: bool,
) -> None:
    """Score a predictions file against ground-truth labels."""
    _refuse_collisions(
        {"--labels": labels, "--predictions": predictions}, {"--out": out, "--csv": csv_out}
    )
    try:
        index = _load_index(labels, default_dims)
        filtered, _ = dataset.filter_drivable(index)
        cfg = metrics.MatchConfig(iou_threshold=iou_threshold, iou_kind=iou_kind)
        with open(predictions, "rb") as fh:  # read by lines, so errors have a line
            dets = metrics._read_columns(fh)
        report = metrics.evaluate(filtered, dets, cfg, strict_orphans=strict_orphans)
    except DriveAreaError as exc:
        _fail(exc)
    when = datetime.now(timezone.utc).isoformat() if stamp else None
    with _writing_outputs():
        out.write_text(metrics.report_to_json(report, stamp=when), encoding="utf-8")
        if csv_out is not None:
            csv_out.write_text(metrics.report_to_csv(report), encoding="utf-8")
    click.echo(f"map={report.map!r} images={report.n_images} gt={report.n_gt}", err=True)


@main.command("synth")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-images", type=int, default=10, show_default=True)
@click.option("--image-size", default="192x108", callback=_parse_dims, show_default=True)
@click.option("--lanes", default="1:3", show_default=True, help="Lane count range MIN:MAX.")
@click.option("--jitter", type=float, default=0.0, show_default=True)
@click.option("--drop-rate", type=float, default=0.0, show_default=True)
@click.option("--fp-rate", type=float, default=0.0, show_default=True)
@click.option("--score-noise", type=float, default=0.0, show_default=True)
@click.option("--out-labels", type=click.Path(dir_okay=False, path_type=Path), required=True)
@click.option("--out-predictions", type=click.Path(dir_okay=False, path_type=Path), required=True)
def cmd_synth(
    seed: int,
    n_images: int,
    image_size: tuple[int, int],
    lanes: str,
    jitter: float,
    drop_rate: float,
    fp_rate: float,
    score_noise: float,
    out_labels: Path,
    out_predictions: Path,
) -> None:
    """Write a synthetic annotation file plus matching corrupted predictions."""
    _refuse_collisions({}, {"--out-labels": out_labels, "--out-predictions": out_predictions})
    try:
        lo, _, hi = lanes.partition(":")
        lane_range = (int(lo), int(hi or lo))
    except ValueError:
        raise click.BadParameter(f"--lanes expects MIN:MAX, got {lanes!r}")
    try:
        params = synth.SynthParams(
            seed=seed,
            n_images=n_images,
            image_size=image_size,
            lanes_per_image=lane_range,
            jitter=jitter,
            drop_rate=drop_rate,
            fp_rate=fp_rate,
            score_noise=score_noise,
        )
        index, dets = synth.generate_suite(params)
    except (ValueError, DriveAreaError) as exc:
        _fail(exc)
    with _writing_outputs():
        with open(out_labels, "wb") as fh:
            dataset.write_normalized(index, fh)
        with open(out_predictions, "w", encoding="utf-8") as fh:
            metrics.write_predictions(dets, fh)
    click.echo(f"images={len(index)} detections={len(dets)}", err=True)


@main.command()
@click.option("--base-size", type=float, default=16.0, show_default=True)
@click.option("--scales", default="8", callback=_parse_floats, show_default=True,
              help="Comma-separated anchor scales; single-scale default keeps the demo small.")
@click.option("--ratios", default="0.5,1,2", callback=_parse_floats, show_default=True)
@click.option("--stride", type=float, default=16.0, show_default=True)
@click.option("--grid", default="3x4", callback=_parse_dims, show_default=True, help="Feature cells HxW.")
def anchors(
    base_size: float,
    scales: tuple[float, ...],
    ratios: tuple[float, ...],
    stride: float,
    grid: tuple[int, int],
) -> None:
    """Emit the anchor boxes for a feature grid as JSON on stdout."""
    try:
        cfg = proposals.AnchorConfig(
            base_size=base_size, scales=scales, ratios=ratios, feature_stride=stride
        )
        boxes = proposals.generate_anchors(cfg, grid)
    except ValueError as exc:
        _fail(exc)
    doc = {
        "config": {
            "base_size": base_size,
            "scales": list(scales),
            "ratios": list(ratios),
            "feature_stride": stride,
            "grid": list(grid),
        },
        "count": len(boxes),
        "anchors": [[b.x, b.y, b.w, b.h] for b in boxes],
    }
    click.echo(json.dumps(doc, separators=(",", ":")))


@main.command("roi-demo")
@click.option("--roi", default="7,7,32,32", show_default=True, help="Region x,y,w,h in image coordinates.")
@click.option("--scale", type=float, default=1 / 16, show_default=True)
@click.option("--output-size", default="2x2", callback=_parse_dims, show_default=True)
@click.option("--sampling-points", type=int, default=2, show_default=True)
@click.option("--grid", default="8x8", callback=_parse_dims, show_default=True, help="Demo feature grid HxW.")
@click.option("--field", type=click.Choice(["ramp", "constant"]), default="ramp", show_default=True)
@click.option("--fill-value", type=float, default=1.0, show_default=True, help="Cell value for --field constant.")
def roi_demo(
    roi: str,
    scale: float,
    output_size: tuple[int, int],
    sampling_points: int,
    grid: tuple[int, int],
    field: str,
    fill_value: float,
) -> None:
    """Pool one roi with RoIPool and RoIAlign on a demo grid; show the misalignment."""
    try:
        x, y, w, h = (float(v) for v in roi.split(","))
    except ValueError:
        raise click.BadParameter(f"--roi expects x,y,w,h, got {roi!r}")
    try:
        grid_h, grid_w = grid
        if field == "constant":
            plane = np.full((grid_h, grid_w), fill_value, dtype=np.float64)
        else:
            plane = np.arange(grid_h * grid_w, dtype=np.float64).reshape(grid_h, grid_w)
        feat = proposals.FeatureGrid.from_2d(plane)
        spec = proposals.RoiSpec(
            roi=geometry.Box(x, y, w, h),
            spatial_scale=scale,
            output_size=(output_size[0], output_size[1]),
            sampling_points=sampling_points,
        )
        pooled = proposals.roi_pool(feat, spec)
        aligned = proposals.roi_align(feat, spec)
        report = proposals.misalignment_report(spec.roi, scale)
    except (ValueError, DriveAreaError) as exc:
        _fail(exc)
    doc = {
        "roi": [x, y, w, h],
        "spatial_scale": scale,
        "output_size": list(output_size),
        "sampling_points": sampling_points,
        "grid": list(grid),
        "pool": pooled.values[0].tolist(),
        "align": aligned.values[0].tolist(),
        "misalignment": report.as_dict(),
    }
    click.echo(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    main()
