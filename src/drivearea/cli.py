"""Batch command-line front end.

Workflow mirrors the preprocessing-then-evaluation pipeline: ``preprocess``
normalizes annotation files, ``rasterize`` exports class masks, an external
model produces a predictions JSONL, and ``eval`` scores it with stratified
reports. ``synth`` writes a synthetic suite with a known answer.

Each command imports only the modules it runs, so ``--help`` loads no numpy.

Exit codes: 0 success, 1 internal error, 2 bad input or flags.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import _MAX_SIDE
from .errors import DimensionMismatch, DriveAreaError, IoFailure, OutputCollision


def _file_key(path: Path):
    """An existing file's device and inode, which its hard links share; else its resolved path."""
    try:
        return (st := path.stat()).st_dev, st.st_ino
    except OSError:
        return path.resolve()


def _refuse_collisions(inputs: dict[str, Path], outputs: dict[str, Path | None]) -> None:
    """Refuse, before anything is read or written, an output whose directory does not
    exist (IoFailure) or that is an input file or another output (OutputCollision)."""
    seen = {_file_key(path): name for name, path in inputs.items()}
    for name, path in outputs.items():
        if path is not None and not path.parent.is_dir():
            raise IoFailure(f"cannot write output: {name} {path}: {path.parent} is not a directory")
        if path is not None and seen.setdefault(key := _file_key(path), name) != name:
            raise OutputCollision(f"{name} {path} is the same file as {seen[key]}")


def _open_input(path: Path, what: str):
    """``path`` open to read: a failure to open it is a failed read, as the readers type theirs."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read {what}: {exc}") from exc


def _parse_dims(_ctx, _param, value: str) -> tuple[int, int]:
    try:
        w, h = value.lower().split("x")
        dims = (int(w), int(h))
    except ValueError:
        raise click.BadParameter(f"expected WxH, got {value!r}")
    if not all(0 < d <= _MAX_SIDE for d in dims):
        raise click.BadParameter(f"dimensions must be in 1..{_MAX_SIDE}")
    return dims


def _parse_iou_threshold(_ctx, _param, value: float) -> float:
    from . import metrics
    try:
        return metrics.MatchConfig(iou_threshold=value).iou_threshold
    except ValueError as exc:
        raise click.BadParameter(str(exc))


class _Main(click.Group):
    """The one place a command fails: a DriveAreaError, or an output's OSError, exits 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DriveAreaError, OSError) as exc:
            written = "cannot write output: " if isinstance(exc, OSError) else ""
            click.echo(f"error: {written}{exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Drivable-area annotation, geometry, and evaluation tooling."""
    if "numpy" not in sys.modules:  # no command calls BLAS: start no OpenBLAS thread per core
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@main.command()
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True)
def preprocess(labels: Path, out: Path) -> None:
    """Normalize an annotation file, dropping unlabeled images."""
    import tempfile

    from . import dataset
    _refuse_collisions({"--labels": labels}, {"--out": out})
    # Records wait in an unnamed file until all labels are accepted. A regular --out is then
    # replaced once whole; any other (a FIFO, a device) is written into, with no scratch beside it.
    here = out.parent if (replace := out.is_file() or not out.exists()) else None
    with _open_input(labels, "labels") as fh, tempfile.TemporaryFile(dir=here) as scratch, \
            tempfile.TemporaryDirectory(prefix=".preprocess-", dir=here) as tmp:
        sink = Path(tmp, out.name) if replace else out
        report, warnings = dataset.stream_normalized(fh, scratch, lambda: open(sink, "wb"))
        if replace:
            os.replace(sink, out)
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
                "parse_warnings": warnings,
                "records_written": report.kept,
            },
            separators=(",", ":"),
        ),
        err=True,
    )


@main.command()
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
@click.option("--format", "fmt", type=click.Choice(["rle", "pgm"]), default="rle", show_default=True)
def rasterize(labels: Path, out: Path, fmt: str) -> None:
    """Rasterize polygons to one mask per (image, class): direct and alternative separately."""
    import errno
    import tempfile

    from . import dataset, geometry
    # Files go to a scratch directory on --out's file system and move into --out
    # only once all are written, so a refusal or a failed write leaves --out as it was.
    if not (base := next(p for p in (out, *out.parents) if p.exists())).is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    with _open_input(labels, "labels") as fh:
        index = dataset.parse_labels(fh)
    owners: dict[str, str] = {}  # file name -> the image id written there
    with tempfile.TemporaryDirectory(prefix=".rasterize-", dir=base) as tmp:
        for record in index.records:
            for class_id, class_name in sorted(dataset.CLASS_NAMES.items()):
                if not (polys := [p for p in record.labels if p.class_id == class_id]):
                    continue
                # "/" and NUL are the two bytes a POSIX file name cannot hold
                stem = record.image_id.replace("/", "_").replace("\0", "_") + f".{class_name}"
                if (name := stem + (".pgm" if fmt == "pgm" else ".rle.json")) in owners:
                    raise OutputCollision(f"image ids {owners[name]!r} and {record.image_id!r} "
                                          f"both map to output file name {stem!r}")
                owners[name] = record.image_id
                try:
                    mask = geometry.mask_union(
                        [geometry.rasterize_polygon(p, record.width, record.height) for p in polys])
                    if (out / name).is_dir():  # found now, not by os.replace after earlier moves
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                    if (out / name).exists() and _file_key(out / name) == _file_key(labels):
                        raise OutputCollision(f"--out {out / name} is the same file as --labels")
                    with open(Path(tmp, name), "wb") as fh:
                        if fmt == "pgm":
                            geometry.write_pgm(mask, fh)
                        else:
                            payload = {"width": mask.width, "height": mask.height, "runs": list(mask.runs)}
                            fh.write(json.dumps(payload, separators=(",", ":")).encode("ascii"))
                except DimensionMismatch as exc:
                    raise DimensionMismatch(f"image {record.image_id!r}: {exc}") from None
                except OSError as exc:  # name the file in --out, not its scratch copy
                    raise OSError(exc.errno, exc.strerror, str(out / name)) from None
        out.mkdir(parents=True, exist_ok=True)
        for name in owners:
            os.replace(Path(tmp, name), out / name)
    click.echo(json.dumps({"written": len(owners)}, separators=(",", ":")))


@main.command("eval")
@click.option("--labels", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--predictions", type=click.Path(exists=True, dir_okay=False, path_type=Path), required=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), required=True, help="Report JSON path.")
@click.option("--csv", "csv_out", type=click.Path(dir_okay=False, path_type=Path), default=None, help="Optional flat CSV path.")
@click.option("--iou-threshold", type=float, default=0.5, callback=_parse_iou_threshold, show_default=True)
@click.option("--iou-kind", type=click.Choice(["box", "mask"]), default="box", show_default=True)
@click.option("--strict-orphans", is_flag=True, help="Count detections for unknown images as false positives.")
def cmd_eval(labels: Path, predictions: Path, out: Path, csv_out: Path | None,
             strict_orphans: bool, **match) -> None:
    """Score a predictions file against ground-truth labels."""
    from . import dataset, metrics
    _refuse_collisions(
        {"--labels": labels, "--predictions": predictions}, {"--out": out, "--csv": csv_out}
    )
    with _open_input(labels, "labels") as fh:
        filtered, _ = dataset.filter_drivable(dataset.parse_labels(fh))
    cfg = metrics.MatchConfig(**match)
    with _open_input(predictions, "predictions") as fh:  # read by lines, so errors have a line
        dets = metrics._columns(metrics._rows(fh))
    report = metrics.evaluate(filtered, dets, cfg, strict_orphans=strict_orphans)
    out.write_text(metrics.report_to_json(report), encoding="utf-8")
    if csv_out is not None:
        csv_out.write_text(metrics.report_to_csv(report), encoding="utf-8")
    if report.orphan_detections and not strict_orphans:
        click.echo(f"warning: dropping {report.orphan_detections} detections "
                   "for images not in the index", err=True)
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
def cmd_synth(lanes: str, out_labels: Path, out_predictions: Path, **settings) -> None:
    """Write a synthetic annotation file plus matching corrupted predictions."""
    import tempfile

    from . import dataset, metrics, synth
    _refuse_collisions({}, {"--out-labels": out_labels, "--out-predictions": out_predictions})
    try:
        lo, _, hi = lanes.partition(":")
        lane_range = (int(lo), int(hi or lo))
    except ValueError:
        raise click.BadParameter(f"--lanes expects MIN:MAX, got {lanes!r}")
    # A frame's predictions are drawn and written to an unnamed file beside --out-predictions;
    # the outputs are written only once every frame is drawn, so a refusal writes neither.
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=out_predictions.parent) as scratch:
        try:
            params = synth.SynthParams(lanes_per_image=lane_range, **settings)
            index = dataset.DatasetIndex(
                tuple(synth.generate_scene(params, i) for i in range(params.n_images)))
            n_dets = sum(metrics.write_predictions(synth.corrupt_predictions(r, params), scratch)
                         for r in index)
        except ValueError as exc:
            raise DriveAreaError(exc) from exc
        with open(out_labels, "wb") as fh:
            dataset.write_normalized(index, fh)
        scratch.seek(0)
        with open(out_predictions, "w", encoding="utf-8") as fh:
            fh.writelines(scratch)
    click.echo(f"images={len(index)} detections={n_dets}", err=True)


if __name__ == "__main__":
    main()
