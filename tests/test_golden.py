"""Golden bytes: every pipeline output, pinned by its SHA-256.

The inputs are drawn in this file from a fixed seed with ``random.Random.random``,
whose sequence Python keeps from release to release, and shaped with arithmetic
alone, so that they are the same bytes on every platform. They are a raw BDD-shaped
label file, a normalized copy at 640x360 and one prediction file of box and RLE
lines, and they cover what the commands find hard:

- lanes of many vertices, with curve-typed ``types`` on some of them;
- ``direct`` and ``alternative`` lanes that share their boundary vertices;
- the edge (318.66, 259.5)-(82.92, 621.0), where the rasterizer's crossing depends
  on vertex order, in both orders;
- detections of images the labels do not hold or drop (orphans), scored with and
  without ``--strict-orphans``.

``synth``, ``preprocess`` (of the raw file and of its own output), ``rasterize``
(``rle`` and ``pgm``) and ``eval`` (``box`` and ``mask``, with ``--csv``) run in
process, in the order of ``STEPS``. For each run the test pins the exit code and the
digests of stdout, stderr and every file it wrote, known defects included. A change
that alters an output on purpose updates its digests here and says why.
"""

import hashlib
import json
import os
import random

from click.testing import CliRunner

from drivearea.cli import main

SEED = 20260
W, H = 1280, 720
SMALL = 0.5  # the normalized copy's frame is 640x360
EDGE = [(318.66, 259.5), (82.92, 621.0)]
CLASS_IDS = {"direct": 1, "alternative": 2}
RAW_TAGS = {
    "weather": ["clear", "rainy", "partly cloudy", "foggy", "undefined", "Overcast"],
    "scene": ["city street", "highway", "residential", "gas stations", "parking lot"],
    "timeofday": ["daytime", "night", "dawn/dusk", "undefined"],
}


def pick(rng, items):
    return items[int(rng.random() * len(items))]


def boundary(rng, x_bottom, x_top, y_top):
    """A lane boundary from the frame's bottom edge up to ``y_top``: a bent line of
    6 to 59 vertices, bottom first."""
    n, bend = 6 + int(rng.random() * 54), (rng.random() - 0.5) * 80
    points = []
    for i in range(n):
        t = i / (n - 1)
        x = x_bottom + (x_top - x_bottom) * t + bend * 4 * t * (1 - t)
        points.append((round(x + rng.random() * 2, 2), round(H - (H - y_top) * t, 2)))
    return points


def lanes(rng):
    """(class name, vertices) of 1 to 3 adjacent lanes; neighbours share a boundary."""
    n_lanes, y_top = 1 + int(rng.random() * 3), 300 + rng.random() * 100
    bottoms = sorted(40 + rng.random() * 1200 for _ in range(n_lanes + 1))
    bounds = [boundary(rng, x, 560 + (x - 640) / 8, y_top) for x in bottoms]
    direct = int(rng.random() * n_lanes)
    return [("direct" if i == direct else "alternative", bounds[i] + bounds[i + 1][::-1])
            for i in range(n_lanes)]


def raw_frames(rng):
    """(name, attributes, [(class name, vertices)]) of every labelled frame, in file order."""
    forward = EDGE + [(600.0, 621.0), (600.0, 259.5)]
    frames = [
        ("edge-shared.jpg", [("direct", forward),
                             ("alternative", EDGE[::-1] + [(100.0, 259.5), (0.0, 621.0)])]),
        ("edge-reversed.jpg", [("direct", forward[::-1])]),
    ] + [(f"frame-{i:02d}.jpg", lanes(rng)) for i in range(8)]
    order = sorted(range(len(frames)), key=lambda _: rng.random())  # not in image-id order
    return [(frames[i][0], {axis: pick(rng, tags) for axis, tags in RAW_TAGS.items()}, frames[i][1])
            for i in order]


def raw_labels(rng, frames):
    """The raw BDD file: the frames, plus an unlabelled frame, a lane marking and a
    drivable label whose one polygon is refused."""
    entries = []
    for name, attributes, polys in frames:
        labels = [{"category": "lane marking", "poly2d": [{"vertices": [[0, 700], [640, 400]]}]}]
        for area_type, vertices in polys:
            poly = {"vertices": [list(v) for v in vertices]}
            if rng.random() < 0.5:
                poly["types"] = "".join(pick(rng, "LLC") for _ in vertices)
            labels.append({"category": "drivable area", "attributes": {"areaType": area_type},
                           "poly2d": [poly]})
        entries.append({"name": name, "attributes": attributes, "labels": labels})
    entries.insert(3, {"name": "unlabelled.jpg", "attributes": {"weather": "snowy"}, "labels": []})
    entries.append({"name": "refused.jpg", "labels": [{
        "category": "drivable area", "attributes": {"areaType": "direct"},
        "poly2d": [{"vertices": [[1, 1], [2, 2]]}]}]})
    return entries


def small_copy(frames):
    """The frames as a normalized file at half size, under their own image ids."""
    records = [{"image_id": "small-" + name, "width": int(W * SMALL), "height": int(H * SMALL),
                "weather": "clear", "scene": "highway", "timeofday": "night",
                "polygons": [{"class_id": CLASS_IDS[cls],
                              "vertices": [[x * SMALL, y * SMALL] for x, y in v]}
                             for cls, v in polys]}
               for name, _, polys in frames]
    return {"records": records}


def rect_runs(width, height, x0, y0, x1, y1):
    """Row-major runs, zeros first, of the rectangle [x0, x1) x [y0, y1); 0 < x0 < x1 < width."""
    runs = [y0 * width + x0]
    for row in range(y0, y1):
        runs += [x1 - x0] + [width - (x1 - x0)] * (row < y1 - 1)
    return runs + [width * height - ((y1 - 1) * width + x1)]


def detections(rng, image_id, width, height, polys):
    """A box line and an RLE line near each lane, a class swapped now and then, and a
    false positive, as prediction objects."""
    out = []
    for cls, vertices in polys:
        xs, ys = [x for x, _ in vertices], [y for _, y in vertices]
        class_id = CLASS_IDS[cls] if rng.random() < 0.85 else 3 - CLASS_IDS[cls]
        jitter = [(rng.random() - 0.5) * width / 20 for _ in range(4)]
        x0, y0 = min(xs) + jitter[0], min(ys) + jitter[1]
        box = [round(x0, 2), round(y0, 2), round(max(xs) - x0 + jitter[2], 2),
               round(max(ys) - y0 + jitter[3], 2)]
        out.append({"image_id": image_id, "class_id": class_id, "score": round(rng.random(), 3),
                    "bbox": box})
        cx0, cx1 = max(1, int(min(xs) + jitter[1])), min(width - 1, int(max(xs) - jitter[2]))
        cy0, cy1 = max(0, int(min(ys) + jitter[3])), min(height, int(max(ys)))
        runs = rect_runs(width, height, cx0, cy0, cx1, cy1)
        out.append({"image_id": image_id, "class_id": CLASS_IDS[cls],
                    "score": round(rng.random(), 3),
                    "rle": {"width": width, "height": height, "runs": runs}})
    x, y = rng.random() * width / 2, rng.random() * height / 2
    out.append({"image_id": image_id, "class_id": 1 + int(rng.random() * 2), "score": 0.5,
                "bbox": [round(x, 2), round(y, 2), width / 4, height / 4]})
    return out


def predictions(rng, frames):
    """Lines for the raw frames and for their small copies, so that each label file
    leaves the other's lines orphaned; plus lines of unknown and dropped images."""
    lines = []
    for name, _, polys in frames:
        lines += detections(rng, name, W, H, polys)
        half = [(cls, [(x * SMALL, y * SMALL) for x, y in v]) for cls, v in polys]
        lines += detections(rng, "small-" + name, int(W * SMALL), int(H * SMALL), half)
    lines += [
        {"image_id": "ghost.jpg", "class_id": 1, "score": 0.9, "bbox": [10, 10, 100, 100]},
        {"image_id": "unlabelled.jpg", "class_id": 2, "score": 0.5,
         "rle": {"width": 8, "height": 4, "runs": rect_runs(8, 4, 1, 1, 5, 3)}},
        {"image_id": "refused.jpg", "class_id": 1, "score": 0.7, "bbox": [0, 0, 4, 4]},
    ]
    return [lines[i] for i in sorted(range(len(lines)), key=lambda _: rng.random())]


def jsonl(lines):
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)


def write_inputs(root):
    """raw.json, small.json, preds.jsonl (box and RLE lines) and masks.jsonl (its RLE lines)."""
    rng = random.Random(SEED)
    frames = raw_frames(rng)
    (root / "raw.json").write_text(json.dumps(raw_labels(rng, frames)))
    (root / "small.json").write_text(json.dumps(small_copy(frames)))
    lines = predictions(rng, frames)
    (root / "preds.jsonl").write_text(jsonl(lines))
    (root / "masks.jsonl").write_text(jsonl(line for line in lines if "rle" in line))


def evals(name, labels, boxes, masks):
    """Box IoU on ``boxes`` and mask IoU on ``masks``, each with and without --strict-orphans."""
    return [(f"{name}-{kind}{'-strict' * strict}",
             ["eval", "--labels", labels, "--predictions", preds, "--iou-kind", kind,
              "--out", "report.json", "--csv", "report.csv"] + ["--strict-orphans"] * strict)
            for kind, preds in (("box", boxes), ("mask", masks)) for strict in (False, True)]


# (step, arguments): each step runs in its own directory, reading the inputs above.
STEPS = [
    ("synth", ["synth", "--seed", "11", "--n-images", "6", "--image-size", "320x180",
               "--jitter", "1.5", "--drop-rate", "0.2", "--fp-rate", "0.6", "--score-noise", "0.05",
               "--out-labels", "gt.json", "--out-predictions", "p.jsonl"]),
    ("preprocess-raw", ["preprocess", "--labels", "../raw.json", "--out", "norm.json"]),
    ("preprocess-norm", ["preprocess", "--labels", "../preprocess-raw/norm.json",
                         "--out", "norm.json"]),
    ("preprocess-small", ["preprocess", "--labels", "../small.json", "--out", "norm.json"]),
    ("rasterize-rle", ["rasterize", "--labels", "../preprocess-raw/norm.json", "--out", "masks"]),
    ("rasterize-pgm", ["rasterize", "--labels", "../raw.json", "--out", "masks",
                       "--format", "pgm"]),
    ("rasterize-small-rle", ["rasterize", "--labels", "../small.json", "--out", "masks"]),
    ("rasterize-small-pgm", ["rasterize", "--labels", "../small.json", "--out", "masks",
                             "--format", "pgm"]),
    ("rasterize-synth", ["rasterize", "--labels", "../synth/gt.json", "--out", "masks"]),
    *evals("eval", "../preprocess-raw/norm.json", "../preds.jsonl", "../masks.jsonl"),
    *evals("eval-small", "../small.json", "../preds.jsonl", "../masks.jsonl"),
    *evals("eval-synth", "../synth/gt.json", "../synth/p.jsonl", "../synth/p.jsonl"),
    ("eval-raw-box", ["eval", "--labels", "../raw.json", "--predictions", "../preds.jsonl",
                      "--out", "report.json"]),
    # mask IoU refuses a box line: exit 2
    ("eval-mask-of-boxes", ["eval", "--labels", "../raw.json", "--predictions", "../preds.jsonl",
                            "--iou-kind", "mask", "--out", "report.json"]),
]

GOLDEN = {
    "inputs": {
        "masks.jsonl": "97ddf3cc1cb559583df67656b73047d6555e3e3c6bacd1c096455f837042457c",
        "preds.jsonl": "f9cf6175e067719203de4f510c8bdd24da3663c6c0fa42b13ddcdde7999d05e7",
        "raw.json": "30592700f00df54099703fcd8ccff06826c21e222b8337928fc4d93a28bef313",
        "small.json": "7c8ea5f7dba2f112352f2353dc85713509168e614b77b11f6bd32284c0a84d2b"
    },
    "synth": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "3ad90a6f33cfe3988268dc18c425783e6325d65a637bf5ee47009557d64fd1ab",
        "gt.json": "6e9e97b2e64fe551d79d97699c8b4563cecc6a90942035252cfff51434d61ffa",
        "p.jsonl": "d8f2354ccdfb12d2622ef86d2895aa9acb1bf5ae46840ddf6b74a323f4e6f1f3"
    },
    "preprocess-raw": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "cb37b9f3a1e675b7d78e2d149199c446ce1f9fb375193fd06e89a4dad9dc45cc",
        "norm.json": "108c3f3114bfa1c4a51afc27dd3b888814f5ac62818d1c374b9417c949364832"
    },
    "preprocess-norm": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "cd854d51b26e4a6015fdd058fabd83f307883747b4644c9892f58ea00975aad7",
        "norm.json": "108c3f3114bfa1c4a51afc27dd3b888814f5ac62818d1c374b9417c949364832"
    },
    "preprocess-small": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "cd854d51b26e4a6015fdd058fabd83f307883747b4644c9892f58ea00975aad7",
        "norm.json": "a38190ac81dc66ade832484425ea32884929c000a093549698438822bd20f36a"
    },
    "rasterize-rle": {
        "exit": 0,
        "stdout": "2bf374a4b95795556dcbd26ff8d2eb1d8410df47997cad71979bbb20f4ca53e8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "masks/edge-reversed.jpg.direct.rle.json": "8f1d3d4786d2547b2f336b6e56b7ec7cb4ee879508ca411ddf3a7c2d1b950349",
        "masks/edge-shared.jpg.alternative.rle.json": "257c3c24d5e5d306fb64218d72a6edc335792752fd69e1a864d0cbf6cb487ab5",
        "masks/edge-shared.jpg.direct.rle.json": "cc0b9f22a3a33bd4ade8203c4d7039c99f49e06d2e8f1425778a4a17af38ec5c",
        "masks/frame-00.jpg.alternative.rle.json": "f43e97042375c360555d87de5102a9e6fb77b339f510febf11ffb99c8a43074b",
        "masks/frame-00.jpg.direct.rle.json": "938533f06c0117350da019454341f7b20b1464e6f484785d912a0e32ed396465",
        "masks/frame-01.jpg.direct.rle.json": "1095fda75fb71429596cb4c3d1f19421e3912ccadf8a1a6a7f2047ca1989d390",
        "masks/frame-02.jpg.alternative.rle.json": "e456861360b21904b4ce43a43ad18234fbe84af4b01d42a5ab3886efbbcb76cd",
        "masks/frame-02.jpg.direct.rle.json": "0c333a985f0c0c37c685b1ee53944535138482d6eb1a885eaa8c4c53053d4fb9",
        "masks/frame-03.jpg.alternative.rle.json": "aca2c1d1194eb1eed49616d8d0ec0352a6daf194a7badb9644f8fc04d0c9467f",
        "masks/frame-03.jpg.direct.rle.json": "542a38f8d69c9c06714d56055c107cf712fec7b2b63b5337506d0919ff425afc",
        "masks/frame-04.jpg.direct.rle.json": "b1bb24d4c2eb63565ccd9af810e172fca5fe2a0001b7ba133fdc2d27788cc5f1",
        "masks/frame-05.jpg.alternative.rle.json": "12610ded4277e4982e5c9fabdb8a906abb4a5db2f1c1d558360aed5def1b41f7",
        "masks/frame-05.jpg.direct.rle.json": "b68904f4dcba3b0b00958a98ee0134205f9316b583d2b09ef8fc74d566e76ddc",
        "masks/frame-06.jpg.alternative.rle.json": "c152ee58393e63ac5cabce51637d84f982ab421030dbb3ae7d44ba4b2900465c",
        "masks/frame-06.jpg.direct.rle.json": "afdaa72cafb8e06181ab2c3ddee850f6fc020f197938d91cd554910e07d91ec4",
        "masks/frame-07.jpg.alternative.rle.json": "1d88a74425689b2f92c6b287acf23da971738f1511b8242592669bf15134f82f",
        "masks/frame-07.jpg.direct.rle.json": "41883fa61a0142c06be410af9a078882c8a7f5813cb61d1de7a64b37b5041418"
    },
    "rasterize-pgm": {
        "exit": 0,
        "stdout": "2bf374a4b95795556dcbd26ff8d2eb1d8410df47997cad71979bbb20f4ca53e8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "masks/edge-reversed.jpg.direct.pgm": "35e1e90adabd9cd3040fe27dc0c0712c1d49f02eb780622c8957f7a2492c510b",
        "masks/edge-shared.jpg.alternative.pgm": "6ca837af5c320316f55ff0b42bbaa93cec37a5cee1ef58032bab2cfe4d3844a9",
        "masks/edge-shared.jpg.direct.pgm": "e0b023f4772752509b6da0cdade23baf136b5375917e084fd4daa636fd0f42f5",
        "masks/frame-00.jpg.alternative.pgm": "45247ffd34e8234d1ae70fba1e1ab4a73f8927d2e74c01609dbc758f48711191",
        "masks/frame-00.jpg.direct.pgm": "378f84b634dda9ced4326ef2e4a6631ae458607592ebeb9f95af8e79f8250d87",
        "masks/frame-01.jpg.direct.pgm": "67320b0f2a97efb6ae28562149777172e2701491b52d9e55aa1b3f6e0feb87f8",
        "masks/frame-02.jpg.alternative.pgm": "d5ada511292cb4ea8559646bbe943854dd968eb03b65131504e542786a3fe4e0",
        "masks/frame-02.jpg.direct.pgm": "13d5b806467991b4b91575fd471d63ba2971985df8efe947e679f9dba84c0c1c",
        "masks/frame-03.jpg.alternative.pgm": "22b234ee57f1d3937ae2904c2047b5e8ef5b1644f08f38a0ee5a176b285cc3bc",
        "masks/frame-03.jpg.direct.pgm": "fed0ef551bbcb19d707b50db4cd1417f4de2535ae32ef0a8e58048b14ae31480",
        "masks/frame-04.jpg.direct.pgm": "5531d1447604e3c6159e8bf803f53d4d99eef00b29200ee7aca5f1a6219c38fe",
        "masks/frame-05.jpg.alternative.pgm": "392fdc0dad88e873eef1673b0deca86eb73c6f647343f226e46e8bb1f793ceba",
        "masks/frame-05.jpg.direct.pgm": "883423352b36ba03ed31f2fe9c5f03fd6e42c3ade175494cb672ca2a7a34f735",
        "masks/frame-06.jpg.alternative.pgm": "f3291b723fc39943ed7d9d275c07c5204e86aa727cd075486fdaabbe58c33850",
        "masks/frame-06.jpg.direct.pgm": "2a664202c458ff402650482223b2dd9d82c2d34795b488ea00024de777c6bb5b",
        "masks/frame-07.jpg.alternative.pgm": "80d47e891036a67a60e46b4dca258ba2e8e8e819373c3c57a0f9ecf2d2f1b5c8",
        "masks/frame-07.jpg.direct.pgm": "238fac222a5da8a25a0d43553b9ca92e842b0f2f5ebad6c34de42e44b6a09d59"
    },
    "rasterize-small-rle": {
        "exit": 0,
        "stdout": "2bf374a4b95795556dcbd26ff8d2eb1d8410df47997cad71979bbb20f4ca53e8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "masks/small-edge-reversed.jpg.direct.rle.json": "5feb6cf32c46bee4721123e8d39082da2ad97421a63f306a6413d23772213519",
        "masks/small-edge-shared.jpg.alternative.rle.json": "fe1c24b49a200ccbbb93fff4204b75711fafd544e59d1921bd9cf6225fb565c8",
        "masks/small-edge-shared.jpg.direct.rle.json": "5feb6cf32c46bee4721123e8d39082da2ad97421a63f306a6413d23772213519",
        "masks/small-frame-00.jpg.alternative.rle.json": "bc813be74aa3d6547e592f85fc671c7147b06d3a3970ea05c4b0fc84c44192c0",
        "masks/small-frame-00.jpg.direct.rle.json": "4be7f00d734edbc581cbda9a059672a08e56066302ff0a3ebbd70e9affb2e3d1",
        "masks/small-frame-01.jpg.direct.rle.json": "26bad8b04e02fe5feb52366efcf4c9f01ffb3baba3277aa819f5410a8081a305",
        "masks/small-frame-02.jpg.alternative.rle.json": "aae6b8cbd45aff3b36f3ea7ecca72a1b7aec34c0c549e95f20d2cb8a1501fd9b",
        "masks/small-frame-02.jpg.direct.rle.json": "2d2445f052417caf27a028139d1f0023d7c670b1e5d407dd21572741c0762279",
        "masks/small-frame-03.jpg.alternative.rle.json": "cafd5b7ad22d31324ecc87ffddfb4036b4a17b11ef95148dc6c559c289036aec",
        "masks/small-frame-03.jpg.direct.rle.json": "7458c2b827fc14ff83ce0b90801152e3a3e061a69227db6d55101571822daa9e",
        "masks/small-frame-04.jpg.direct.rle.json": "9238962451bbbf81ed672b2304d8ab0dbd7dde77d4c468dcff3ba36e11b0d343",
        "masks/small-frame-05.jpg.alternative.rle.json": "898240371e11b0f751928c5cb491d4641ef7c03a67898779159f8d2866c6574f",
        "masks/small-frame-05.jpg.direct.rle.json": "222a1dfd99e1f21a305507298bbcaf105d97234735601bce928216e679d311c2",
        "masks/small-frame-06.jpg.alternative.rle.json": "7141c48f95c057244e4a717feaca13774f720615f32982a7b6afb0412f45aac3",
        "masks/small-frame-06.jpg.direct.rle.json": "ab50ad8c51fbbd2cbec3847da280347d7664d5fe81d4a1eb723bc93f41817aef",
        "masks/small-frame-07.jpg.alternative.rle.json": "447d59119722634aea41d053db8beb16a5989e53f9c8ec1ef048a466077d2836",
        "masks/small-frame-07.jpg.direct.rle.json": "8758e8162dc188633ffb1a5e91c0844e207931d49c4adf2b5c593c76de2ade31"
    },
    "rasterize-small-pgm": {
        "exit": 0,
        "stdout": "2bf374a4b95795556dcbd26ff8d2eb1d8410df47997cad71979bbb20f4ca53e8",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "masks/small-edge-reversed.jpg.direct.pgm": "eb977bd54e086def02c0ee35b34dc67031700b244a6d1acb5bf765bc680e4152",
        "masks/small-edge-shared.jpg.alternative.pgm": "939b3694669718813ff9e2a3ddef4321a5f62138a5153aa7a5c7dfc4e4098f6c",
        "masks/small-edge-shared.jpg.direct.pgm": "eb977bd54e086def02c0ee35b34dc67031700b244a6d1acb5bf765bc680e4152",
        "masks/small-frame-00.jpg.alternative.pgm": "42d96ba51f2ea864f5afa76880f0b030f1f4ea3ba10972968453157bd4609e99",
        "masks/small-frame-00.jpg.direct.pgm": "ea0ec0e9a101b2d9d4c1b230e5e9240ab54d228d3cf65f99fed5ee806caa9ece",
        "masks/small-frame-01.jpg.direct.pgm": "1a8412d55e4e83e8920445cb5c50228e32ab45d80538f451b3598006af2b0dc9",
        "masks/small-frame-02.jpg.alternative.pgm": "74dc0fdb1b154c70f308c24a1be5da94e68fb98b165da39505766f186476aa8c",
        "masks/small-frame-02.jpg.direct.pgm": "3a20ce56480a2814f3d2b2509e461c55572455c06534ac052a0bebaa1a514b32",
        "masks/small-frame-03.jpg.alternative.pgm": "bb246a13b6f881312bd84a9ff419d251f0a795592d3a02d7941953d3e9bcee43",
        "masks/small-frame-03.jpg.direct.pgm": "5b11014357a4e53f3371bee37491d4b5fb332536f96e304aa9fbe2e5bb3899ef",
        "masks/small-frame-04.jpg.direct.pgm": "dfe1a54510ecfef73da4f85793f9590266f71adb84026c93bb76d2d40f0a0f24",
        "masks/small-frame-05.jpg.alternative.pgm": "d7745473a75f5aad165738dabf414d3664b3149f0ce558f166da7bc3948dad4b",
        "masks/small-frame-05.jpg.direct.pgm": "53f0be9261f50bbdcca5605dab40dd71d1bb08bbca13510d933bef843bee17e0",
        "masks/small-frame-06.jpg.alternative.pgm": "a1945281711a143bea9deda33938926dba1218554f9c941854877ffae67f9205",
        "masks/small-frame-06.jpg.direct.pgm": "d7f64cf0871553e4bb6c306486677f76089aafdad4138c3d57fba976c17c52dd",
        "masks/small-frame-07.jpg.alternative.pgm": "2dc5b439d7da1137db02f6b6a9eac963e2625b4e4d1209032d25d1df12e03f18",
        "masks/small-frame-07.jpg.direct.pgm": "7cc291227067bb13c2796d09abad58021362f51d6dd3872295542ea54f6a84f3"
    },
    "rasterize-synth": {
        "exit": 0,
        "stdout": "34603fdba86e33c8391e9d587e175eaaea51be2bbfae8b855c7e728f270f9a48",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "masks/synth-000000.direct.rle.json": "ec35295ced97dbbb5fc3c63db09788c98cd7af200471adae2467c695e42e4f3e",
        "masks/synth-000001.alternative.rle.json": "cb4e7aaa6cbaf27b31439dd0812df33e50c72d45f0510f5ee8f31c98fa7d4d29",
        "masks/synth-000001.direct.rle.json": "c249c009eed585e9483235e79d8f84003e2b25d23837a96a3312768b97c1823c",
        "masks/synth-000002.alternative.rle.json": "43f10524c726b6790135c4cbac06ee331aa4819d7b297e6e8c67bd576cbdaf38",
        "masks/synth-000002.direct.rle.json": "82a4a8b28eac6fed4df67a9b797f7b4cf9ff87ff642f1075bfa4947ae302dc1d",
        "masks/synth-000003.alternative.rle.json": "e02e1a67f7334eb55a3b03d3a947bcb60f12c414db2deceb6e2d3391eaaba772",
        "masks/synth-000003.direct.rle.json": "ed890c5c46dace972ecc103574eb89f151df9a5a4a950039aff2969c9c0c2a0f",
        "masks/synth-000004.alternative.rle.json": "838ef978773a7983f67f773868b989390822ceba08b4ca6ebdbc804f18493b4d",
        "masks/synth-000004.direct.rle.json": "ee6d9590d1c9f55c54b710daf5b94124d3bdc9f25d5969cc45751af58e0a6681",
        "masks/synth-000005.alternative.rle.json": "eac6794d4122eea0ca520c7a5da031bbe17c8b9acbba60ec5769fbce9bf957cd",
        "masks/synth-000005.direct.rle.json": "250506f85bfe6013bb8e77fedb1eaf8659f174b1831865467366eaba449fea86"
    },
    "eval-box": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "abb91a3762c69c76ea7ac52c005c80e37c6444fde1d38a1e9de9c32aa7c125a2",
        "report.csv": "01ac46504312f9558fb9632ef1fcd52e3fe0467d34f9d001ca56cac587aa2ce8",
        "report.json": "299d2d380c55968a404477c6f4e26f269499198426acdc7f7ae972911463a119"
    },
    "eval-box-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "a91a7e926adb64adfba5104989d44f5f4018bdbf979b407037fba6164f89f431",
        "report.csv": "523914054e4cb53388dc10717f2bb4dee7eed1631eb8cb1fd6712bba60c35b56",
        "report.json": "4329f63f71f9129bd0f1f9f518e52f5d69f375047ec65d63b7dcbf5b74d57650"
    },
    "eval-mask": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "4ff28b5d74f8f1fda312342d952dfa342053eb54530501d26e84862a38ac36bb",
        "report.csv": "26178bcc241b05ea13002bf57667327dffd55ee3d81f828c594453dfa66086d3",
        "report.json": "77f8dba1107089e08e60584eaf708d20f20ab835ac15ba2b93acf5330e98716e"
    },
    "eval-mask-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "2d95b48174d6397274c083807fff4b925ef37400aa1bdf09faee3583c9e332af",
        "report.csv": "258ddc5794a77cd2b1299d106d89f550e4183de97e4474f0cdb81ea9516df140",
        "report.json": "721fa1ed547f1be35b10d5e0f81ec90c2ede8ea47aba02ebd61ad85a59b8b9a2"
    },
    "eval-small-box": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "f127f8ed42fd11a333a83e72269801b832b3a2b60e2c8f1b150f67cb18b07c96",
        "report.csv": "fe59d2c839ba875b26c1fc461e338813d7d7af357bcd8d359708ba6df82b6a62",
        "report.json": "8f393c315035bc5b67ff6292348dc4ecff5c770b0b2f5b6a17bcbf0a59e44c9a"
    },
    "eval-small-box-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "492645b5baf749c5beca2541a7a5e4c79b13bf207764fd2b43ece51d3e5890e0",
        "report.csv": "a744939fff49da7dbd08057739369c683319256c08dc4dfe69dba51bbcc6356a",
        "report.json": "a28891c1786d4507e63b9a5ad7cf365acddc3859f03f788b6b188b9136f6ff50"
    },
    "eval-small-mask": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "df59b4217024b4ea4c247292e852b50401c3903eb6e6fb1d725d6bd6751a8660",
        "report.csv": "428173e1a4d167ef5a1ce822c3a3ec75506ed608b2debbf8a81d9f1484968753",
        "report.json": "488ae9949baec13ad974e588d65f477acf9f7f51a45b70bc664b27d041c2b379"
    },
    "eval-small-mask-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "ecc6ea8f9589f9b7350caa8c37eab927d47c7000c67b26a3bab80d997435ee1f",
        "report.csv": "e89dfd85c55e21cc6c42b13a8c635d040a5e72a65383ebc9440bb2cae771116a",
        "report.json": "cf700b849b1c37c805c068a1c762dd2bbebb8165074be74ca0c23b0e8618dab0"
    },
    "eval-synth-box": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "beb9c588e695fd83339482baa16781d8bc5ab09f30c0d52c6e884ca9fde90ebe",
        "report.csv": "d3086e70c119614d831e0939e7de266bbc8baea81b264fcdb3d1b828d63788f9",
        "report.json": "2e947dd6b108bddaabbc61f4a3e9da89878cc6ea92806400fba6e6d8d2165ce5"
    },
    "eval-synth-box-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "beb9c588e695fd83339482baa16781d8bc5ab09f30c0d52c6e884ca9fde90ebe",
        "report.csv": "d3086e70c119614d831e0939e7de266bbc8baea81b264fcdb3d1b828d63788f9",
        "report.json": "4ae976bd3583cdadf12ce743c28640e32a58addbeddad442245a741857e9dc39"
    },
    "eval-synth-mask": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "beb9c588e695fd83339482baa16781d8bc5ab09f30c0d52c6e884ca9fde90ebe",
        "report.csv": "d3086e70c119614d831e0939e7de266bbc8baea81b264fcdb3d1b828d63788f9",
        "report.json": "c16102c809539eef691988554ace7688865c183ffc8362ee80c0d7a3a570790c"
    },
    "eval-synth-mask-strict": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "beb9c588e695fd83339482baa16781d8bc5ab09f30c0d52c6e884ca9fde90ebe",
        "report.csv": "d3086e70c119614d831e0939e7de266bbc8baea81b264fcdb3d1b828d63788f9",
        "report.json": "2157b54a4cd8ed4573d453e632ff2d065d42eb865dc10afbc48b1e09e7913301"
    },
    "eval-raw-box": {
        "exit": 0,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "abb91a3762c69c76ea7ac52c005c80e37c6444fde1d38a1e9de9c32aa7c125a2",
        "report.json": "299d2d380c55968a404477c6f4e26f269499198426acdc7f7ae972911463a119"
    },
    "eval-mask-of-boxes": {
        "exit": 2,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "b21fae1518770cf65485573c316d1aef098a7e133c85c19ade5a6fd2191f4677"
    }
}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def outcomes(root):
    """Each input's digest, and each step's exit code and the digests of what it printed
    and of every file it wrote."""
    runner = CliRunner()
    found = {"inputs": {p.name: digest(p.read_bytes()) for p in sorted(root.iterdir())}}
    for step, args in STEPS:
        (cwd := root / step).mkdir()
        os.chdir(cwd)
        result = runner.invoke(main, args)
        found[step] = {"exit": result.exit_code, "stdout": digest(result.stdout_bytes),
                       "stderr": digest(result.stderr_bytes),
                       **{str(p.relative_to(cwd)): digest(p.read_bytes())
                          for p in sorted(cwd.rglob("*")) if p.is_file()}}
    return found


def test_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # restores the working directory that outcomes changes
    write_inputs(tmp_path)
    assert outcomes(tmp_path) == GOLDEN
