"""Parse BDD-style annotations, filter unlabeled frames, write the normalized file.

Run: python3 demos/01_annotations.py
"""

import io
import json

from drivearea import filter_drivable, parse_labels, write_normalized

# A miniature BDD-style label file: three frames, one without any drivable
# region (it only carries a lane marking, which this tooling ignores).
raw = json.dumps(
    [
        {
            "name": "frame-0001.jpg",
            "attributes": {"weather": "Partly Cloudy", "scene": "city street", "timeofday": "dawn/dusk"},
            "labels": [
                {
                    "category": "drivable area",
                    "attributes": {"areaType": "direct"},
                    "poly2d": [{"vertices": [[300, 700], [980, 700], [720, 420], [560, 420]]}],
                },
                {
                    "category": "drivable area",
                    "attributes": {"areaType": "alternative"},
                    "poly2d": [{"vertices": [[40, 700], [280, 700], [540, 420], [470, 420]]}],
                },
            ],
        },
        {
            "name": "frame-0002.jpg",
            "attributes": {"weather": "clear", "scene": "highway", "timeofday": "daytime"},
            "labels": [
                {"category": "lane marking", "poly2d": [{"vertices": [[0, 0], [5, 5], [10, 0]]}]}
            ],
        },
        {
            "name": "frame-0003.jpg",
            "attributes": {"weather": "rainy", "scene": "gas stations", "timeofday": "night"},
            "labels": [
                {
                    "category": "drivable area",
                    "attributes": {"areaType": "direct"},
                    "poly2d": [{"vertices": [[200, 710], [1100, 710], [700, 400]]}],
                }
            ],
        },
    ]
).encode()

index = parse_labels(raw)  # raw BDD frames are read as 1280x720
print(f"parsed {len(index)} records, {index.parse_warnings} parse warnings")
for record in index:
    key = record.conditions
    print(f"  {record.image_id}: {len(record.labels)} drivable polygons, "
          f"conditions=({key.weather}, {key.scene}, {key.timeofday})")

# Messy raw values normalize onto the closed vocabulary:
# "Partly Cloudy" -> partly-cloudy, "dawn/dusk" -> dawn-dusk,
# "gas stations" -> gas-station.

filtered, report = filter_drivable(index)
print(f"\nkept {report.kept}/{report.total_in} frames "
      f"(drop fraction {report.drop_fraction:.3f}); dropped: {list(report.dropped_ids)}")

buf = io.BytesIO()
n = write_normalized(filtered, buf)
print(f"\nnormalized file with {n} records ({len(buf.getvalue())} bytes):")
print(buf.getvalue().decode()[:160] + " ...")

# The normalized format round-trips record for record.
assert parse_labels(buf.getvalue()) == filtered
print("\nround-trip parse reproduced the index exactly")
