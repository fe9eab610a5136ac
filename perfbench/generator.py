"""Seeded GeoLife-layout tree generator.

Writes ``Data/<user>/Trajectory/*.plt`` and ``Data/<user>/labels.txt``
under a root directory, in the layout ``veclstm.ingest`` reads.

Each of the seven mapped modes has its own region and cruising speed, so
a point's mode is learnable from where it is (grid cell, cell density)
and from how fast it moves (``normalized_speed``). Between label spans
the generator writes stray points that no span covers, and every user
has one span whose mode ("boat") is not mapped; ingest must drop both.
The returned ``Expected`` holds the counts a correct ingest reproduces.

The same seed and shape give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MODES = ("walk", "bike", "bus", "car", "taxi", "subway", "train")
UNMAPPED_MODE = "boat"

# Cruising speed (m/s) and altitude (feet) per mode, in MODES order.
# car and taxi overlap in speed on purpose: speed alone does not
# separate every pair of classes.
MODE_SPEED = (1.4, 4.5, 8.0, 13.0, 11.0, 17.0, 25.0)
MODE_ALT_FEET = (150.0, 160.0, 170.0, 180.0, 190.0, 120.0, 200.0)
# Fixed share of spans per mode. The imbalance gives random_oversample
# work, as in GeoLife, and keeps row counts the same for every seed.
MODE_WEIGHTS = (0.22, 0.10, 0.18, 0.14, 0.08, 0.12, 0.16)

# Mode regions sit on a ring around central Beijing and overlap their
# neighbours, so a grid cell does not give away the mode.
CENTER_LAT, CENTER_LON = 39.90, 116.40
RING_DEG = 0.05
REGION_HALF_DEG = 0.04

EPOCH_START = 1_235_865_600  # 2009-03-01 00:00:00 UTC
STEP_SECONDS = 5
MISSING_ALT_FEET = -777
MISSING_ALT_SHARE = 0.02
METERS_PER_DEG = 111_320.0

PLT_HEADER = ("Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
              "0,2,255,My Track,0,0,2,8421376\n0\n")
LABELS_HEADER = "Start Time\tEnd Time\tTransportation Mode\n"


@dataclass(frozen=True)
class TreeShape:
    users: int
    spans_per_user: int   # mapped spans; each user also gets one unmapped span
    points_per_span: int
    spans_per_file: int


@dataclass
class Expected:
    n_points: int          # every PLT point written
    n_labeled: int         # points inside a span with a mapped mode
    n_unlabeled: int       # stray points outside every span
    n_unmapped: int        # points inside the unmapped-mode span
    n_segments: int        # mapped spans
    labeled_per_code: list[int]

    def to_dict(self) -> dict:
        return asdict(self)


def _span_counts(spans: int) -> list[int]:
    """Spans per mode from MODE_WEIGHTS, largest remainder, summing to spans."""
    raw = [w * spans for w in MODE_WEIGHTS]
    counts = [int(math.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: spans - sum(counts)]:
        counts[i] += 1
    return counts


def _clock(ts: int) -> tuple[str, str, str]:
    """(yyyy-mm-dd, HH:MM:SS, yyyy/mm/dd) of a UTC timestamp."""
    days, rem = divmod(ts, 86400)
    y, m, d = _civil_from_days(days)
    hms = f"{rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"
    return f"{y:04d}-{m:02d}-{d:02d}", hms, f"{y:04d}/{m:02d}/{d:02d}"


def _civil_from_days(z: int) -> tuple[int, int, int]:
    """Proleptic Gregorian (y, m, d) of days since 1970-01-01."""
    z += 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = mp + 3 if mp < 10 else mp - 9
    return yoe + era * 400 + (m <= 2), m, d


def _plt_line(ts: int, lat: float, lon: float, alt_feet: float) -> str:
    date, hms, _ = _clock(ts)
    serial = 25569.0 + ts / 86400.0
    alt = MISSING_ALT_FEET if alt_feet == MISSING_ALT_FEET else f"{alt_feet:.1f}"
    return f"{lat:.6f},{lon:.6f},0,{alt},{serial:.10f},{date},{hms}\n"


def _span_points(rng: np.random.Generator, code: int, n: int):
    """Lat, lon and altitude arrays of one span of a mode's motion."""
    angle = 2.0 * math.pi * code / len(MODES)
    lat0 = CENTER_LAT + RING_DEG * math.sin(angle) + rng.uniform(-REGION_HALF_DEG, REGION_HALF_DEG)
    lon0 = CENTER_LON + RING_DEG * math.cos(angle) + rng.uniform(-REGION_HALF_DEG, REGION_HALF_DEG)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    speed = MODE_SPEED[code % len(MODE_SPEED)] * rng.uniform(0.85, 1.15)
    step_m = speed * STEP_SECONDS
    k = np.arange(n)
    lat = lat0 + k * step_m * math.cos(heading) / METERS_PER_DEG
    lon = lon0 + k * step_m * math.sin(heading) / (METERS_PER_DEG * math.cos(math.radians(lat0)))
    lat = lat + rng.normal(0.0, 1e-5, n)
    lon = lon + rng.normal(0.0, 1e-5, n)
    alt = MODE_ALT_FEET[code % len(MODE_ALT_FEET)] + rng.normal(0.0, 10.0, n)
    alt = np.where(rng.random(n) < MISSING_ALT_SHARE, MISSING_ALT_FEET, alt)
    return lat, lon, alt


def write_geolife_tree(root: Path, seed: int, shape: TreeShape) -> Expected:
    """Write a GeoLife-layout tree under root and return its expected counts.

    Also writes root/expected.json with the same counts.
    """
    rng = np.random.default_rng(seed)
    root = Path(root)
    per_code = [0] * len(MODES)
    n_points = n_unlabeled = n_unmapped = 0
    unmapped_code = len(MODES)  # motion profile index; mode name is UNMAPPED_MODE
    for user_idx in range(shape.users):
        user_dir = root / "Data" / f"{user_idx:03d}"
        traj_dir = user_dir / "Trajectory"
        traj_dir.mkdir(parents=True)
        codes = [c for c, count in enumerate(_span_counts(shape.spans_per_user))
                 for _ in range(count)]
        codes = [codes[i] for i in rng.permutation(len(codes))]
        codes.insert(int(rng.integers(0, len(codes) + 1)), unmapped_code)

        labels = [LABELS_HEADER]
        files: list[list[str]] = []
        ts = EPOCH_START + user_idx * 86400
        for span_idx, code in enumerate(codes):
            if span_idx % shape.spans_per_file == 0:
                files.append([])
            gap = int(rng.integers(120, 600))
            if rng.random() < 0.5:
                # A stray point halfway through the gap: no span covers it.
                lat, lon, alt = _span_points(rng, code, 1)
                files[-1].append(_plt_line(ts + gap // 2, lat[0], lon[0], alt[0]))
                n_unlabeled += 1
            ts += gap
            lat, lon, alt = _span_points(rng, code, shape.points_per_span)
            start = ts
            for j in range(shape.points_per_span):
                files[-1].append(_plt_line(ts, lat[j], lon[j], alt[j]))
                ts += STEP_SECONDS
            end = ts - STEP_SECONDS
            s_date, s_hms, s_slash = _clock(start)
            e_date, e_hms, e_slash = _clock(end)
            mode = UNMAPPED_MODE if code == unmapped_code else MODES[code]
            labels.append(f"{s_slash} {s_hms}\t{e_slash} {e_hms}\t{mode}\n")
            n_points += shape.points_per_span
            if code == unmapped_code:
                n_unmapped += shape.points_per_span
            else:
                per_code[code] += shape.points_per_span
        for lines in files:
            first = lines[0].rsplit(",", 2)
            name = (first[1] + first[2].strip()).replace("-", "").replace(":", "")
            (traj_dir / f"{name}.plt").write_text(PLT_HEADER + "".join(lines),
                                                   encoding="utf-8")
        (user_dir / "labels.txt").write_text("".join(labels), encoding="utf-8")

    expected = Expected(
        n_points=n_points + n_unlabeled,
        n_labeled=sum(per_code),
        n_unlabeled=n_unlabeled,
        n_unmapped=n_unmapped,
        n_segments=shape.users * shape.spans_per_user,
        labeled_per_code=per_code,
    )
    (root / "expected.json").write_text(
        json.dumps(expected.to_dict(), sort_keys=True) + "\n", encoding="utf-8")
    return expected
