"""Shared fixtures: synthetic GeoLife trees and separable datasets."""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from veclstm.ingest import Dataset
from veclstm.vectorizer import fit_stats, sample_cell_grids, vectorize_metadata

PLT_HEADER = "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n"


def plt_text(rows):
    """rows: list of (lat, lon, alt_feet, 'yyyy-mm-dd', 'HH:MM:SS')."""
    lines = [PLT_HEADER.rstrip("\n")]
    for lat, lon, alt, date, clock in rows:
        days = 39000.0  # serial field is parsed but unused
        lines.append(f"{lat},{lon},0,{alt},{days},{date},{clock}")
    return "\n".join(lines) + "\n"


def labels_text(spans):
    """spans: list of ('yyyy/mm/dd HH:MM:SS', same, mode)."""
    lines = ["Start Time\tEnd Time\tTransportation Mode"]
    for start, end, mode in spans:
        lines.append(f"{start}\t{end}\t{mode}")
    return "\n".join(lines) + "\n"


# --- damaged files ------------------------------------------------------

JUNK = st.text(alphabet="0123456789.-+e:/ ,x\"\n_", max_size=4)


def corrupt(text: str, data, header_lines: int, sep: str = ",") -> str:
    """text after up to three damages: a cell (between seps) replaced, a
    character edit, a dropped sep or a truncation."""
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["cell", "cell", "edit", "sep", "truncate"]))
        lines = text.split("\n")
        if kind == "cell" and len(lines) > header_lines:
            row = data.draw(st.integers(header_lines, len(lines) - 1))
            cells = lines[row].split(sep)
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(JUNK)
            lines[row] = sep.join(cells)
            text = "\n".join(lines)
        elif kind == "edit" and text:
            pos = data.draw(st.integers(0, len(text) - 1))
            width = data.draw(st.integers(0, 3))
            text = text[:pos] + data.draw(JUNK) + text[pos + width:]
        elif kind == "sep" and sep in text:
            seps = [i for i, ch in enumerate(text) if ch == sep]
            pos = data.draw(st.sampled_from(seps))
            text = text[:pos] + text[pos + 1:]
        elif kind == "truncate":
            text = text[:data.draw(st.integers(0, len(text)))]
    return text


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def utc_seconds(text: str, fmt: str = "%Y-%m-%d %H:%M:%S") -> int:
    return int(datetime.strptime(text, fmt).replace(tzinfo=timezone.utc).timestamp())


@pytest.fixture
def geolife_tree(tmp_path: Path) -> Path:
    return write_small_tree(tmp_path / "geolife")


def write_small_tree(root: Path) -> Path:
    """A GeoLife tree at root. Two users; user 000 has 5 points of which
    4 fall in labeled spans (3 walk + 1 bus), user 001 has 3 points all
    labeled train. One point of user 000 is outside every span and one
    span uses an unmapped mode.
    """
    u0 = root / "Data" / "000" / "Trajectory"
    u1 = root / "Data" / "001" / "Trajectory"
    u0.mkdir(parents=True)
    u1.mkdir(parents=True)

    (u0 / "20090310.plt").write_text(plt_text([
        (39.9000, 116.3000, 100, "2009-03-10", "12:00:00"),
        (39.9010, 116.3010, 110, "2009-03-10", "12:00:05"),
        (39.9020, 116.3020, -777, "2009-03-10", "12:00:10"),
        (39.9500, 116.3500, 130, "2009-03-10", "13:00:00"),  # bus span
        (39.9990, 116.3990, 140, "2009-03-10", "23:59:59"),  # unlabeled
    ]), encoding="utf-8")
    (root / "Data" / "000" / "labels.txt").write_text(labels_text([
        ("2009/03/10 12:00:00", "2009/03/10 12:30:00", "walk"),
        ("2009/03/10 13:00:00", "2009/03/10 13:30:00", "bus"),
        ("2009/03/10 14:00:00", "2009/03/10 14:30:00", "rollerblade"),
    ]), encoding="utf-8")

    (u1 / "20090401.plt").write_text(plt_text([
        (40.0000, 116.4000, 200, "2009-04-01", "08:00:00"),
        (40.0100, 116.4100, 210, "2009-04-01", "08:10:00"),
        (40.0200, 116.4200, 220, "2009-04-01", "08:20:00"),
    ]), encoding="utf-8")
    (root / "Data" / "001" / "labels.txt").write_text(labels_text([
        ("2009/04/01 08:00:00", "2009/04/01 09:00:00", "train"),
    ]), encoding="utf-8")
    return root


def separable_dataset(n: int, seed: int = 7, class_codes=(0, 1, 2),
                      sizes=None) -> Dataset:
    """Synthetic trajectory dataset with one tight spatial cluster per
    class, so both the density scalar and the grid cell identify the
    class. Cluster sizes differ so the density feature separates too.
    """
    rng = np.random.default_rng(seed)
    if sizes is None:
        weights = np.array([0.5, 0.3, 0.2][: len(class_codes)])
        weights = weights / weights.sum()
        sizes = np.floor(weights * n).astype(int)
        sizes[0] += n - sizes.sum()
    centers = [(0.05, 0.05), (0.55, 0.55), (0.95, 0.95), (0.25, 0.75),
               (0.75, 0.25), (0.45, 0.05), (0.05, 0.95)]
    lat, lon, label = [], [], []
    for code, size, center in zip(class_codes, sizes, centers):
        lat.append(center[0] + rng.normal(0, 0.004, size))
        lon.append(center[1] + rng.normal(0, 0.004, size))
        label.append(np.full(size, code, dtype=np.int64))
    lat, lon, label = (np.concatenate(col) for col in (lat, lon, label))
    alt = np.full(lat.size, 50.0)
    return Dataset(
        time=np.arange(1_200_000_000, 1_200_000_000 + lat.size, dtype=np.int64),
        lat=lat, lon=lon, alt=alt, label=label,
        user=np.array([f"u{code}" for code in label.tolist()], dtype=object),
        # the density metadata of the assembled cloud
        metadata=vectorize_metadata(sample_cell_grids(lat, lon, fit_stats(lat, lon))),
    )
