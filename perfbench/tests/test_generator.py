from pathlib import Path

from perfbench.generator import MODES, TreeShape, write_geolife_tree

SHAPE = TreeShape(users=3, spans_per_user=14, points_per_span=6, spans_per_file=4)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_tree(tmp_path):
    write_geolife_tree(tmp_path / "a", 5, SHAPE)
    write_geolife_tree(tmp_path / "b", 5, SHAPE)
    write_geolife_tree(tmp_path / "c", 6, SHAPE)
    a, b, c = (tree_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a != c


def test_expected_counts_match_ingest(tmp_path):
    from veclstm.ingest import ingest_geolife

    expected = write_geolife_tree(tmp_path / "tree", 9, SHAPE)
    assert expected.n_unlabeled > 0
    assert expected.n_unmapped == SHAPE.users * SHAPE.points_per_span
    assert all(count > 0 for count in expected.labeled_per_code)
    assert len(expected.labeled_per_code) == len(MODES)

    result = ingest_geolife(tmp_path / "tree", strict=True)
    assert result.n_points == expected.n_points
    assert result.n_labeled == expected.n_labeled == sum(expected.labeled_per_code)
    assert expected.n_points == expected.n_labeled + expected.n_unlabeled + expected.n_unmapped
