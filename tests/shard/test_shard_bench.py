"""Tier-1 smoke of the bench harness's shard section (quick grid only)."""

from repro.shard import active_shard_dirs
from repro.utils.bench import SHARD_SIZES, _bench_shard, dense_footprint_mb


def test_quick_shard_rows():
    before = active_shard_dirs()
    rows = list(_bench_shard("quick", seed=0, repeats=1, workers=1))
    assert active_shard_dirs() == before  # no stray stores left behind
    # One dense and one sharded row per world.
    assert len(rows) == 2 * len(SHARD_SIZES["quick"])
    dense, sharded = rows
    assert (dense["store"], sharded["store"]) == ("dense", "sharded")
    assert sharded["bitwise_equal"] is True
    assert sharded["edges_shard_local"] >= 0.9
    assert sharded["build_s"] > 0
    for row in rows:
        assert row["variant"] == "smoke_world" and row["wall_s"] > 0
        # One count per vertex per propagation step (two steps configured).
        assert row["vertices_embedded"] == 2 * (
            row["graph"]["num_users"] + row["graph"]["num_items"]
        )
    assert set(sharded) >= {"num_shards", "workers", "wall_s", "vertices_per_sec"}


def test_dense_footprint_formula():
    # 1e6 vertices at the tracked full-mode spec: the floor the sharded
    # child's peak RSS is compared against must be nontrivially large.
    mb = dense_footprint_mb(600_000, 400_000, 4_800_000, 16)
    assert 250 < mb < 1000
    assert dense_footprint_mb(0, 0, 0, 16) < 0.001  # only empty indptrs
