"""ShardedCSR storage: round-trips, lifecycle, block access."""

import os

import numpy as np
import pytest

from repro.graph import BipartiteGraph
from repro.graph.generators import random_bipartite
from repro.shard import ShardedCSR, active_shard_dirs


def _world(seed=0, users=80, items=60, edges=400):
    return random_bipartite(users, items, edges, feature_dim=5, rng=seed)


def _edge_table(graph):
    order = np.lexsort((graph.edges[:, 1], graph.edges[:, 0]))
    return graph.edges[order], graph.edge_weights[order]


def _assert_same_graph(a, b):
    assert (a.num_users, a.num_items, a.num_edges) == (
        b.num_users,
        b.num_items,
        b.num_edges,
    )
    ea, wa = _edge_table(a)
    eb, wb = _edge_table(b)
    assert np.array_equal(ea, eb)
    assert np.array_equal(wa, wb)


class TestRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 4, 17])
    def test_to_sharded_from_sharded(self, tmp_path, num_shards):
        graph = _world()
        store = graph.to_sharded(tmp_path / "s", num_shards=num_shards)
        try:
            assert store.num_shards == num_shards
            assert store.num_edges == graph.num_edges
            back = BipartiteGraph.from_sharded(tmp_path / "s")
            _assert_same_graph(graph, back)
            assert np.array_equal(graph.user_features, back.user_features)
            assert np.array_equal(graph.item_features, back.item_features)
        finally:
            store.destroy()
        assert not (tmp_path / "s").exists()

    def test_empty_shards_roundtrip(self, tmp_path):
        # Every vertex on shard 0 of 3: shards 1 and 2 hold zero rows.
        graph = _world(users=10, items=8, edges=30)
        user_shard = np.zeros(10, dtype="<i4")
        item_shard = np.zeros(8, dtype="<i4")
        with graph.to_sharded(
            tmp_path / "s", num_shards=3, user_shard=user_shard, item_shard=item_shard
        ) as store:
            assert store.edges_shard_local == 1.0
            assert len(store.shard_rows("user", 1)) == 0
            assert len(store.shard_rows("item", 2)) == 0
            _assert_same_graph(graph, store.to_graph())

    def test_isolated_vertices_roundtrip(self, tmp_path):
        # Vertices with degree 0 must survive the trip with their ids.
        graph = BipartiteGraph(6, 5, np.array([[0, 0], [0, 2], [5, 4]]))
        with graph.to_sharded(tmp_path / "s", num_shards=4) as store:
            back = store.to_graph()
            _assert_same_graph(graph, back)
            assert np.array_equal(store.degrees("user"), graph.user_degrees())
            assert np.array_equal(store.degrees("item"), graph.item_degrees())

    def test_per_row_neighbor_order_preserved(self, tmp_path):
        graph = _world(seed=3)
        with graph.to_sharded(tmp_path / "s", num_shards=5) as store:
            for user in range(graph.num_users):
                ids, weights = store.neighbors("user", user)
                assert np.array_equal(ids, graph.item_neighbors(user))
                assert np.array_equal(weights, graph.item_neighbor_weights(user))
            for item in range(graph.num_items):
                ids, weights = store.neighbors("item", item)
                assert np.array_equal(ids, graph.user_neighbors(item))
                assert np.array_equal(weights, graph.user_neighbor_weights(item))


class TestLifecycle:
    def test_existing_store_refused(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        with graph.to_sharded(tmp_path / "s", num_shards=2):
            with pytest.raises(FileExistsError):
                graph.to_sharded(tmp_path / "s", num_shards=2)

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedCSR.open(tmp_path / "nope")

    def test_owner_registered_until_destroy(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        store = graph.to_sharded(tmp_path / "s", num_shards=2)
        assert str(tmp_path / "s") in active_shard_dirs()
        store.destroy()
        assert str(tmp_path / "s") not in active_shard_dirs()
        store.destroy()  # idempotent

    def test_close_keeps_files_and_blocks_access(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        store = graph.to_sharded(tmp_path / "s", num_shards=2)
        try:
            attached = ShardedCSR.open(tmp_path / "s")
            attached.close()
            assert (tmp_path / "s").exists()  # non-owner close never deletes
            with pytest.raises(ValueError):
                attached.neighbors("user", 0)  # block reads refuse once closed
            attached.close()  # idempotent
        finally:
            store.destroy()

    def test_attached_handle_sees_same_data(self, tmp_path):
        graph = _world(seed=5, users=20, items=15, edges=90)
        with graph.to_sharded(tmp_path / "s", num_shards=3) as store:
            attached = ShardedCSR.open(tmp_path / "s")
            try:
                assert attached.num_edges == store.num_edges
                assert attached.partition == store.partition
                _assert_same_graph(store.to_graph(), attached.to_graph())
            finally:
                attached.close()

    def test_side_validation(self, tmp_path):
        graph = _world(users=10, items=8, edges=20)
        with graph.to_sharded(tmp_path / "s", num_shards=2) as store:
            with pytest.raises(ValueError):
                store.degrees("query")
            with pytest.raises(ValueError):
                store.neighbors("both", 0)


class TestFaults:
    def test_failed_manifest_rename_leaves_no_manifest(self, tmp_path, monkeypatch):
        graph = _world(users=10, items=8, edges=20)

        def crash(src, dst):
            raise OSError("simulated crash while renaming the manifest")

        monkeypatch.setattr("repro.shard.storage.os.replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            graph.to_sharded(tmp_path / "s", num_shards=2)
        monkeypatch.undo()
        assert not (tmp_path / "s" / "manifest.json").exists()
        assert not list((tmp_path / "s").glob(".manifest*"))  # temp file removed
        with pytest.raises(FileNotFoundError):
            ShardedCSR.open(tmp_path / "s")

    def test_manifest_mode_matches_blocks(self, tmp_path):
        # The manifest is as readable as the blocks it describes, so a
        # store another user may open stays openable.
        with _world(users=10, items=8, edges=20).to_sharded(tmp_path / "s", num_shards=2):
            manifest = (tmp_path / "s" / "manifest.json").stat().st_mode & 0o777
            block = (tmp_path / "s" / "user_000.indices.bin").stat().st_mode & 0o777
        assert manifest == block

    def test_manifest_rename_fsyncs_store_dir(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "s"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr("repro.shard.storage.os.fsync", fsync)
        with _world(users=10, items=8, edges=20).to_sharded(store_dir, num_shards=2):
            assert synced[-1] == store_dir.stat().st_ino

    def test_truncated_block_names_file_and_sizes(self, tmp_path):
        graph = _world(seed=1)
        with graph.to_sharded(tmp_path / "s", num_shards=2):
            block = tmp_path / "s" / "user_000.indices.bin"
            size = block.stat().st_size
            with open(block, "r+b") as fh:
                fh.truncate(size // 2)
            attached = ShardedCSR.open(tmp_path / "s")
            try:
                with pytest.raises(ValueError, match="user_000.indices.bin") as err:
                    attached.to_graph()
                assert f"holds {size // 2} bytes, expected {size}" in str(err.value)
            finally:
                attached.close()
