"""The command-line experiment runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.size == "small"
        assert args.seed == 0

    def test_table3_methods_parsed(self):
        args = build_parser().parse_args(["table3", "--methods", "ge,hignn"])
        assert args.methods == "ge,hignn"

    def test_invalid_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--size", "huge"])


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "mini-taobao1" in out
        assert "mini-taobao3" in out

    def test_table3_rejects_unknown_method(self, capsys):
        assert main(["table3", "--methods", "nonsense", "--size", "tiny"]) == 2

    def test_table3_tiny_run(self, capsys):
        code = main(
            ["table3", "--size", "tiny", "--methods", "ge", "--epochs", "1",
             "--levels", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ge=" in out

    def test_bench_writes_report(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.utils import bench

        # Shrink the workload grid: this exercises the wiring, not perf.
        monkeypatch.setitem(bench.GRAPH_SIZES, "quick", [(40, 30, 120)])
        monkeypatch.setitem(bench.KMEANS_SIZES, "quick", [(60, 4, 5)])
        monkeypatch.setitem(
            bench.SHARD_SIZES,
            "quick",
            [{"users": 120, "items": 90, "clusters": 6, "shards": 3, "degree": 4.0}],
        )
        monkeypatch.setitem(
            bench.SERVING_SIZES,
            "quick",
            {
                "graph": (50, 40, 200),
                "requests": 60,
                "k": 5,
                "visitors": 25,
                "delta_edges": 2,
                "refresh_batch": 16,
            },
        )
        out = tmp_path / "bench.json"
        code = main(["bench", "--mode", "quick", "--repeats", "1",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "hot-path benchmark" in printed
        assert f"wrote {out}" in printed
        data = json.loads(out.read_text())
        assert data["schema"] == bench.SCHEMA
        assert "git_commit" in data
        assert set(data["benchmarks"]) == {
            "embed_all", "train_epoch", "weighted_sampling", "kmeans",
            "parallel", "score_topk", "shard", "serving",
        }
        serving_variants = {
            row["variant"] for row in data["benchmarks"]["serving"]
        }
        assert serving_variants == {"replay", "full_embed", "delta_refresh", "run_day"}
        for row in data["benchmarks"]["parallel"]:
            assert row["workers_effective"] >= 1
            assert isinstance(row["degraded"], bool)
        assert data["benchmarks"]["embed_all"][0]["vertices_per_sec"] > 0


class TestServeCommand:
    def test_serve_runs_and_prints_rounds(self, capsys):
        code = main(
            ["serve", "--users", "60", "--items", "40", "--edges", "240",
             "--rounds", "2", "--requests", "50", "--batch-size", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warmed 60x40 graph" in out
        assert "round" in out
        assert "total: 100 requests" in out

    def test_serve_json_report(self, capsys):
        import json

        code = main(
            ["serve", "--users", "60", "--items", "40", "--edges", "240",
             "--rounds", "2", "--requests", "50", "--batch-size", "16",
             "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["rounds"]) == 2
        assert data["total_requests"] == 100
        assert 0.0 <= data["hit_rate"] <= 1.0
        for row in data["rounds"]:
            assert row["refresh_mode"] in {"delta", "full"}
            assert row["req_per_sec"] > 0

    def test_serve_several_new_users_per_round(self, capsys):
        import json

        code = main(
            ["serve", "--users", "60", "--items", "40", "--edges", "240",
             "--rounds", "2", "--requests", "50", "--batch-size", "16",
             "--new-users", "3", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["cold_requests"] for row in data["rounds"]] == [3, 3]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.rounds == 4
        assert args.refresh_every == 1


class TestBenchParser:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.mode == "quick"
        assert args.out == "BENCH_hotpaths.json"
        assert args.repeats == 3

    def test_bench_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--mode", "huge"])
