"""Unit tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

from repro.cli import load_dataset, main, save_dataset
from repro.data.generators import uniform


@pytest.fixture
def data_path(tmp_path):
    return save_dataset(uniform(120, 3, seed=1), str(tmp_path / "data"))


@pytest.fixture
def index_path(tmp_path, data_path):
    out = str(tmp_path / "index.npz")
    assert main(["build", "--data", data_path, "--out", out, "--theta", "16"]) == 0
    return out


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        dataset = uniform(40, 2, seed=2)
        path = save_dataset(dataset, str(tmp_path / "d"))
        loaded = load_dataset(path)
        assert loaded == dataset
        assert loaded.attribute_names == dataset.attribute_names


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = str(tmp_path / "gen.npz")
        code = main(["generate", "--kind", "G", "--n", "50", "--dims", "4",
                     "--out", out])
        assert code == 0
        assert load_dataset(out).dims == 4
        assert "50" in capsys.readouterr().out

    def test_generate_server(self, tmp_path):
        out = str(tmp_path / "srv.npz")
        assert main(["generate", "--kind", "server", "--n", "60",
                     "--out", out]) == 0
        assert load_dataset(out).attribute_names[0] == "count"

    def test_build_plain(self, tmp_path, data_path, capsys):
        out = str(tmp_path / "plain.npz")
        assert main(["build", "--data", data_path, "--out", out, "--plain"]) == 0
        assert "0 pseudo" in capsys.readouterr().out

    def test_query(self, index_path, capsys):
        code = main(["query", "--index", index_path,
                     "--weights", "0.5,0.3,0.2", "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-5" in out
        assert out.count("record ") == 5

    def test_query_compiled_engine_matches_reference(self, index_path, capsys):
        # The reference here is the exact snapshot scan, the ladder's oracle.
        argv = ["query", "--index", index_path,
                "--weights", "0.5,0.3,0.2", "--k", "5"]
        assert main(argv + ["--engine", "naive"]) == 0
        reference = capsys.readouterr().out
        assert main(argv + ["--engine", "compiled"]) == 0
        compiled = capsys.readouterr().out
        # Same ranked records and scores; only the timing line may differ.
        assert reference.splitlines()[1:] == compiled.splitlines()[1:]

    def test_query_engine_defaults_to_auto(self, index_path, capsys):
        argv = ["query", "--index", index_path,
                "--weights", "0.5,0.3,0.2", "--k", "5"]
        assert main(argv) == 0
        assert "compiled tier" in capsys.readouterr().out.splitlines()[0]
        with pytest.raises(SystemExit):
            main(argv + ["--engine", "reference"])

    def test_query_weight_dim_mismatch(self, index_path):
        with pytest.raises(SystemExit):
            main(["query", "--index", index_path, "--weights", "0.5,0.5"])

    def test_query_bad_weights(self, index_path):
        with pytest.raises(SystemExit):
            main(["query", "--index", index_path, "--weights", "a,b,c"])

    def test_inspect(self, index_path, capsys):
        assert main(["inspect", "--index", index_path, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "layers:" in out and "index OK" in out

    def test_query_reports_serving_tier(self, index_path, capsys):
        assert main(["query", "--index", index_path,
                     "--weights", "0.5,0.3,0.2", "--k", "3",
                     "--engine", "naive"]) == 0
        assert "naive tier" in capsys.readouterr().out

    def test_query_budget_exceeded_exits_3(self, index_path, capsys):
        code = main(["query", "--index", index_path,
                     "--weights", "0.5,0.3,0.2", "--k", "5",
                     "--budget-records", "2"])
        assert code == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_query_generous_budget_unchanged(self, index_path, capsys):
        argv = ["query", "--index", index_path,
                "--weights", "0.5,0.3,0.2", "--k", "5"]
        assert main(argv) == 0
        free = capsys.readouterr().out
        assert main(argv + ["--budget-records", "100000",
                            "--budget-ms", "60000", "--no-fallback"]) == 0
        budgeted = capsys.readouterr().out
        assert free.splitlines()[1:] == budgeted.splitlines()[1:]

    def test_doctor_healthy(self, index_path, capsys):
        assert main(["doctor", "--index", index_path]) == 0
        out = capsys.readouterr().out
        assert "index OK" in out

    def test_doctor_detects_and_repairs(self, index_path, tmp_path, capsys):
        from repro.testing.faults import tamper_array

        tamper_array(index_path, "edges", lambda e: e[::-1])
        assert main(["doctor", "--index", index_path]) == 2
        assert "CORRUPT" in capsys.readouterr().out
        out_path = str(tmp_path / "fixed.npz")
        assert main(["doctor", "--index", index_path,
                     "--repair", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "repaired index written" in out and "index OK" in out
        assert main(["query", "--index", out_path,
                     "--weights", "0.5,0.3,0.2", "--k", "3"]) == 0

    def test_doctor_missing_file(self, tmp_path, capsys):
        assert main(["doctor", "--index", str(tmp_path / "nope.npz")]) == 2
        assert "cannot read index" in capsys.readouterr().out

    def test_insert_and_delete(self, tmp_path, capsys):
        data = save_dataset(uniform(50, 2, seed=3), str(tmp_path / "d2"))
        index = str(tmp_path / "i2.npz")
        assert main(["build", "--data", data, "--out", index]) == 0
        assert main(["delete", "--index", index, "--record-id", "0"]) == 0
        assert main(["insert", "--index", index]) == 0
        capsys.readouterr()
        assert main(["inspect", "--index", index, "--validate"]) == 0
        assert "indexed: 50" in capsys.readouterr().out

    def test_insert_nothing_pending(self, index_path, capsys):
        assert main(["insert", "--index", index_path]) == 0
        assert "nothing to insert" in capsys.readouterr().out

    def test_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert main(["experiment", "--name", "cost-model"]) == 0
        assert "Theorem 3.2" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_init_probe_smoke(self, tmp_path, data_path, capsys):
        serve_dir = str(tmp_path / "serving")
        assert main(["serve", "--dir", serve_dir, "--init",
                     "--data", data_path, "--fsync", "batch"]) == 0
        assert "initialized" in capsys.readouterr().out

        assert main(["serve", "--dir", serve_dir, "--probe"]) == 0
        import json

        probe = json.loads(capsys.readouterr().out)
        assert probe["readiness"] == {"ready": True, "reasons": []}
        assert probe["health"]["status"] == "ok"
        assert probe["health"]["records"] == 120

        assert main(["serve", "--dir", serve_dir, "--smoke", "10",
                     "--fsync", "batch"]) == 0
        out = capsys.readouterr().out
        assert "10 mutations" in out
        assert "concurrent reads" in out

    def test_serve_init_requires_data(self, tmp_path):
        with pytest.raises(SystemExit, match="requires --data"):
            main(["serve", "--dir", str(tmp_path / "s"), "--init"])

    def test_serve_init_refuses_existing_directory(
        self, tmp_path, data_path
    ):
        serve_dir = str(tmp_path / "serving")
        assert main(["serve", "--dir", serve_dir, "--init",
                     "--data", data_path]) == 0
        with pytest.raises(FileExistsError):
            main(["serve", "--dir", serve_dir, "--init",
                  "--data", data_path])

    def test_serve_probe_unready_exits_1(self, tmp_path, data_path,
                                         monkeypatch, capsys):
        serve_dir = str(tmp_path / "serving")
        assert main(["serve", "--dir", serve_dir, "--init",
                     "--data", data_path]) == 0
        from repro.serve.index import ServingIndex

        real_readiness = ServingIndex.readiness

        def unready(self):
            doc = real_readiness(self)
            return {"ready": False, "reasons": doc["reasons"] + ["test"]}

        monkeypatch.setattr(ServingIndex, "readiness", unready)
        assert main(["serve", "--dir", serve_dir, "--probe"]) == 1

    def test_module_entry_point(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0
        assert "Dominant Graph" in completed.stdout


class TestDoctorServingDirectory:
    """``doctor --wal`` reads a serving directory's unfolded changes from
    the WAL suffix past ``CURRENT``; ``--store`` audits a store directory."""

    @pytest.fixture
    def served(self, tmp_path):
        from repro.core.builder import build_dominant_graph
        from repro.core.io import save_graph
        from repro.serve import ServingIndex

        graph = build_dominant_graph(uniform(260, 3, seed=4),
                                     record_ids=range(250))
        npz = save_graph(graph, str(tmp_path / "index.npz"))
        directory = str(tmp_path / "serve")
        index = ServingIndex.create(directory, graph, fsync="never")
        yield index, npz, os.path.join(directory, "wal.log")
        index.close(checkpoint=False)

    @staticmethod
    def _doctor(capsys, *argv):
        code = main(["doctor", *argv, "--format", "json"])
        return code, json.loads(capsys.readouterr().out)

    def test_wal_reports_pending_ops_until_checkpoint(self, served, capsys):
        index, npz, wal = served
        index.insert(250)
        index.delete(3)
        code, report = self._doctor(capsys, "--index", npz, "--wal", wal)
        assert code == 0
        assert report["wal"]["pending"] == {
            "applied_seq": 0,
            "ops": 2,
            "by_kind": {"delete": 1, "insert": 1},
            "first_seq": 1,
            "last_seq": 2,
        }
        assert index.compact() is True
        index.checkpoint()
        code, report = self._doctor(capsys, "--index", npz, "--wal", wal)
        assert code == 0
        assert report["wal"]["pending"]["applied_seq"] == 2
        assert report["wal"]["pending"]["ops"] == 0

    def test_torn_tail_is_still_reported(self, served, capsys):
        index, npz, wal = served
        index.insert(250)
        index.delete(3)
        with open(wal, "rb+") as handle:
            handle.truncate(os.path.getsize(wal) - 3)
        code, report = self._doctor(capsys, "--index", npz, "--wal", wal)
        assert code == 0
        assert report["wal"]["records"] == 1
        assert report["wal"]["torn_bytes"] > 0
        assert report["wal"]["pending"]["by_kind"] == {"insert": 1}
        assert main(["doctor", "--index", npz, "--wal", wal]) == 0
        out = capsys.readouterr().out
        assert "torn tail" in out and "1 op(s) past the checkpoint" in out

    def test_store_audits_a_fabric_spool(self, served, tmp_path, capsys):
        from repro.store.directory import StoreDirectory

        index, npz, _ = served
        spool = StoreDirectory(str(tmp_path / "spool"), keep=0)
        spool.publish_compiled(index.snapshot().compiled, durable=False)
        code, report = self._doctor(capsys, "--index", npz,
                                    "--store", spool.root)
        assert code == 0
        assert report["store"]["issues"] == []
        assert report["store"]["generation"] == 1

    def test_store_on_a_serving_directory_points_at_the_wal(
        self, served, capsys
    ):
        index, npz, wal = served
        index.insert(250)
        directory = os.path.dirname(wal)
        code, report = self._doctor(capsys, "--index", npz,
                                    "--store", directory)
        assert code == 0
        assert report["store"]["issues"] == []
        assert report["store"]["serving"] is True
        assert main(["doctor", "--index", npz, "--store", directory]) == 0
        out = capsys.readouterr().out
        assert "serving directory" in out and f"--wal {wal}" in out
