import gzip
import json

import pytest

from netclass.cli import main
from netclass.datasets import FETCH_TIMEOUT_S, MANIFEST, fetch_dataset
from netclass.errors import DatasetError

TOY = "# toy graph\n0 1\n1 2\n2 0\n"


def toy_manifest(tmp_path, nodes=3, edges=3, gz=True):
    payload = TOY.encode()
    if gz:
        source = tmp_path / "toy.txt.gz"
        source.write_bytes(gzip.compress(payload))
    else:
        source = tmp_path / "toy.txt"
        source.write_bytes(payload)
    return {"toy": {"url": source.as_uri(), "nodes": nodes, "edges": edges,
                    "directed": False}}


class TestFetchDataset:
    def test_download_decompress_verify(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        cache = tmp_path / "cache"
        res = fetch_dataset("toy", cache_dir=cache, manifest=manifest)
        assert res.verified and not res.from_cache
        assert res.n == 3 and res.m == 3
        assert (cache / "toy.txt").read_text() == TOY

    def test_second_call_hits_cache(self, tmp_path):
        manifest = toy_manifest(tmp_path)
        cache = tmp_path / "cache"
        fetch_dataset("toy", cache_dir=cache, manifest=manifest)
        # break the source: a cache hit must not touch it
        for f in tmp_path.glob("toy.txt.gz"):
            f.unlink()
        res = fetch_dataset("toy", cache_dir=cache, manifest=manifest)
        assert res.from_cache and res.verified

    def test_count_mismatch_keeps_file_with_marker(self, tmp_path):
        manifest = toy_manifest(tmp_path, nodes=99)
        cache = tmp_path / "cache"
        res = fetch_dataset("toy", cache_dir=cache, manifest=manifest)
        assert not res.verified
        assert (cache / "toy.txt").exists()
        marker = cache / "toy.txt.unverified"
        assert marker.exists() and "99" in marker.read_text()

    def test_symmetrization_note_flagged_not_failed(self, tmp_path):
        # published edge count (5) matches neither the deduplicated
        # total (3) nor the raw line count (4): flagged, not fatal
        text = "0 1\n1 0\n1 2\n2 0\n"
        source = tmp_path / "d.txt"
        source.write_text(text)
        manifest = {"d": {"url": source.as_uri(), "nodes": 3, "edges": 5,
                          "directed": True}}
        res = fetch_dataset("d", cache_dir=tmp_path / "c", manifest=manifest)
        assert res.verified  # node count is authoritative
        assert res.note is not None and "symmetrization" in res.note

    def test_unknown_name(self, tmp_path):
        with pytest.raises(DatasetError, match="unknown dataset"):
            fetch_dataset("nope", cache_dir=tmp_path)

    def test_network_failure_cold_cache(self, tmp_path):
        manifest = {"gone": {"url": (tmp_path / "missing.gz").as_uri(),
                             "nodes": 1, "edges": 0, "directed": False}}
        with pytest.raises(DatasetError, match="could not retrieve"):
            fetch_dataset("gone", cache_dir=tmp_path / "c", manifest=manifest)

    def test_download_waits_the_module_timeout(self, tmp_path, monkeypatch):
        import urllib.request

        waits = []

        def refuse(url, timeout):
            waits.append(timeout)
            raise OSError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with pytest.raises(DatasetError, match="could not retrieve"):
            fetch_dataset("toy", cache_dir=tmp_path / "c",
                          manifest=toy_manifest(tmp_path))
        assert waits == [FETCH_TIMEOUT_S] == [120.0]

    def test_failed_fetch_creates_no_cache_dir(self, tmp_path):
        manifest = {"gone": {"url": (tmp_path / "missing.gz").as_uri(),
                             "nodes": 1, "edges": 0, "directed": False}}
        cache = tmp_path / "new" / "cache"
        with pytest.raises(DatasetError, match="could not retrieve"):
            fetch_dataset("gone", cache_dir=cache, manifest=manifest)
        assert not (tmp_path / "new").exists()

    def test_real_manifest_entries_complete(self):
        assert set(MANIFEST) == {"email-Enron", "p2p-Gnutella04", "wiki-Vote",
                                 "ca-GrQc"}
        for entry in MANIFEST.values():
            assert set(entry) == {"url", "nodes", "edges", "directed"}


class TestFetchCli:
    def test_fetch_with_prepopulated_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        # a stand-in file: verification fails but the command succeeds
        (cache / "ca-GrQc.txt").write_text(TOY)
        code = main(["fetch", "ca-GrQc", "--cache-dir", str(cache)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["from_cache"] is True
        assert doc["verified"] is False

    def test_fetch_cold_cache_without_network_fails_cleanly(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        import urllib.request

        def refuse(*a, **k):
            raise OSError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        code = main(["fetch", "ca-GrQc", "--cache-dir", str(tmp_path / "c")])
        assert code == 1
        assert "could not retrieve" in capsys.readouterr().err
