"""Tests for persistent-cache load failure reporting (obs satellite)."""

import pickle

from repro.buildcache.cache import BuildCache, _PICKLE_VERSION


class TestLoadErrors:
    def test_missing_file_is_quiet(self, tmp_path, caplog):
        with caplog.at_level("DEBUG", logger="repro.buildcache"):
            cache = BuildCache.load(str(tmp_path / "absent.cache"))
        assert cache.stats.load_errors == 0
        assert not any(record.levelname == "WARNING"
                       for record in caplog.records)

    def test_corrupt_pickle_counts_and_warns(self, tmp_path, caplog):
        path = tmp_path / "rotten.cache"
        path.write_bytes(b"\x80\x04this is not a pickle at all")
        with caplog.at_level("WARNING", logger="repro.buildcache"):
            cache = BuildCache.load(str(path))
        assert cache.stats.load_errors == 1
        warning = next(record for record in caplog.records
                       if record.levelname == "WARNING")
        message = warning.getMessage()
        assert "starting empty" in message
        assert str(path) in message

    def test_truncated_pickle_counts(self, tmp_path):
        source = tmp_path / "good.cache"
        cache = BuildCache()
        cache.save(str(source))
        truncated = tmp_path / "cut.cache"
        truncated.write_bytes(source.read_bytes()[:20])
        loaded = BuildCache.load(str(truncated))
        assert loaded.stats.load_errors == 1

    def test_version_mismatch_counts(self, tmp_path, caplog):
        path = tmp_path / "old.cache"
        with open(path, "wb") as handle:
            pickle.dump({"version": -1}, handle)
        with caplog.at_level("WARNING", logger="repro.buildcache"):
            cache = BuildCache.load(str(path))
        assert cache.stats.load_errors == 1
        assert "incompatible payload" in caplog.text
        assert str(_PICKLE_VERSION) in caplog.text

    def test_version_2_store_is_refused(self, tmp_path):
        path = tmp_path / "v2.cache"
        cache = BuildCache()
        cache._slots["probe"] = "a v2 entry"
        cache.save(str(path))
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = 2
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        loaded = BuildCache.load(str(path))
        assert loaded.stats.load_errors == 1
        assert len(loaded._slots) == 0

    def test_non_dict_payload_counts(self, tmp_path):
        path = tmp_path / "list.cache"
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        assert BuildCache.load(str(path)).stats.load_errors == 1

    def test_load_errors_render_in_stats(self, tmp_path):
        path = tmp_path / "bad.cache"
        path.write_bytes(b"junk")
        cache = BuildCache.load(str(path))
        assert "load errors : 1" in cache.stats.render()
        pristine = BuildCache()
        assert "load errors" not in pristine.stats.render()

    def test_good_round_trip_stays_clean(self, tmp_path):
        path = str(tmp_path / "fine.cache")
        BuildCache().save(path)
        assert BuildCache.load(path).stats.load_errors == 0
