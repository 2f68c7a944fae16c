"""``temporary_cache_dir`` sets ``REPRO_CACHE_DIR`` for a block and puts
the previous value back."""

import os

from repro.datasets import diskcache


class TestCacheDirSelection:
    def test_temporary_cache_dir_restores_the_previous_value(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "outer"))
        with diskcache.temporary_cache_dir(tmp_path / "inner") as inner:
            assert (os.environ[diskcache.CACHE_DIR_ENV] == inner
                    == str(tmp_path / "inner"))
        assert os.environ[diskcache.CACHE_DIR_ENV] == str(tmp_path / "outer")
        monkeypatch.delenv(diskcache.CACHE_DIR_ENV)
        with diskcache.temporary_cache_dir(tmp_path / "inner"):
            pass
        assert diskcache.CACHE_DIR_ENV not in os.environ
