"""Tests for the disk-cache tier's fail-fast configuration errors."""

import os

import pytest

from repro.cli import main
from repro.core.exceptions import CacheConfigurationError, ReproError
from repro.runtime.diskcache import DiskSolveCache


@pytest.fixture(autouse=True)
def clean_cache_state():
    """Keep --cache-dir experiments from leaking a configured disk tier."""
    from repro.runtime import configure_disk_cache

    yield
    configure_disk_cache(None)


class TestDiskCacheFailFast:
    def test_file_shadowed_path_is_configuration_error(self, tmp_path):
        shadow = tmp_path / "cache"
        shadow.write_text("not a directory")
        with pytest.raises(CacheConfigurationError, match="not a directory"):
            DiskSolveCache(str(shadow))

    def test_configuration_error_is_both_repro_and_os_error(self, tmp_path):
        shadow = tmp_path / "cache"
        shadow.write_text("x")
        with pytest.raises(ReproError):
            DiskSolveCache(str(shadow))
        with pytest.raises(OSError):
            DiskSolveCache(str(shadow))

    @pytest.mark.skipif(
        os.geteuid() == 0, reason="permission checks are bypassed as root"
    )
    def test_unwritable_directory_is_configuration_error(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir()
        root.chmod(0o500)
        try:
            with pytest.raises(CacheConfigurationError, match="not writable"):
                DiskSolveCache(str(root))
        finally:
            root.chmod(0o700)

    def test_valid_directory_probe_leaves_no_droppings(self, tmp_path):
        cache = DiskSolveCache(str(tmp_path / "cache"))
        version_dir = os.path.join(cache.root, cache.version_tag)
        assert os.listdir(version_dir) == []  # the write probe cleaned up

    def test_cli_cache_dir_pointing_at_file_is_usage_error(self, tmp_path, capsys):
        shadow = tmp_path / "cache"
        shadow.write_text("x")
        with pytest.raises(SystemExit) as excinfo:
            main(["--cache-dir", str(shadow), "cache", "stats"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot use --cache-dir" in err
        assert "not a directory" in err
