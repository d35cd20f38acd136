import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "bench" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


@pytest.fixture()
def export(tmp_path):
    """A checkout exported without git: two sources and a bytecode cache."""
    root = tmp_path / "export"
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "a.py").write_text("A = 1\n")
    (root / "src" / "pkg" / "b.py").write_text("B = 2\n")
    (root / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0cache")
    (root / ".gitignore").write_text("__pycache__/\n")
    return root


def _expected_sha256(root):
    h = hashlib.sha256()
    for name in ("src/pkg/a.py", "src/pkg/b.py"):
        h.update(name.encode() + b"\0" + (root / name).read_bytes() + b"\0")
    return h.hexdigest()


def test_export_hashes_the_files_under_src(export):
    assert not record.is_checkout(export)
    assert record.src_sha256(export) == _expected_sha256(export)


def test_export_and_checkout_of_one_tree_hash_alike(export):
    subprocess.run(["git", "init", "-q", str(export)], check=True)
    assert record.is_checkout(export)
    assert record.src_sha256(export) == _expected_sha256(export)


def test_export_records_null_commit(export, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.setattr(record, "ROOT", out)
    monkeypatch.setattr(record, "run_workload",
                        lambda checkout, workload: ({}, {"correct": True, "metrics": {}}))
    assert record.main(["t", "--checkout", str(export)]) == 0
    doc = json.loads((out / "BENCH_t.json").read_text())
    assert doc["commit"] is None and doc["sources_modified"] is None
    assert doc["src_sha256"] == _expected_sha256(export)
    assert set(doc["workloads"]) == set(record.WORKLOADS)
