"""The demos regenerate the tracked `demos/output/` byte for byte, and print
the same text whatever the string-hash seed."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_demos_reproduce_tracked_outputs(tmp_path):
    scripts = sorted(DEMOS.glob("*.py"))
    assert len(scripts) == 4
    for script in scripts:
        shutil.copy(script, tmp_path / script.name)
    golden = _tree(DEMOS / "output")
    stdout = {}
    for hash_seed in ("1", "2"):
        shutil.rmtree(tmp_path / "output", ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=hash_seed)
        stdout[hash_seed] = []
        for script in scripts:
            run = subprocess.run(
                [sys.executable, script.name], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=600,
            )
            assert run.returncode == 0, f"{script.name}:\n{run.stderr}"
            stdout[hash_seed].append(run.stdout)
        got = _tree(tmp_path / "output")
        assert sorted(got) == sorted(golden)
        changed = [name for name in golden if got[name] != golden[name]]
        assert not changed, f"PYTHONHASHSEED={hash_seed}: {changed} differ"
    assert stdout["1"] == stdout["2"]
