"""Which modules a process loads. Each check runs in a fresh interpreter,
because this one already holds every hypervad module."""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypervad.synth import gen_synthetic

SRC = str(Path(__file__).resolve().parents[1] / "src")
HTTP_TRANSPORT = {"hypervad.remote", "http.server", "http.client", "ssl"}


def loaded_by(code: str) -> set:
    """The modules that running ``code`` adds to a fresh interpreter's sys.modules."""
    script = (
        "import json, sys\nbefore = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    # the child does not read pytest's pythonpath setting, so it gets src here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env, timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


def package_modules(modules: set) -> set:
    return {m for m in modules if m == "hypervad" or m.startswith("hypervad.")}


def test_package_root_loads_no_submodule():
    assert package_modules(loaded_by("import hypervad")) == {"hypervad"}


def test_stub_run_loads_no_http_transport(tmp_path):
    data, out = tmp_path / "data", tmp_path / "run"
    gen_synthetic(data, n_segments=20)
    loaded = loaded_by(
        "import hypervad.pipeline as p\n"
        f"p.run_pipeline(p.RunManifest(visual_path={str(data / 'visual.emb')!r}, "
        f"text_path={str(data / 'text.emb')!r}, captions_path={str(data / 'captions.jsonl')!r}, "
        f"labels_path={str(data / 'labels.csv')!r}, out_dir={str(out)!r}))"
    )
    assert (out / "scores.csv").is_file()
    assert "hypervad.pipeline" in loaded
    assert loaded & HTTP_TRANSPORT == set()


def test_scorer_server_imports_load_no_pipeline_module():
    # the imports of perfbench/scorer_proc.py
    loaded = loaded_by("from hypervad import remote\nfrom hypervad.prompt_opt import StubScorer")
    assert package_modules(loaded) == {"hypervad", "hypervad.core", "hypervad.prompt_opt", "hypervad.remote"}
