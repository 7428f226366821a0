"""perfbench's tracer counts fallbacks from the shape of ``run_documents``' result.

A traced ``link`` run in a fresh process must still hook ``run_documents``,
resolve every span target but the known missing ones, and count exactly
the mentions whose outcome fell back to degree order.
"""

import json
import subprocess
import sys
from pathlib import Path

from eigenlink.synth import SynthConfig, generate
from tests.conftest import load_corpus
from tests.test_perfbench_targets import KNOWN_MISSING

ROOT = Path(__file__).resolve().parents[1]


def test_traced_link_counts_every_degree_fallback(tmp_path):
    corpus_dir = tmp_path / "corpus"
    cfg = SynthConfig(docs=3, mentions_per_doc=4, candidates_per_mention=5, d=16, rank=2, seed=7)
    manifest = generate(cfg, str(corpus_dir))
    # Without embeddings for any of its candidates, this mention falls back to degree order.
    dropped = set(manifest["documents"][0]["mentions"][0]["candidates"])
    embeddings = corpus_dir / "embeddings.txt"
    header, *rows = embeddings.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [row for row in rows if row.split(" ", 1)[0] not in dropped]
    embeddings.write_text(f"{len(kept)} {header.split()[1]}\n" + "".join(kept), encoding="utf-8")

    result = tmp_path / "result.json"
    link = ["link", "--method", "eigen", "--dataset", str(corpus_dir / "dataset.jsonl")]
    link += ["--catalog", str(corpus_dir / "catalog.jsonl"), "--embeddings", str(embeddings)]
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(ROOT / "src")]
    cmd += ["--result", str(result), "--trace", "--", *link, "--out", str(tmp_path / "out")]
    subprocess.run(cmd, check=True, timeout=120, capture_output=True)
    traced = json.loads(result.read_text(encoding="utf-8"))

    _, outcomes, _ = load_corpus(str(corpus_dir), manifest).run("eigen")
    fallbacks = sum(o.fallback == "degree" for o in outcomes)
    assert fallbacks >= 1
    assert traced["rc"] == 0
    assert traced["hook_calls"] >= 1
    assert sorted(traced["missing"]) == sorted(f"{module}.{name}" for module, name in KNOWN_MISSING)
    assert traced["layers"]["pipeline.fallback_mentions"] == fallbacks
