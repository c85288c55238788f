"""The command line's output on the fixed corpus of ``tools/cli_corpus.py`` is pinned.

``tools/cli_corpus.sha256`` holds the digest of every group and the total.  A
change that alters the output on purpose updates that file in the same commit:

    PYTHONPATH=src python tools/cli_corpus.py | awk '{print $1"  "$NF}' > tools/cli_corpus.sha256

The corpus holds no argparse help or error text: that text differs between
CPython versions.  ``tests/test_cli.py`` compares it between the two parser
paths in one interpreter instead.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from bosonfermion import cli

ROOT = Path(__file__).resolve().parents[1]


def digests(text: str) -> dict[str, str]:
    """Digest by group name: the first and last word of each line, of the tool's output or the pin."""
    return {line.split()[0]: line.split()[-1] for line in text.splitlines() if line.strip()}


def test_cli_corpus_matches_the_pinned_digests():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_corpus.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    pinned = digests((ROOT / "tools" / "cli_corpus.sha256").read_text())
    got = digests(proc.stdout)
    assert list(got) == list(pinned), "the corpus has other groups than the pin"
    changed = [name for name in pinned if got[name] != pinned[name]]
    assert not changed, f"output changed in group(s): {', '.join(changed)}"


def test_the_corpus_has_one_group_per_subcommand():
    spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    assert set(corpus.GROUPS) == set(cli.SUBCOMMANDS)
    for name, calls in corpus.GROUPS.items():
        assert {argv[0] for argv in calls()} == {name}
