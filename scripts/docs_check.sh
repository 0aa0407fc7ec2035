#!/usr/bin/env bash
# Docs rot check: every module path, repo file path, and CLI command the
# user-facing docs mention must still resolve.
#
# Scans README.md and docs/*.md for
#   - dotted `repro.*` references        -> import the module prefix and
#     resolve any trailing attribute (so `repro.graphs.ArrayGraph` and
#     `repro.serve.ClusterScoringService.score` both count),
#   - backticked repo paths (scripts/, benchmarks/, tests/, docs/,
#     src/, examples/ or *.md/*.py/*.sh/*.json at the repo root)
#     -> must exist on disk,
#   - `repro <subcommand>` / `python -m repro <subcommand>` invocations
#     -> must be registered in repro.cli.
#
# Run by scripts/tier1.sh; exits non-zero with a list of dangling
# references so documentation cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python - <<'PYCHECK'
import re
import importlib
import sys
from pathlib import Path

DOCS = [Path("README.md"), *sorted(Path("docs").glob("*.md"))]
missing = [str(p) for p in DOCS if not p.exists()]
if missing:
    sys.exit(f"docs check: missing documentation files: {missing}")

failures = []

MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
PATH_RE = re.compile(
    r"`((?:scripts|benchmarks|tests|docs|src|examples)/[^`\s]+"
    r"|[A-Za-z0-9_.-]+\.(?:md|py|sh|json|ini))`"
)
# `(?<!from )` keeps Python `from repro import ...` lines from being
# read as CLI invocations.
CLI_RE = re.compile(r"(?<!from )(?:python -m )?\brepro ([a-z][a-z0-9-]*)\b")

from repro.cli import _COMMANDS  # the CLI's own registry

def resolve_dotted(dotted: str) -> bool:
    """Import the longest module prefix, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False

for doc in DOCS:
    text = doc.read_text()
    for dotted in sorted(set(MODULE_RE.findall(text))):
        if not resolve_dotted(dotted):
            failures.append(f"{doc}: unresolvable reference `{dotted}`")
    for path in sorted(set(PATH_RE.findall(text))):
        target = Path(path.split("::")[0])
        if not target.exists():
            failures.append(f"{doc}: missing path `{path}`")
    for command in sorted(set(CLI_RE.findall(text))):
        if command not in _COMMANDS:
            failures.append(f"{doc}: unknown CLI command `repro {command}`")

if failures:
    print("docs check FAILED:")
    print("\n".join(f"  {f}" for f in failures))
    sys.exit(1)
print(f"docs check ok: {', '.join(str(d) for d in DOCS)}")
PYCHECK
