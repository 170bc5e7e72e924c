"""Check ``BENCHMARK.json`` against the benchmark-manifest rules.

Run ``python3 nebench/manifest.py`` from anywhere; it prints each problem
and exits 1, or exits 0 when the manifest is valid.  Standard library
only, so it runs without the program.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import List

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
MAX_BOUND = 0.25
MAX_BYTES = 64 * 1024


def check(manifest: dict, size: int = 0) -> List[str]:
    """Every rule the manifest breaks (empty when it is valid)."""
    problems: List[str] = []
    if size > MAX_BYTES:
        problems.append(f"manifest is {size} bytes (limit {MAX_BYTES})")
    if set(manifest) != KEYS:
        return problems + [f"top-level keys must be exactly {sorted(KEYS)}"]

    command = manifest["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
    elif any(not isinstance(a, str) or not a or len(a) > 200 for a in command):
        problems.append("command arguments must be strings of 1 to 200 characters")
    elif any(a.startswith("/") or ".." in Path(a).parts for a in command):
        problems.append("command must not name absolute paths or leave the repository")

    paths = manifest["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and PATH.fullmatch(path)) or path.startswith("/") or ".." in path.split("/"):
                problems.append(f"bad path {path!r}")

    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and not isinstance(seconds, bool) and 1 <= seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names: List[str] = []
    for section, (low, high) in LIMITS.items():
        entries = manifest[section]
        if not (isinstance(entries, list) and low <= len(entries) <= high):
            problems.append(f"{section} must have {low} to {high} entries")
            continue
        for entry in entries:
            problems += _check_entry(section, entry)
            names.append(entry.get("name", ""))
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")

    setup = [e for e in manifest["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must declare setup_s in s, lower is better")
    elif any(e.get("bound", 0) > setup[0]["bound"] for e in manifest["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def _check_entry(section: str, entry: object) -> List[str]:
    if not isinstance(entry, dict):
        return [f"{section}: entries must be objects"]
    name = entry.get("name")
    where = f"{section}/{name}"
    expected = {
        "workloads": {"name", "why"},
        "end_to_end": {"name", "unit", "better", "bound"},
        "per_layer": {"name", "unit", "better"},
    }[section]
    if set(entry) != expected:
        return [f"{where}: keys must be exactly {sorted(expected)}"]
    problems = []
    if not (isinstance(name, str) and NAME.fullmatch(name)):
        problems.append(f"{where}: bad name")
    if section == "workloads":
        why = entry["why"]
        if not (isinstance(why, str) and why and len(why) <= 200 and "\n" not in why):
            problems.append(f"{where}: why must be one line of at most 200 characters")
        return problems
    if not (isinstance(entry["unit"], str) and UNIT.fullmatch(entry["unit"])):
        problems.append(f"{where}: bad unit")
    if entry["better"] not in ("lower", "higher"):
        problems.append(f"{where}: better must be lower or higher")
    if section == "end_to_end":
        bound = entry["bound"]
        if not (isinstance(bound, (int, float)) and 0 < bound <= MAX_BOUND):
            problems.append(f"{where}: bound must be in (0, {MAX_BOUND}]")
    return problems


def main() -> int:
    text = MANIFEST.read_text()
    problems = check(json.loads(text), len(text.encode()))
    for problem in problems:
        print(f"BENCHMARK.json: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
