"""Self-test of the benchmark: run every workload once at its shortest
length, with tracing off and on, and check the result lines.

    python3 bench/selftest.py            # all workloads
    python3 bench/selftest.py coherent   # some of them

Checks that BENCHMARK.json has the agreed shape; that each result line has
exactly the keys correct/attempted/failed/metrics, every metric of
BENCHMARK.json with its unit and nothing else, no failed op and a correct
run; that every function a workload is predicted to call has nonzero calls
in the traced run; and that the benchmark refuses to run (nonzero exit, no
result) in a directory holding only BENCHMARK.json and the benchmark files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 180


def check_spec(spec) -> list[str]:
    errors = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected_keys:
        errors.append(f"top-level keys {sorted(spec)}")
    if not (2 <= len(spec["workloads"]) <= 8):
        errors.append("2 to 8 workloads")
    if not (1 <= len(spec["end_to_end"]) <= 16) or not (1 <= len(spec["per_layer"]) <= 128):
        errors.append("metric counts out of range")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: keys or why")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            errors.append(f"metric {m['name']}: unit or better")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not (0 < m["bound"] <= 0.25):
            errors.append(f"end-to-end metric {m['name']}: keys or bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per-layer metric {m['name']}: keys")
    errors += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(names) != len(set(names)):
        errors.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    for p in spec["paths"]:
        if p.startswith("/") or ".." in p.split("/") or not (ROOT / p).is_dir():
            errors.append(f"path {p!r}")
    return errors


def run(cmd, cwd) -> tuple[int, str, str]:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def check_run(spec, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)]
    code, out, err = run(cmd, ROOT)
    where = f"{workload} trace={trace}"
    if code != 0:
        return [f"{where}: exit {code}: {err.strip()[-500:]}"]
    lines = out.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or detail["fail_frac"] != 0:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"ops={detail['op_failures'][:2]} gates={detail['gate_failures'][:2]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: metric names differ: {sorted(set(got) ^ set(wanted))}")
    for name, rec in got.items():
        value = rec.get("value")
        if rec.get("unit") != wanted.get(name) or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            errors.append(f"{where}: {name} = {rec}")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end metric {name} is {value}")
    if trace:
        silent = [n for n in detail["workload"]["predicted_calls"]
                  if got.get(f"{n}.calls", {}).get("value", 0) <= 0]
        if silent:
            errors.append(f"{where}: predicted functions with no calls: {silent}")
    return errors


def check_bare(spec) -> list[str]:
    """The benchmark must refuse to run without the qlattice sources."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        code, out, _ = run(spec["command"] + ["--workload", workload, "--seed", "1",
                                              "--seconds", "1", "--trace", "0"], tmp)
    if code == 0 or out.strip():
        return [f"bare directory: exit {code}, stdout {out.strip()[-200:]!r}"]
    return []


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    errors += check_bare(spec)
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    for e in errors:
        print(f"  {e}")
    print("selftest:", "ok" if not errors else f"{len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
