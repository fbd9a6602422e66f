"""Every benchmark workload writes its recorded files by two more routes:
each command of ``bench/workloads.py``, at the recorded seed, with ``--jobs
2`` appended and with its flags as ``--config`` JSON, must write the digests
of ``bench/digests.json`` (both files are only read).  Run it as ``python
tests/digest_routes.py``; it exits 1 on a failed command or a differing digest.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import DETERMINISTIC_FILES, WORKLOADS, command_argv, digest_key, sha256


def _config(argv, out: Path) -> list:
    flags = {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}
    path = out.with_suffix(".config.json")
    path.write_text(json.dumps({k: int(v) if v.isdigit() else v for k, v in flags.items()}))
    return [argv[0], "--config", str(path)]


ROUTES = {"jobs 2": lambda argv, out: list(argv) + ["--jobs", "2"], "config JSON": _config}


def main() -> int:
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    checked = bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for route, route_argv in ROUTES.items():
            for workload in WORKLOADS.values():
                for argv in workload.commands:
                    out = Path(tmp) / route.replace(" ", "-") / workload.name / argv[0]
                    out.parent.mkdir(parents=True, exist_ok=True)
                    done = subprocess.run(
                        [sys.executable, "-m", "ctmkit.cli",
                         *command_argv(route_argv(argv, out), recorded["seed"], out)],
                        env=env, capture_output=True, text=True, check=False)
                    if done.returncode != 0:
                        print(f"exit {done.returncode}: {done.stderr.strip()}")
                    for name in DETERMINISTIC_FILES[argv[0]]:
                        key = digest_key(workload.name, argv[0], name)
                        ok = done.returncode == 0 and sha256(out / name) == recorded["files"][key]
                        checked, bad = checked + 1, bad + (not ok)
                        print(f"{'ok' if ok else 'MISMATCH':8} {route:11}  {key}", flush=True)
    print(f"{checked} files, {bad} mismatched")
    # every recorded digest is checked on every route
    return 1 if bad or checked != len(ROUTES) * len(recorded["files"]) else 0


if __name__ == "__main__":
    sys.exit(main())
