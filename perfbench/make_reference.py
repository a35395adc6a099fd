#!/usr/bin/env python3
"""Write perfbench/reference.json from the code in this checkout.

The reference pins the outputs of the default seed: the CSV digest of the
first simulate command of each sim workload and the summary of the first
survey call.  Run it only on a commit whose outputs are known to be
right; the benchmark then fails any later commit whose bytes differ.

    python3 perfbench/make_reference.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run
import worker


def main() -> None:
    ref = {"default_seed": inputs.DEFAULT_SEED, "sim_steps": run.SIM_STEPS}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        for name, (cfg, svg) in run.SIMS.items():
            spec = inputs.read_config(run.ROOT / cfg)
            start = inputs.sim_start(spec, inputs.DEFAULT_SEED)
            out = work / "orbit.csv"
            argv = [sys.executable, "-m", "nrulemaps.cli", "simulate", "--config", cfg,
                    "--steps", str(run.SIM_STEPS), f"--start={start}", "--out", str(out)]
            child = run.Child(argv, work)
            if child.rc != 0:
                raise SystemExit(f"{name}: simulate exited {child.rc}: {child.stderr}")
            ref[name] = {"start": start, "stdout": child.stdout.strip(),
                         "csv_sha256": run.sha256(out)}
    sys.path.insert(0, str(run.ROOT / "src"))
    survey = worker.load_survey_module()
    seed = worker.survey_seed(inputs.DEFAULT_SEED, 0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        survey.run(worker.SURVEY_COUNT, seed)
    ref["survey"] = {"count": worker.SURVEY_COUNT, "seed": seed, "summary": buf.getvalue()}
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
