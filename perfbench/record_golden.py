"""Record the golden `hsos --json` documents that the cli_cold workload compares against.

    python3 perfbench/record_golden.py

Runs every command that any seed can draw (each CLI_PLAN entry on each fc
form) once, cold, and writes perfbench/golden_cli.json: the exit code and the
parsed document per job id.  A document that is not strict JSON is stored as
null; for it the workload checks only the exit code and strict JSON.  Record
again only when a change to hsos's output is intended, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        cli = workloads.CliCold(Path(tmp))
        cli.setup(0)
        for form in sorted(inputs.CLI_FORMS):
            for template in inputs.CLI_PLAN:
                job = inputs.cli_job(template, form)
                if job["id"] in golden and template[0] != "certify":
                    continue
                code, text, _ = cli.spawn(job["argv"])
                try:
                    doc = reference.strict_json(text)
                except ValueError:
                    doc = None
                golden[job["id"]] = {"exit": code, "doc": doc}
                print(f"{code} {'json' if doc is not None else 'NOT STRICT JSON'}  {job['id']}")
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
