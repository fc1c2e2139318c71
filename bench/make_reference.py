"""Regenerate bench/reference.json from the code under src/.

Usage: python3 bench/make_reference.py

Runs every workload's ops once, untraced and in default order, and
stores each op's record.  Only a commit whose values are trusted should
write the reference: the benchmark gates every later run against it.
"""

import json
import sys

from run import BENCH, child_env, git_commit, run_round
from workloads import WORKLOADS, ops_for


def main() -> int:
    records = {}
    env = child_env()
    for workload in WORKLOADS:
        for res in run_round(ops_for(workload, 0), False, None, env)["results"]:
            if res.get("error"):
                print(f"{res['id']}: {res['error']}", file=sys.stderr)
                return 1
            entry = {"record": res["record"]}
            if "diag" in res:
                entry["bound_ok"] = res["diag"]["bound_ok"]
            records[res["id"]] = entry
            print(res["id"], res["record"]["log_value"], f"{res['t_s']:.2f}s")
    out = {"commit": git_commit(), "records": records}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
