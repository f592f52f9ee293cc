"""Write verify_golden.json: digests of `sendov-lab verify --format json` output.

Run from the root of a source checkout, at the commit whose bytes are the
reference:

    python3 bench/golden.py

The verify workload compares every pass against these digests, so run it
again only for a deliberate change of verify's output, and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import run
import workloads as wl


def main() -> None:
    cli = run.load_program()["cli"]
    digests = {}
    checks = set()
    for vseed in wl.VERIFY_SEEDS:
        call = run.run_call(cli, vseed, wl.verify_argv(vseed))
        if call.error or call.code != 0:
            raise SystemExit(f"error: verify --seed {vseed} exited {call.code}\n{call.error}")
        digests[str(vseed)] = hashlib.sha256(call.out.encode()).hexdigest()
        checks.add(len(call.out.splitlines()))
    if len(checks) != 1:
        raise SystemExit(f"error: check counts differ between seeds: {sorted(checks)}")
    record = {"argv": wl.verify_argv(0)[:-1] + ["<seed>"], "checks": checks.pop(),
              "digests": digests}
    run.GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {run.GOLDEN}")


if __name__ == "__main__":
    main()
