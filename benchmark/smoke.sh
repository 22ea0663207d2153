#!/usr/bin/env bash
# Builds the ledger offline and runs every workload once at smoke sizes,
# plus one traced run (`ledger trace` of the issue is `run --trace 1`, the
# spelling the driver uses), checking the shape of each result line. Under a
# minute once built; a CI job can call it as is.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
ledger="${CARGO_TARGET_DIR:-$here/target}/release/ledger"

check() { # <trace 0|1> <result line>
  python3 - "$1" "$here/../BENCHMARK.json" "$2" <<'PY'
import json, sys
trace, bench, line = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3]
r = json.loads(line)
assert list(r) == ["correct", "attempted", "failed", "metrics"], list(r)
assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, r
want = bench["per_layer" if trace == "1" else "end_to_end"]
assert list(r["metrics"]) == [m["name"] for m in want], "metric names differ from BENCHMARK.json"
for m in want:
    got = r["metrics"][m["name"]]
    assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
if trace == "0":
    assert all(v["value"] > 0 for v in r["metrics"].values()), r["metrics"]
PY
}

for workload in micro-isa apps-mpi sweep-lanes svc-mixed; do
  line="$("$ledger" run --workload "$workload" --seed 1 --passes 1 --smoke | tail -n 1)"
  check 0 "$line"
  echo "ok run   $workload"
done
line="$("$ledger" run --workload micro-isa --seed 1 --trace 1 --smoke | tail -n 1)"
check 1 "$line"
echo "ok trace micro-isa"
