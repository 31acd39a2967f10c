#!/usr/bin/env bash
# Checks every `suite` row of tests/pins.tsv against one `cargo test` run
# and fails unless each test target ran and passed exactly the number of
# tests its row names. A suite that is renamed, filtered, `#[ignore]`d or
# missing therefore fails, instead of passing with fewer tests than
# pinned. Run it from the repository root:
#
#   tests/pinned_suites.sh [LOG]
#
# LOG is the output of `cargo test --no-fail-fast` without `-q` (CI tees
# its test step into one). Without LOG the script runs that command once
# itself. Test target names are unique across the workspace, so a
# target's section is the one under its `Running tests/<target>.rs` line.
set -uo pipefail

table=tests/pins.tsv
if [ $# -ge 1 ]; then
    log=$1
    [ -r "$log" ] || { echo "FAIL cannot read test log $log"; exit 1; }
else
    log=$(mktemp)
    trap 'rm -f "$log"' EXIT
    cargo test --no-fail-fast >"$log" 2>&1 </dev/null
fi

suites=0
failed=0
while IFS=$'\t' read -r kind package target want _covers; do
    [ "$kind" = suite ] || continue
    suites=$((suites + 1))
    # The first `running N tests` and `test result:` lines after the
    # target's `Running` line; `sections` counts its `Running` lines.
    read -r sections running result < <(awk -v src="tests/$target.rs" '
        $1 == "Running" && $2 == src { n++; on = (n == 1); next }
        on && running == "" && /^running [0-9]+ tests?$/ { running = $2; next }
        on && /^test result: / {
            result = $3 == "ok." ? $4 : "failed"; on = 0
        }
        END { print n + 0, (running == "" ? "none" : running), (result == "" ? "none" : result) }
    ' "$log")
    if [ "$sections" -ne 1 ] || [ "$running" != "$want" ] || [ "$result" != "$want" ]; then
        echo "FAIL $package --test $target: ran ${running}, passed ${result}," \
            "pinned $want ($sections section(s) in the log)"
        failed=$((failed + 1))
    else
        echo "ok   $package --test $target: $result passed"
    fi
done < <(grep -v '^#' "$table")

if [ "$suites" -eq 0 ]; then
    echo "FAIL $table has no suite rows"
    exit 1
fi
echo "$suites pinned suite(s), $failed failed"
[ "$failed" -eq 0 ]
