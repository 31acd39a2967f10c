#!/usr/bin/env bash
# Runs every `suite` row of tests/pins.tsv and fails unless each test
# target passes exactly the number of tests its row names. A suite that
# is renamed, filtered, `#[ignore]`d or missing therefore fails, instead
# of passing with fewer tests than pinned. Run it from the repository
# root: tests/pinned_suites.sh
set -uo pipefail

table=tests/pins.tsv
suites=0
failed=0
while IFS=$'\t' read -r kind package target want _covers; do
    [ "$kind" = suite ] || continue
    suites=$((suites + 1))
    log=$(cargo test -q -p "$package" --test "$target" 2>&1 </dev/null)
    code=$?
    passed=$(printf '%s\n' "$log" | sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p')
    if [ "$code" -ne 0 ] || [ "$passed" != "$want" ]; then
        printf '%s\n' "$log"
        echo "FAIL $package --test $target: passed ${passed:-none}, pinned $want (cargo exit $code)"
        failed=$((failed + 1))
    else
        echo "ok   $package --test $target: $passed passed"
    fi
done < <(grep -v '^#' "$table")

if [ "$suites" -eq 0 ]; then
    echo "FAIL $table has no suite rows"
    exit 1
fi
echo "$suites pinned suite(s), $failed failed"
[ "$failed" -eq 0 ]
