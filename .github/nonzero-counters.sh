#!/bin/sh
# usage: sh .github/nonzero-counters.sh REPORT COUNTER...
#
# Fails, naming each one, when a COUNTER is missing from REPORT, the text
# that `bench/run.py --trace 1` prints, or reads 0 there. A tracer wrapper
# that no longer sits where the package looks its name up records nothing
# without failing the run, so only its counter shows that it came off.
report=$1
shift
status=0
for counter in "$@"; do
  if ! awk -v c="$counter" '$1 == c && $2 == "=" && $3 + 0 != 0 { found = 1 }
                            END { exit !found }' "$report"; then
    echo "$counter is missing or reads 0 in $report" >&2
    status=1
  fi
done
exit $status
