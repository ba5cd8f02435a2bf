#!/bin/sh
# Contention gate: reruns the whole ctest suite N times in one build
# directory, at -j$(nproc), while $(nproc) busy loops keep every core
# loaded.  Prints each test that failed or timed out in any round (with the
# rounds it failed in) and exits non-zero if there was one.  A test that
# passes alone but fails here depends on timing, and that is a bug in the
# program or in the test's oracle.
#
# Usage: tools/stress_ctest.sh BUILD_DIR N
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR N" >&2
  exit 2
fi
BUILD=$1
ROUNDS=$2
case $ROUNDS in
  '' | *[!0-9]*) echo "N must be a positive integer, got '$ROUNDS'" >&2; exit 2 ;;
esac
if [ "$ROUNDS" -lt 1 ]; then
  echo "N must be a positive integer, got '$ROUNDS'" >&2
  exit 2
fi
if [ ! -f "$BUILD/CTestTestfile.cmake" ]; then
  echo "$BUILD is not a configured build directory" >&2
  exit 2
fi

JOBS=$(nproc)
LOGS=$(mktemp -d)
BURNERS=""
cleanup() {
  [ -n "$BURNERS" ] && kill $BURNERS 2>/dev/null
  rm -rf "$LOGS"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# One burner per core: a fixed count, never more.
i=0
while [ "$i" -lt "$JOBS" ]; do
  sh -c 'while :; do :; done' &
  BURNERS="$BURNERS $!"
  i=$((i + 1))
done

round=1
while [ "$round" -le "$ROUNDS" ]; do
  log=$LOGS/round_$round.log
  ctest --test-dir "$BUILD" -j "$JOBS" > "$log" 2>&1
  rc=$?
  # ctest lists each failure under "The following tests FAILED:" as
  # "<tab>NUM - NAME (Failed|Timeout|...)"; skipped tests have their own list.
  named=$(awk '/^The following tests FAILED:/ { f = 1; next }
               f && /^[[:space:]]+[0-9]+ - / { sub(/^[[:space:]]+[0-9]+ - /, ""); print; next }
               { f = 0 }' "$log")
  [ -n "$named" ] && printf '%s\n' "$named" | sed "s/\$/ [round $round]/" >> "$LOGS/failures"
  summary=$(grep -E 'tests passed' "$log" || echo "no summary (ctest exit $rc)")
  echo "round $round/$ROUNDS: $summary"
  if [ "$rc" -ne 0 ] && [ -z "$named" ]; then
    echo "round $round: ctest failed without naming a test:" >&2
    tail -n 20 "$log" >&2
    echo "ctest itself (exit $rc) [round $round]" >> "$LOGS/failures"
  fi
  round=$((round + 1))
done

if [ -s "$LOGS/failures" ]; then
  echo "tests that failed or timed out under contention:"
  sed 's/ \[round [0-9]*\]$//' "$LOGS/failures" | sort | uniq -c | sort -rn |
    while read -r count name; do
      rounds=$(grep -F "$name [round" "$LOGS/failures" |
        sed 's/.*\[round \([0-9]*\)\]$/\1/' | tr '\n' ' ')
      echo "  $name: $count of $ROUNDS round(s) (rounds: ${rounds% })"
    done
  exit 1
fi
echo "all $ROUNDS round(s) passed with no failure and no timeout"
