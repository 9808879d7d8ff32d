#!/bin/sh
# Check that a command fails the way the terraseg CLI promises to fail.
#
#     scripts/refused.sh CODE CMD [ARG...]
#
# Runs CMD and exits 0 only if it exited with status CODE, wrote exactly one
# line on stderr and no Python traceback. That stderr line is printed on
# stdout, so a caller can check what it names:
#
#     err=$(scripts/refused.sh 3 python3 -m terraseg.cli evaluate ...)
#
# CMD's own stdout goes to stderr.
set -u
if [ "$#" -lt 2 ]; then
    echo "usage: $0 CODE CMD [ARG...]" >&2
    exit 64
fi
want=$1
shift
err=$(mktemp)
trap 'rm -f "$err"' EXIT
code=0
"$@" 1>&2 2>"$err" || code=$?
cat "$err"
ok=0
if [ "$code" -ne "$want" ]; then
    echo "refused.sh: exit status $code, expected $want" >&2
    ok=1
fi
lines=$(wc -l < "$err")
if [ "$lines" -ne 1 ]; then
    echo "refused.sh: $lines lines on stderr, expected 1" >&2
    ok=1
fi
if grep -q Traceback "$err"; then
    echo "refused.sh: stderr holds a traceback" >&2
    ok=1
fi
exit "$ok"
