#!/bin/sh
# Fails when README.md's usage block differs from `dnoise_cli --help`.
#   check_readme_usage.sh DNOISE_CLI README.md
# The block runs from the line starting "usage: dnoise_cli" to the code
# fence that closes it.
cli=$1
readme=$2
tmp=${TMPDIR:-/tmp}/dn_readme_usage.$$
"$cli" --help > "$tmp.cli" || { echo "dnoise_cli --help failed"; exit 1; }
awk '/^usage: dnoise_cli/ {f = 1} f && /^```/ {exit} f' "$readme" > "$tmp.doc"
diff -u "$tmp.doc" "$tmp.cli"
rc=$?
rm -f "$tmp.cli" "$tmp.doc"
exit $rc
