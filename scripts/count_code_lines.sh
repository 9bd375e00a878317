#!/usr/bin/env bash
# Count the non-blank code lines of the C++ sources (*.h, *.cc, *.cpp)
# under the given directories (default: src). The preprocessor strips
# comments without expanding anything (gcc -fpreprocessed -dD -E -P),
# so the count ignores comments, blank lines and include contents.
#
# Usage: scripts/count_code_lines.sh [dir...]
set -euo pipefail

[ $# -eq 0 ] && set -- src
total=0
while IFS= read -r -d '' f; do
    n=$(gcc -fpreprocessed -dD -E -P -x c++ "$f" | grep -c '[^[:space:]]' || true)
    total=$((total + n))
done < <(find "$@" \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) -print0)
echo "$total"
