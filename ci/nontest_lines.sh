#!/bin/sh
# Prints the repo's non-test Rust line count: every `*.rs` file in the
# working tree (tracked or not, unless ignored) outside tests/, examples/,
# */benches/, vendor/ and perfbench/, each counted up to (not including) its
# first `#[cfg(test)]` line followed by a `mod` line. A tracked file deleted
# from the working tree is not counted. Run from anywhere in the checkout:
# `sh ci/nontest_lines.sh`.
cd "$(git rev-parse --show-toplevel)" || exit 1
files=$(git ls-files --cached --others --exclude-standard '*.rs' |
    grep -Ev '^(tests|examples|vendor|perfbench)/|/benches/' |
    while read -r file; do [ -e "$file" ] && echo "$file"; done)
# shellcheck disable=SC2086 # one path per word: no .rs path has a space
awk 'FNR == 1 { stop = 0; cfg = 0 }
     stop { next }
     cfg && /^[[:space:]]*mod / { stop = 1; n--; next }
     { cfg = /^[[:space:]]*#\[cfg\(test\)\]/; n++ }
     END { print n }' $files
