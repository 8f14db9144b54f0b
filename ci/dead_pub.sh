#!/bin/sh
# Lists the public functions nothing reaches: each `pub fn` or
# `pub(crate) fn` defined under crates/*/src/ or src/ (outside test code)
# whose name no other `*.rs` file under crates/, src/, tests/, examples/ or
# perfbench/ uses as a whole word outside a `//` line, and which its own
# file uses only on the definition line or after its first `#[cfg(test)]`
# line. Such a function is reached by nothing but its own unit tests: delete
# it, or say why it stays. Prints `path:line name` per function and always
# exits 0; the list is for reading, not a gate. Run from anywhere in the
# checkout: `sh ci/dead_pub.sh`.
cd "$(git rev-parse --show-toplevel)" || exit 0
files=$(git ls-files --cached --others --exclude-standard '*.rs' |
    grep -E '^(crates|src|tests|examples|perfbench)/' |
    while read -r file; do [ -e "$file" ] && echo "$file"; done)
# shellcheck disable=SC2086 # one path per word: no .rs path has a space
awk 'FNR == 1 { test = 0 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
     /^[[:space:]]*\/\// { next }
     {
         if (!test && FILENAME ~ /^(crates\/[^\/]+\/)?src\// &&
             match($0, /^[[:space:]]*pub(\(crate\))? fn [A-Za-z_][A-Za-z0-9_]*/)) {
             name = substr($0, RSTART, RLENGTH)
             sub(/.* fn /, "", name)
             n++; def[n] = name; file[n] = FILENAME; line[n] = FNR
         }
         rest = $0
         split("", seen)
         while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
             word = substr(rest, RSTART, RLENGTH)
             rest = substr(rest, RSTART + RLENGTH)
             if (word in seen) continue
             seen[word] = 1
             if (!((word, FILENAME) in files)) { files[word, FILENAME] = 1; nfiles[word]++ }
             if (!test) live[word, FILENAME]++
         }
     }
     END {
         for (i = 1; i <= n; i++)
             if (nfiles[def[i]] == 1 && live[def[i], file[i]] == 1)
                 print file[i] ":" line[i] " " def[i]
     }' $files
exit 0
