#!/usr/bin/env bash
# Prints the two tracked size numbers of the workspace (ROADMAP aim 2), as
# ISSUE 14 defines them, over every *.rs under src/ and crates/*/src except
# crates/perf (the benchmark), up to the file's first `#[cfg(test)]` line:
#   code lines   - lines that are not blank and do not start with `//`
#   public items - lines matching `pub (fn|struct|enum|trait|const|type|mod)`
# Both should only ever go down (23275 and 868 at 647bf4f).
set -euo pipefail
cd "$(dirname "$0")/.."
find src crates/*/src -name '*.rs' -not -path 'crates/perf/*' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^\/\// { next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod)/ { items++ }
        END { printf "code lines:   %d\npublic items: %d\n", code, items }
    '
