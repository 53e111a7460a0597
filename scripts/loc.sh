#!/usr/bin/env bash
# Gates the four tracked size numbers of the workspace (ROADMAP aim 2):
# prints them and exits non-zero when any exceeds its ceiling. The
# ceilings only ever go down — a PR that shrinks a number lowers its
# ceiling to match.
MAX_CODE_LINES=18849
MAX_PUBLIC_ITEMS=732
MAX_UNSAFE_LINES=0
MAX_STUB_LINES=1560
# Counted as ISSUE 14 defines them, over every *.rs under src/ and
# crates/*/src except crates/perf (the benchmark), up to the file's
# first `#[cfg(test)]` line:
#   code lines   - lines that are not blank and do not start with `//`
#   public items - lines matching `pub (fn|struct|enum|trait|const|type|mod)`
#   unsafe lines - lines whose text before any `//` has the word `unsafe`
#   stub lines   - code lines of the offline stand-in crates, stubs/*/src
set -euo pipefail
cd "$(dirname "$0")/.."
find src crates/*/src stubs/*/src -name '*.rs' -not -path 'crates/perf/*' -print0 | sort -z |
    xargs -0 awk -v max_code="$MAX_CODE_LINES" -v max_items="$MAX_PUBLIC_ITEMS" \
        -v max_unsafe="$MAX_UNSAFE_LINES" -v max_stubs="$MAX_STUB_LINES" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^\/\// { next }
        FILENAME ~ /^stubs\// { stubs++; next }
        { code++ }
        /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod)/ { items++ }
        {
            text = $0
            sub(/\/\/.*/, "", text)
            if (text ~ /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/) unsafe_lines++
        }
        END {
            printf "code lines:   %d (ceiling %d)\npublic items: %d (ceiling %d)\nunsafe lines: %d (ceiling %d)\nstub lines:   %d (ceiling %d)\n",
                code, max_code, items, max_items, unsafe_lines, max_unsafe, stubs, max_stubs
            exit code > max_code || items > max_items || unsafe_lines > max_unsafe || stubs > max_stubs
        }
    '
