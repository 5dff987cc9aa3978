#!/bin/sh
# check_design_refs.sh — every DESIGN.md section that code and docs
# cite must exist. A citation is `DESIGN §N` or `DESIGN.md §N.M` in a
# tracked (or new, unignored) *.go, *.md, *.sh or *.yml file; CHANGES.md
# is history and is not checked. §N must match a "## N." heading of
# DESIGN.md and §N.M a "### N.M" heading. A citation may go on to list
# more sections ("§8.5, §8.6", "§7.4 / §8.5", "§9.1–§9.3", "§12, §13.2 and
# §13.3") and may wrap after "DESIGN.md" onto the next line; every
# section it names is checked.
#
# Run from the repository root; exits non-zero listing every citation
# whose section is missing.
set -eu

# The sections DESIGN.md defines, space-separated: " 1 2 3 ... 8.6 ... ".
secs=" $(awk '/^## [0-9]+\. /   { sub(/\.$/, "", $2); printf "%s ", $2 }
              /^### [0-9]+\.[0-9]+ / { printf "%s ", $2 }' DESIGN.md)"
if [ -z "${secs# }" ]; then
    echo "DESIGN.md has no numbered sections" >&2
    exit 1
fi

# One "ok|missing FILE:LINE §N" line per cited section.
report=$(git ls-files --cached --others --exclude-standard -- \
    '*.go' '*.md' '*.sh' '*.yml' ':!CHANGES.md' | xargs awk -v secs="$secs" '
    # cite checks the sections a citation names; s starts right after
    # "DESIGN" or "DESIGN.md".
    function cite(s, lineno,    sep, ref) {
        sep = "^[ \t]*"
        while (match(s, sep "§[0-9]+(\\.[0-9]+)*")) {
            ref = substr(s, RSTART, RLENGTH)
            sub(/^.*§/, "", ref)
            print (index(secs, " " ref " ") ? "ok" : "missing"), FILENAME ":" lineno, "§" ref
            s = substr(s, RSTART + RLENGTH)
            sep = "^[ \t]*(,|/|–|,? and)[ \t]*"
        }
    }
    FNR == 1 { carry = 0 }
    {
        line = $0
        if (carry) {
            # The citation wrapped: drop indentation and a comment marker.
            t = line
            sub("^[ \t]*((//|#|\\*|>)[ \t]*)?", "", t)
            cite(t, FNR)
            carry = 0
        }
        while ((i = index(line, "DESIGN")) > 0) {
            line = substr(line, i + 6)
            if (substr(line, 1, 3) == ".md")
                line = substr(line, 4)
            cite(line, FNR)
            carry = line ~ /^[ \t]*$/
        }
    }')

missing=$(printf '%s\n' "$report" | awk '$1 == "missing" { print "dangling citation: " $2 " DESIGN " $3 " (no such heading in DESIGN.md)" }')
if [ -n "$missing" ]; then
    printf '%s\n' "$missing" >&2
    exit 1
fi
echo "DESIGN citations: all $(printf '%s\n' "$report" | grep -c '^ok') resolve"
