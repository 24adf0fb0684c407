#!/bin/sh
# Code lines as every aim-2 PR counts them: per file, the lines before the
# test module, blank and `//` lines excluded. Usage: code-lines.sh <path…>
# (files or directories, searched for *.rs); prints one row per file and a total.
total=0
for f in $(find "$@" -name '*.rs' | sort); do
    n=$(awk '/^#\[cfg\((all\()?test/{exit} {print}' "$f" | grep -v '^\s*$' | grep -vc '^\s*//')
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d total\n' "$total"
