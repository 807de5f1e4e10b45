#!/bin/sh
# End-to-end golden-byte check: decwi-gammagen's payload for one replay
# tuple (Config2, 200000 values, seed 7, stream offset 4099) must hash to
# the digest committed in testdata/golden_digests.json, on a single-core
# and a multicore scheduler. The bytes are checked absolutely, not only
# path against path.
# Usage: scripts/golden_check.sh
set -eu

cd "$(dirname "$0")/.."

entry='gammagen/config2-n200000-seed7-offset4099'
want="$(awk -v name="\"name\": \"$entry\"" '
    index($0, name) { found = 1 }
    found && /"sha256"/ { gsub(/[",]/, "", $2); print $2; exit }
' testdata/golden_digests.json)"
if [ -z "$want" ]; then
    echo "golden_check: no $entry entry in testdata/golden_digests.json" >&2
    exit 1
fi

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
go build -o "$dir/gammagen" ./cmd/decwi-gammagen
for procs in 1 4; do
    GOMAXPROCS=$procs "$dir/gammagen" -config 2 -n 200000 -seed 7 -offset 4099 \
        -validate=false -out "$dir/out.$procs.bin"
    got="$(sha256sum "$dir/out.$procs.bin" | cut -d' ' -f1)"
    if [ "$got" != "$want" ]; then
        echo "golden_check: GOMAXPROCS=$procs sha256 $got, golden $want" >&2
        exit 1
    fi
    echo "golden_check: GOMAXPROCS=$procs $got ok"
done
