#!/usr/bin/env bash
# Regenerates every byte-pinned fixture after an intended behaviour change,
# proves the result, and reports what moved. Run it from anywhere in the
# repository:
#
#   scripts/regen.sh
#
# Use it only for a change meant to move simulated results or the snapshot
# layout. A refactor or an optimization must leave every fixture untouched;
# on such a tree this script changes no byte. It bumps no version:
# exp.SchemaVersion and snap.Version stay reviewed hand edits, and
# scripts/check-schema-bump.sh fails a fixture change without its bump.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# 1. Every fixture test writes what it computes (internal/golden).
DSARP_UPDATE=1 go test -count=1 ./...

# 2. The benchmark's result digests.
bash perfbench/run.sh -pin perfbench/pins.json

# 3. The arbiter: tier-1 without the switch. Update mode alone proves
#    nothing, and this pass fails when two tests wrote different bytes to
#    one fixture.
go build ./...
go test -count=1 ./...

# 4. What moved. golden_table2.txt and golden_fig13.txt are Table 2 and
#    Fig. 13 at golden scale, so their diff is the before and after.
pinned=('*testdata/*' perfbench/pins.json)
echo
echo "== pinned files changed against HEAD"
git --no-pager diff --stat HEAD -- "${pinned[@]}"
git ls-files --others --exclude-standard -- "${pinned[@]}" | sed 's/^/new: /'
echo
echo "== Table 2 and Fig. 13 at golden scale"
git --no-pager diff HEAD -- internal/exp/testdata/golden_table2.txt internal/exp/testdata/golden_fig13.txt
