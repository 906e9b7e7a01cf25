#!/bin/sh
# Usage: cli_paths_agree.sh <omptune> <work-dir>
#
# Collects the same 4-config study three ways and requires identical
# `analyze` text from each store: the direct run (`study 4 x.omps`), the
# supervised journaled run followed by `compact`, and the coordinated
# multi-host run. The store bytes may differ by path (dictionary and row
# order); the analysis they feed must not.
set -e
omptune=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

"$omptune" study 4 direct.omps > /dev/null
"$omptune" study 4 workers.csv --workers=3 --journal=workers_journal > /dev/null
"$omptune" compact workers_journal workers.omps > /dev/null
"$omptune" coordinate 4 coordinated.omps --hosts=3 --shards=4 > /dev/null

"$omptune" analyze direct.omps > direct.txt
"$omptune" analyze workers.omps > workers.txt
"$omptune" analyze coordinated.omps > coordinated.txt
cmp direct.txt workers.txt
cmp direct.txt coordinated.txt
echo "analyze text agrees across direct, supervised and coordinated paths"
