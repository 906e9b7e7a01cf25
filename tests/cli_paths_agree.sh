#!/bin/sh
# Usage: cli_paths_agree.sh <omptune> <work-dir>
#
# Collects the same 4-config study along every collection path and checks
# that they agree:
#   - the supervised journaled run (`--workers=3 --journal`) and a journaled
#     run resumed after losing an entry (`--journal --resume`) write stores
#     byte-identical (`cmp`) to the direct run (`study 4 x.omps`): journal
#     entries are exact .omps segments, assembled in plan order;
#   - `compact` of the supervised journal and the coordinated multi-host
#     run still write file-name and shard row order, so their stores may
#     differ in row and dictionary order; they must give the same `analyze`
#     text as the direct store.
set -e
omptune=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
cd "$dir"

"$omptune" study 4 direct.omps > /dev/null
"$omptune" study 4 workers_direct.omps --workers=3 --journal=workers_journal > /dev/null
cmp direct.omps workers_direct.omps

"$omptune" study 4 journaled.omps --journal=resume_journal > /dev/null
rm "resume_journal/$(ls resume_journal | head -n 1)"
"$omptune" study 4 resumed.omps --journal=resume_journal --resume > /dev/null
cmp direct.omps resumed.omps

"$omptune" compact workers_journal workers.omps > /dev/null
"$omptune" coordinate 4 coordinated.omps --hosts=3 --shards=4 > /dev/null

"$omptune" analyze direct.omps > direct.txt
"$omptune" analyze workers.omps > workers.txt
"$omptune" analyze coordinated.omps > coordinated.txt
cmp direct.txt workers.txt
cmp direct.txt coordinated.txt
echo "stores agree byte for byte across direct, supervised and resumed runs;"
echo "analyze text agrees across direct, compacted and coordinated stores"
