#pragma once

// Journal compaction (sweep::StudyJournal::compact) folds the many
// single-setting .omps segments a journaled study leaves behind into one
// indexed .omps store. This is the bridge from the fault-tolerant
// collection layout (one small atomic file per setting) to the query layout
// (one mmap-able file per study, with one index over every setting).
// Segments keep every double exactly, so compaction changes row order
// only, never a value.

#include <cstddef>

namespace omptune::store {

/// Outcome tally of one compaction run.
struct CompactReport {
  std::size_t entries = 0;            ///< journal segments folded in
  std::size_t samples_in = 0;         ///< rows read across all entries
  std::size_t samples_out = 0;        ///< rows written to the store
  std::size_t duplicates_dropped = 0; ///< rows dropped as duplicate identities
  std::size_t replaced = 0;           ///< kept rows upgraded by a better status
  std::size_t quarantined = 0;        ///< quarantined rows in the output
};

}  // namespace omptune::store
