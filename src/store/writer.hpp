#pragma once

// Writer for the .omps binary columnar sample store (see format.hpp for the
// layout). Serializes a sweep::Dataset into dictionary-coded, typed column
// blocks plus the embedded setting index, and replaces the destination
// atomically (temp file + fsync + rename, like the journal) so a reader
// never observes a half-written store.

#include <span>
#include <string>

#include "sweep/dataset.hpp"

namespace omptune::store {

/// Serialize `dataset` to `path` in .omps format v1 (atomic replace).
/// Throws std::invalid_argument on data that cannot be stored faithfully
/// (non-finite runtimes/means/speedups, more than 65535 distinct values in
/// a u16-coded dictionary) and std::runtime_error on I/O failure.
void write_store(const std::string& path, const sweep::Dataset& dataset);

/// In-memory serialization (the byte content write_store persists). The
/// span form encodes a run of rows in place (the journal writes a setting's
/// rows this way without copying them into a Dataset); tests use it to
/// corrupt specific offsets.
std::string serialize_store(std::span<const sweep::Sample> samples);
std::string serialize_store(const sweep::Dataset& dataset);

}  // namespace omptune::store
