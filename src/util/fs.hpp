#pragma once

// Crash-safe filesystem helpers for the write-ahead journal: a reader must
// never observe a half-written file, even if the process dies mid-write.
// The standard recipe — write to a temp file in the same directory, fsync
// the file, rename() over the destination, fsync the directory — makes the
// replacement atomic on POSIX filesystems.
//
// Every durability boundary here consults util::IoHooks (io_hooks.hpp)
// before the real syscall, which is how the crash-consistency torture
// framework (DESIGN.md §14) injects crashes, torn/short writes, ENOSPC/EIO
// and read-side bit rot without touching production control flow. All I/O
// failures surface as the typed util::StorageError carrying operation,
// path and errno.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace omptune::util {

/// Atomically replace `path` with `content` (temp file + fsync + rename +
/// parent-directory fsync). Throws util::StorageError on any I/O failure;
/// on failure the previous contents of `path` (if any) are left intact.
void atomic_write_file(const std::string& path, const std::string& content);

/// fsync the directory itself so a just-renamed/unlinked entry survives
/// power loss, not only process death. Returns false when the filesystem
/// refuses to open or fsync a directory (some network filesystems do) —
/// best effort there, but EINTR is retried, never surfaced as failure.
bool fsync_directory(const std::string& dir);

/// rename(2) + parent-directory fsync: atomically move `from` over `to`
/// (same filesystem). Falls back to atomic_write_file(read_file(from)) +
/// unlink on EXDEV. Throws util::StorageError on failure.
void rename_file(const std::string& from, const std::string& to);

/// Remove `path` and fsync its parent directory, so the removal also
/// survives power loss (a durably discarded journal entry must not
/// resurrect after a crash). Returns whether anything was removed; throws
/// util::StorageError on an injected unlink failure.
bool remove_file_durable(const std::string& path);

/// Append `line` + '\n' to `path` with open(O_APPEND) + fsync: the durable
/// append-only log primitive behind the Keeper incident log. Unlike the
/// atomic-replace recipe, an append can tear mid-line on a crash — readers
/// must treat a final line without '\n' as torn (see repair_appended_log).
/// When `rotate_at_bytes` > 0 and the append would push the file past that
/// size, the file is first rotated to `path + ".1"` (replacing any previous
/// rotation) so the log stays size-capped at roughly 2x the threshold.
/// Throws util::StorageError on failure.
void append_line_durable(const std::string& path, const std::string& line,
                         std::uint64_t rotate_at_bytes = 0);

/// Drop a torn trailing line (bytes after the last '\n') left by a crash
/// mid-append. Returns the number of bytes dropped (0 for a clean or
/// missing file). Throws util::StorageError if the truncate fails.
std::size_t repair_appended_log(const std::string& path);

/// Delete leftover "<name>.tmp.<pid>" files in `dir` — droppings of
/// atomic_write_file writers that were SIGKILLed between open and rename.
/// Only call on a directory the caller owns exclusively (a concurrent live
/// writer's temp file is indistinguishable from a stale one). Returns the
/// number of files removed.
std::size_t remove_stale_temp_files(const std::string& dir);

/// Whole-file read; nullopt if the file does not exist, throws
/// util::StorageError on other I/O failures. The installed IoHooks may
/// bit-rot the returned bytes (validation downstream must catch it).
std::optional<std::string> read_file(const std::string& path);

bool file_exists(const std::string& path);

/// mkdir -p. Throws std::runtime_error on failure.
void create_directories(const std::string& path);

/// Regular files directly inside `dir` (not recursive), sorted by name.
/// Returns an empty list if `dir` does not exist.
std::vector<std::string> list_files(const std::string& dir);

/// Subdirectories directly inside `dir`, sorted by name. Returns an empty
/// list if `dir` does not exist.
std::vector<std::string> list_dirs(const std::string& dir);

/// Remove a file if present; returns whether anything was removed.
bool remove_file(const std::string& path);

/// Remove `path` and everything under it, if present (best effort, never
/// throws): the cleanup of journal and work directories a run owns.
void remove_tree(const std::string& path);

/// Create a fresh private directory "$TMPDIR/omptune-<tag>-XXXXXX" (/tmp
/// when TMPDIR is unset) and return its path. Throws util::StorageError.
std::string create_temp_directory(const std::string& tag);

/// `a + "/" + b` with separator de-duplication.
std::string path_join(const std::string& a, const std::string& b);

}  // namespace omptune::util
