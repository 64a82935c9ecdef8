// Checkpoint/restore for the online sweep engine.
//
// A restarted process must not re-scan history: the engine's whole frozen
// state — per-period forward sweep rows, occupancy histograms with their
// exact-sum moment limbs, fold positions, watermark — is serialized to a
// versioned little-endian binary file (format below) and restored verbatim,
// so a resumed engine produces BIT-IDENTICAL reports to one that never
// stopped (property-tested in tests/test_online_sweep.cpp).  After
// restoring, the caller re-attaches the feed and sync()s from
// synced_events() onward.
//
// The sweep rows are the kernel-independent form of a period's state: the
// finite (v, hops, arr) cells of each source, sorted by v, whose arrivals
// are reversed window labels -k (always <= -1).  A dense period's finite
// cells are exactly the sparse kernel's rows, so the bytes do not depend
// on which kernel held the period.  Restore picks each period's kernel by
// the rule a fresh engine applies (online/incremental_sweep.hpp); a period
// whose rows hold a window past the dense rank range restores sparse.
//
//   offset  size  field
//   0       8     magic "NATSCKP1"
//   8       4     version (u32 LE) = 1
//   12      4     flags (u32 LE): bit 0 directed
//   16      8     num_nodes (u64)
//   24      8     watermark (i64)
//   32      8     synced_events (u64)
//   40      4     metric (u32, UniformityMetric enumerator)
//   44      4     reserved = 0
//   48      8     histogram_bins (u64)
//   56      8     shannon_slots (u64, 1 .. kMaxShannonSlots)
//   64      8     grid_count (u64)
//   ...           grid periods (i64 each)
//   ...           per period: folded (u64), histogram total (u64),
//                 bin counts (u64 x bins) summing to the total,
//                 moment limbs (u64 x 36 twice, limbs 18..35 zero),
//                 then per source row: entry count (u64) followed by
//                 entries (v u32, hops u32 >= 1, arr i64 <= -1), by
//                 strictly increasing v < num_nodes
//   end-8   8     FNV-1a 64 checksum of everything before it
//
// The magic, version and checksum are the envelope every checksummed
// format shares (util/wire.hpp: seal / unseal), and the payload is read
// through the one bounds-checked wire::Reader.  All counts are cross-checked
// against the file size before any allocation sized from them; a truncated
// or corrupted file throws io_error, never reads out of bounds, and never
// restores a half-consistent engine.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "online/incremental_sweep.hpp"

namespace natscale {

/// Serializes the engine's frozen state to an in-memory buffer in the exact
/// on-disk format above (magic through checksum).  This is the primitive
/// the daemon's session snapshots embed (natscale/session); save_checkpoint
/// is this plus a file write.
std::vector<std::byte> serialize_checkpoint(const OnlineSweepEngine& engine);

/// Restores an engine from a serialized checkpoint buffer.  `context` names
/// the source in error messages (a path, a stream name, ...).  Throws
/// io_error on malformed content — same validation as load_checkpoint.
OnlineSweepEngine restore_checkpoint(std::span<const std::byte> bytes,
                                     const std::string& context);

/// Serializes the engine's frozen state to `path` (overwriting).  Throws
/// std::runtime_error when the file cannot be written.
void save_checkpoint(const std::string& path, const OnlineSweepEngine& engine);

/// Restores an engine from `path`.  The grid, metric, histogram resolution
/// and directedness are taken from the checkpoint; the thread count is a
/// runtime choice, not state, and resets to the default (0 = hardware
/// concurrency).  Throws io_error on malformed content, std::runtime_error
/// on unreadable files.
OnlineSweepEngine load_checkpoint(const std::string& path);

}  // namespace natscale
