// Copyright 2026 The QLOVE Reproduction Authors
// The durability seam: a segment-based write-ahead log whose records are
// exactly the wire frames the delta-sync export loop already produces
// (engine/wire.h) — a checkpoint is a full frame, an incremental record is
// a delta frame, and replay is the same IngestFrame machinery the
// aggregator runs, so the on-disk format cannot drift from the on-wire
// one. A SIGKILL'd agent replays its WAL on restart and resumes with its
// last durable window (TelemetryEngine::RecoverFromWal).
//
// Layout. A WAL directory holds numbered segment files
// (`wal-00000042.qwal`), each opened exclusively by the incarnation that
// created it and NEVER appended to by a later one — Open() only scans
// existing names to continue the sequence, so a torn tail stays confined
// to the last segment each incarnation wrote and retention pruning can
// delete whole files safely. Every segment begins with an 8-byte magic and
// its FIRST record is a checkpoint (a full frame), which makes any suffix
// of the retained segments independently replayable: the checkpoint
// replaces state wholesale, the deltas after it apply incrementally.
//
// Record framing:  [u32 payload_len][u32 crc32c(payload)][payload bytes]
// little-endian, payload = one wire frame, len capped at kMaxWireBytes.
// The CRC is Castagnoli (CRC32C), software table — no new dependencies.
//
// Torn tails and corruption are a READ-side concern by construction (the
// writer never appends to a pre-existing file): replay verifies each
// record's length bound and CRC, treats a short tail as the crash point
// (logical truncation, counted), stops scanning a segment at the first
// corrupt record (everything after an unframed gap is unaddressable), and
// keeps going with the next segment. A record whose bytes are intact but
// whose CONTENT the sink rejects (foreign sync token, reordered epoch) is
// skipped record-by-record — one bad frame never poisons the rest.
//
// Failure handling is first-class: an append that hits the disk's ENOSPC/
// EIO (or the injected test seam) reports an error Status and counts it;
// the engine layer above flips into a non-durable degraded mode and keeps
// serving (surfaced in Stats()/FleetHealth()) instead of aborting, and
// heals by cutting a fresh checkpoint when appends succeed again.

#ifndef QLOVE_ENGINE_WAL_H_
#define QLOVE_ENGINE_WAL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace qlove {
namespace engine {

/// First 8 bytes of every segment file.
inline constexpr uint8_t kWalSegmentMagic[8] = {'Q', 'W', 'A', 'L',
                                                'S', 'E', 'G', '1'};

/// Bytes of record framing before each payload (u32 length + u32 CRC32C).
inline constexpr size_t kWalRecordHeaderBytes = 8;

/// \brief When appended records reach the platters.
enum class WalFsyncPolicy : uint8_t {
  /// fdatasync after every record: loss budget 0 records, slowest.
  kEveryRecord = 0,
  /// One fdatasync per Tick (the engine appends one record per Tick, so
  /// for the engine this equals kEveryRecord; an aggregator appending per
  /// frame batches several records per sync). Loss budget: records since
  /// the last Tick boundary. The chaos harness's acceptance mode.
  kEveryTick = 1,
  /// Leave flushing to the OS page cache: loss budget is whatever the
  /// kernel had not written back, cheapest. Rotation still syncs a
  /// completed segment before the next one opens.
  kOs = 2,
};

/// Lower-case policy name ("every_record" / "every_tick" / "os").
const char* WalFsyncPolicyName(WalFsyncPolicy policy);

/// Parses a policy name (the daemons' --wal-fsync flag).
Result<WalFsyncPolicy> ParseWalFsyncPolicy(const std::string& name);

/// \brief Write-side configuration.
struct WalOptions {
  WalFsyncPolicy fsync = WalFsyncPolicy::kEveryTick;

  /// A segment at or past this size asks for rotation via
  /// ShouldCheckpoint() — the caller cuts a checkpoint, which begins a
  /// fresh segment.
  size_t segment_target_bytes = size_t{4} << 20;

  /// Retained segment files, including the open one; the oldest beyond
  /// this are deleted at rotation. Safe at any value >= 1 because every
  /// segment starts with a checkpoint. Pre-existing segments from earlier
  /// incarnations count toward the budget.
  int max_segments = 4;

  /// Callers cutting periodic checkpoints (TelemetryEngine appends once
  /// per Tick) force one every this many non-checkpoint records even if
  /// the size trigger never fires, bounding replay length.
  int checkpoint_every_n_ticks = 16;

  Status Validate() const;
};

/// \brief Writer-side counters (monotone within one WalWriter lifetime).
struct WalStats {
  int64_t records = 0;           ///< Records appended (checkpoints included).
  int64_t checkpoints = 0;       ///< Checkpoint records appended.
  int64_t append_failures = 0;   ///< Appends lost to I/O errors (or the
                                 ///< injected fault seam).
  int64_t bytes = 0;             ///< Framing + payload bytes appended.
  int64_t segments_created = 0;  ///< Segments this writer opened.
  int64_t segments_pruned = 0;   ///< Segment files retention deleted.
  int64_t fsyncs = 0;            ///< fdatasync calls issued.
  int64_t open_segment_seq = -1; ///< Sequence of the open segment (-1 none).
  int64_t live_segments = 0;     ///< Segment files currently on disk.
};

/// CRC32C (Castagnoli) of \p size bytes. Exposed so tests can frame and
/// corrupt records by hand.
uint32_t Crc32c(const uint8_t* data, size_t size);

/// \brief Appends framed records to numbered segment files in one
/// directory. Not thread-safe; the owning engine serializes through its
/// own mutex. All I/O errors surface as Status::Internal with errno text.
class WalWriter {
 public:
  /// Creates \p dir when missing, scans existing segments to continue the
  /// sequence numbering (never reopening them), and returns a writer with
  /// NO open segment — the first checkpoint append opens one.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                 WalOptions options);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// True when the caller's next record should be a checkpoint: no open
  /// segment yet (first append, or after Open), or the open segment
  /// reached segment_target_bytes.
  bool ShouldCheckpoint() const;

  /// Rotates: fsyncs and closes the open segment (if any), creates the
  /// next numbered segment with its magic, fsyncs the directory, and
  /// prunes retention. Called implicitly by a checkpoint Append with no
  /// open segment; checkpoint appends otherwise call it explicitly first.
  Status BeginSegment();

  /// Appends one framed record. A checkpoint append with no open segment
  /// begins one; a NON-checkpoint append with no open segment is a
  /// FailedPrecondition (every segment must start with a checkpoint —
  /// that invariant is what makes retention and suffix-replay safe).
  /// Does NOT rotate on its own: the caller decides when a checkpoint
  /// (and therefore a fresh segment) is due via ShouldCheckpoint().
  /// Under WalFsyncPolicy::kEveryRecord the record is fdatasynced before
  /// returning. Internal on I/O failure (the record may be torn on disk;
  /// replay's CRC check makes that harmless).
  Status Append(const uint8_t* data, size_t size, bool is_checkpoint);

  /// fdatasyncs the open segment (kEveryTick callers: once per Tick; the
  /// SIGTERM flush path). No-op without an open segment.
  Status Sync();

  /// Sync + close the open segment. The writer stays usable: the next
  /// checkpoint append begins a new segment.
  Status Close();

  const WalStats& stats() const { return stats_; }
  const WalOptions& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  /// Fault seam: the next \p n Appends fail with Status::Internal without
  /// touching the file (the ENOSPC/EIO simulation the degraded-mode tests
  /// drive).
  void set_testing_fail_appends(int n) { testing_fail_appends_ = n; }

 private:
  WalWriter(std::string dir, WalOptions options);

  Status SyncDir();
  Status PruneRetention();

  std::string dir_;
  WalOptions options_;
  int fd_ = -1;                    ///< Open segment, -1 when none.
  int64_t next_seq_ = 0;           ///< Sequence of the next segment.
  size_t segment_bytes_ = 0;       ///< Bytes appended to the open segment.
  std::deque<int64_t> live_seqs_;  ///< On-disk segments, oldest first.
  int testing_fail_appends_ = 0;
  WalStats stats_;
  std::vector<uint8_t> frame_scratch_;  ///< Header+payload staging buffer.
};

/// \brief What replay saw, for recovery diagnostics and the stats surface.
struct WalReplayStats {
  int64_t segments_scanned = 0;
  int64_t records_applied = 0;    ///< CRC-clean records the sink accepted.
  int64_t records_rejected = 0;   ///< CRC-clean records the sink refused
                                  ///< (foreign token, reordered epoch, bad
                                  ///< frame content) — skipped one by one.
  int64_t records_corrupt = 0;    ///< CRC mismatches / hostile lengths
                                  ///< (scanning stops for that segment).
  int64_t truncated_tails = 0;    ///< Segments ending mid-record (the
                                  ///< crash point; logically truncated).
  int64_t bytes_scanned = 0;
};

/// \brief Replays every retained segment in sequence order, calling
/// \p sink once per CRC-clean record (payload = one wire frame).
/// Best-effort record by record: a sink error rejects that record and
/// continues; a CRC/framing violation abandons the rest of that segment;
/// a missing or empty directory replays nothing (a fresh start is not an
/// error). Only unreadable files/directories return an error Status.
Result<WalReplayStats> ReplayWal(
    const std::string& dir,
    const std::function<Status(const uint8_t* data, size_t size)>& sink);

/// \brief The on-disk segment files of \p dir, sorted by sequence number
/// (full paths). Empty for a missing directory.
Result<std::vector<std::string>> ListWalSegments(const std::string& dir);

}  // namespace engine
}  // namespace qlove

#endif  // QLOVE_ENGINE_WAL_H_
