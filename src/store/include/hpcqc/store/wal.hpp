#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hpcqc/obs/metrics.hpp"

namespace hpcqc::store {

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), slice-by-8. `seed`
/// chains partial computations; the canonical test vector "123456789"
/// yields 0xCBF43926.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed = 0);

/// One decoded journal record; `payload` views the scanned bytes (see
/// WalScan for how long).
struct WalRecord {
  std::uint64_t lsn = 0;      ///< log sequence number, strictly increasing
  std::uint64_t segment = 0;  ///< id of the segment the frame was read from
  std::uint8_t type = 0;      ///< RecordType (see journal.hpp)
  std::span<const std::uint8_t> payload;
};

/// Storage behind a Wal: an ordered set of append-only segments. Exactly one
/// segment is open for appends at a time; scan/recovery reads them all in id
/// order. Two implementations: a deterministic in-memory backend (tests,
/// crash simulation) and a file backend.
class WalBackend {
public:
  virtual ~WalBackend() = default;
  /// Segment ids, ascending.
  virtual std::vector<std::uint64_t> segments() const = 0;
  virtual std::vector<std::uint8_t> read_segment(std::uint64_t id) const = 0;
  /// Segment `id` in place when the backend holds it in memory; otherwise
  /// read into `buffer`. The view lasts until the backend changes or
  /// `buffer` is reused.
  virtual std::span<const std::uint8_t> view_segment(
      std::uint64_t id, std::vector<std::uint8_t>& buffer) const;
  /// Creates (or truncates) segment `id` and makes it the append target.
  virtual void open_segment(std::uint64_t id) = 0;
  virtual void append(const std::uint8_t* data, std::size_t size) = 0;
  virtual void remove_segment(std::uint64_t id) = 0;
};

/// Deterministic in-memory backend with crash hooks: tests simulate a
/// process crash by truncating the byte stream at an arbitrary offset, which
/// produces exactly the torn tail a real crash leaves behind.
class MemoryWalBackend final : public WalBackend {
public:
  std::vector<std::uint64_t> segments() const override;
  std::vector<std::uint8_t> read_segment(std::uint64_t id) const override;
  std::span<const std::uint8_t> view_segment(
      std::uint64_t id, std::vector<std::uint8_t>& buffer) const override;
  void open_segment(std::uint64_t id) override;
  void append(const std::uint8_t* data, std::size_t size) override;
  void remove_segment(std::uint64_t id) override;

  /// Total bytes across all segments (in id order).
  std::size_t total_bytes() const;
  /// Crash hook: keep only the first `bytes` bytes of the concatenated
  /// segment stream (id order), dropping everything after — including whole
  /// later segments. Simulates a crash with a torn final frame.
  void truncate_total(std::size_t bytes);
  void clear();

private:
  const std::vector<std::uint8_t>& segment(std::uint64_t id) const;

  std::map<std::uint64_t, std::vector<std::uint8_t>> store_;
  std::uint64_t current_ = 0;
  bool has_current_ = false;
};

/// File-backed segments (`wal-<id>.log` under one directory). Appends are
/// flushed per record; scan tolerates a torn tail exactly like the memory
/// backend.
class FileWalBackend final : public WalBackend {
public:
  explicit FileWalBackend(std::string directory);

  std::vector<std::uint64_t> segments() const override;
  std::vector<std::uint8_t> read_segment(std::uint64_t id) const override;
  void open_segment(std::uint64_t id) override;
  void append(const std::uint8_t* data, std::size_t size) override;
  void remove_segment(std::uint64_t id) override;

  const std::string& directory() const { return directory_; }

private:
  std::string segment_path(std::uint64_t id) const;

  std::string directory_;
  std::uint64_t current_ = 0;
  bool has_current_ = false;
};

/// Result of scanning a backend: every intact record in order, plus how many
/// trailing bytes were dropped as a torn/corrupt tail. The scan stops at the
/// first bad frame (bad length, bad CRC, truncated header) — everything
/// after it is untrusted, which is exactly the prefix-consistency a
/// write-ahead log guarantees.
///
/// Payloads are not copied: they point into the backend's memory, or into
/// `buffers` for segments read from storage, so a scan is valid until the
/// backend changes. Move-only, because a copy's records would still point
/// into the original's buffers.
struct WalScan {
  WalScan() = default;
  WalScan(WalScan&&) = default;
  WalScan& operator=(WalScan&&) = default;
  WalScan(const WalScan&) = delete;
  WalScan& operator=(const WalScan&) = delete;

  std::vector<WalRecord> records;
  std::size_t dropped_bytes = 0;
  bool torn = false;
  std::vector<std::vector<std::uint8_t>> buffers;
};

/// Write-ahead log over a backend: CRC32-framed, length-prefixed records
/// with monotonically increasing LSNs and segment rotation.
///
/// Frame layout (little-endian):
///   [u32 body_len][u32 crc32(body)][body]
///   body = [u64 lsn][u8 type][payload...]
///
/// Construction scans the backend to continue the LSN sequence and always
/// opens a *fresh* segment — a reopened log never appends after a possibly
/// torn tail, so one crash cannot corrupt records written after recovery.
class Wal {
public:
  struct Config {
    /// Rotate once the open segment exceeds this many bytes.
    std::size_t segment_bytes = 256 * 1024;
  };

  explicit Wal(WalBackend& backend);
  Wal(WalBackend& backend, Config config,
      obs::MetricsRegistry* metrics = nullptr);

  /// Appends one record, returns its LSN.
  std::uint64_t append(std::uint8_t type,
                       const std::vector<std::uint8_t>& payload);

  /// Closes the open segment and starts a new one (checkpointing rotates
  /// *before* writing the snapshot record, so truncate_below can drop every
  /// fully-replayed segment).
  void rotate();

  /// Removes whole segments whose records all have lsn < `lsn`. The open
  /// segment is never removed.
  void truncate_below(std::uint64_t lsn);

  std::uint64_t next_lsn() const { return next_lsn_; }

  /// Decodes every intact record across all segments of `backend`.
  static WalScan scan(const WalBackend& backend);

private:
  struct SegmentMeta {
    std::uint64_t max_lsn = 0;
    bool any = false;
  };

  WalBackend* backend_;
  Config config_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t current_segment_ = 1;
  std::size_t open_bytes_ = 0;
  std::map<std::uint64_t, SegmentMeta> meta_;
  obs::Counter* m_appended_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
};

}  // namespace hpcqc::store
