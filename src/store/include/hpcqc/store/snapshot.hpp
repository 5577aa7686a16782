#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::store {

/// Stable binary serialization of the durable images. Layout:
///   [u32 magic "HQDS"][u8 version][u8 scope (1 = qrm, 2 = fleet)][body]
/// Field order is append-only: new fields go at the end behind a version
/// bump, so old snapshots keep decoding.
std::vector<std::uint8_t> encode_snapshot(const sched::QrmDurableState& state);
std::vector<std::uint8_t> encode_snapshot(
    const sched::FleetDurableState& state);

/// Scope of an encoded snapshot without a full decode; throws ParseError on
/// a bad magic/version.
enum class SnapshotScope : std::uint8_t { kQrm = 1, kFleet = 2 };
SnapshotScope snapshot_scope(std::span<const std::uint8_t> bytes);

sched::QrmDurableState decode_qrm_snapshot(
    std::span<const std::uint8_t> bytes);
sched::FleetDurableState decode_fleet_snapshot(
    std::span<const std::uint8_t> bytes);

/// Checkpoints a durable image into the WAL on a simulated-clock cadence and
/// truncates the replayed journal prefix: rotate first, write the snapshot
/// at the head of a fresh segment, then drop every whole segment older than
/// the *previous* snapshot. Keeping two checkpoints is what makes
/// truncation crash-safe — if a crash tears the newest snapshot's tail,
/// recovery still has the previous one plus every event since.
class Checkpointer {
public:
  struct Config {
    Seconds interval = hours(6.0);
  };

  explicit Checkpointer(Wal& wal);
  Checkpointer(Wal& wal, Config config,
               obs::MetricsRegistry* metrics = nullptr);

  /// Checkpoints when at least `interval` of simulated time passed since
  /// the last one (the first call only arms the cadence). Returns true when
  /// a snapshot was written.
  bool maybe_checkpoint(const sched::Fleet& fleet);
  bool maybe_checkpoint(const sched::Qrm& qrm);

  /// Unconditional checkpoint.
  void checkpoint(const sched::Fleet& fleet);
  void checkpoint(const sched::Qrm& qrm);

  std::uint64_t last_snapshot_lsn() const { return last_lsn_; }

private:
  void write(std::vector<std::uint8_t> bytes);
  bool due(Seconds now);

  Wal* wal_;
  Config config_;
  Seconds last_at_ = -1.0;
  bool armed_ = false;
  std::uint64_t last_lsn_ = 0;
  obs::Counter* m_snapshots_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Histogram* m_duration_ = nullptr;
};

}  // namespace hpcqc::store
