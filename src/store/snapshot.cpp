#include "hpcqc/store/snapshot.hpp"

#include <chrono>

#include "hpcqc/common/error.hpp"
#include "hpcqc/store/codec.hpp"
#include "hpcqc/store/journal.hpp"

namespace hpcqc::store {

namespace {

constexpr std::uint32_t kMagic = 0x53445148u;  // "HQDS" little-endian
constexpr std::uint8_t kVersion = 2;

void encode_qrm_body(ByteWriter& out, const sched::QrmDurableState& state) {
  out.f64(state.now);
  out.i32(state.next_id);
  out.boolean(state.online);

  out.u32(static_cast<std::uint32_t>(state.queue.size()));
  for (const int id : state.queue) out.i32(id);
  out.u32(static_cast<std::uint32_t>(state.retry_queue.size()));
  for (const int id : state.retry_queue) out.i32(id);

  out.u32(static_cast<std::uint32_t>(state.records.size()));
  for (const auto& [id, record] : state.records) encode_record(out, record);
  out.u32(static_cast<std::uint32_t>(state.pending.size()));
  for (const auto& [id, job] : state.pending) {
    out.i32(id);
    encode_job(out, job);
  }

  out.u32(static_cast<std::uint32_t>(state.dead_letters.size()));
  for (const sched::DeadLetterRecord& letter : state.dead_letters) {
    out.i32(letter.id);
    out.str(letter.name);
    out.u64(letter.attempts);
    out.str(letter.reason);
    out.f64(letter.failed_at);
    encode_job(out, letter.job);
    out.u64(letter.trace.trace_id);
    out.u64(letter.trace.span);
  }

  for (const sched::TokenBucketState& bucket : state.class_buckets) {
    out.f64(bucket.tokens);
    out.f64(bucket.last_refill);
  }
  out.u32(static_cast<std::uint32_t>(state.tenants.size()));
  for (const auto& [project, bucket] : state.tenants) {
    out.str(project);
    out.f64(bucket.tokens);
    out.f64(bucket.last_refill);
  }

  out.u32(static_cast<std::uint32_t>(state.structure_manifest.size()));
  for (const std::uint64_t hash : state.structure_manifest) out.u64(hash);
}

sched::QrmDurableState decode_qrm_body(ByteReader& in) {
  sched::QrmDurableState state;
  state.now = in.f64();
  state.next_id = in.i32();
  state.online = in.boolean();

  const std::uint32_t nqueue = in.u32();
  state.queue.reserve(nqueue);
  for (std::uint32_t i = 0; i < nqueue; ++i) state.queue.push_back(in.i32());
  const std::uint32_t nretry = in.u32();
  state.retry_queue.reserve(nretry);
  for (std::uint32_t i = 0; i < nretry; ++i)
    state.retry_queue.push_back(in.i32());

  // Maps are encoded in key order, so inserting at the end hint costs
  // constant time per entry.
  const std::uint32_t nrecords = in.u32();
  for (std::uint32_t i = 0; i < nrecords; ++i) {
    sched::QuantumJobRecord record = decode_record(in);
    const int id = record.id;
    state.records.emplace_hint(state.records.end(), id, std::move(record));
  }
  const std::uint32_t npending = in.u32();
  for (std::uint32_t i = 0; i < npending; ++i) {
    const int id = in.i32();
    state.pending.emplace_hint(state.pending.end(), id, decode_job(in));
  }

  const std::uint32_t nletters = in.u32();
  state.dead_letters.reserve(nletters);
  for (std::uint32_t i = 0; i < nletters; ++i) {
    sched::DeadLetterRecord letter;
    letter.id = in.i32();
    letter.name = in.str();
    letter.attempts = in.u64();
    letter.reason = in.str();
    letter.failed_at = in.f64();
    letter.job = decode_job(in);
    letter.trace.trace_id = in.u64();
    letter.trace.span = in.u64();
    state.dead_letters.push_back(std::move(letter));
  }

  for (sched::TokenBucketState& bucket : state.class_buckets) {
    bucket.tokens = in.f64();
    bucket.last_refill = in.f64();
  }
  const std::uint32_t ntenants = in.u32();
  for (std::uint32_t i = 0; i < ntenants; ++i) {
    std::string project = in.str();
    sched::TokenBucketState bucket;
    bucket.tokens = in.f64();
    bucket.last_refill = in.f64();
    state.tenants.emplace_hint(state.tenants.end(), std::move(project),
                               bucket);
  }

  const std::uint32_t nmanifest = in.u32();
  state.structure_manifest.reserve(nmanifest);
  for (std::uint32_t i = 0; i < nmanifest; ++i)
    state.structure_manifest.push_back(in.u64());
  return state;
}

void encode_fleet_body(ByteWriter& out,
                       const sched::FleetDurableState& state) {
  out.f64(state.now);
  out.i32(state.next_id);
  out.u32(static_cast<std::uint32_t>(state.records.size()));
  for (const auto& [id, record] : state.records) {
    out.i32(record.id);
    out.str(record.name);
    out.i32(record.device);
    out.i32(record.local_id);
    out.f64(record.submit_time);
    out.i32(record.width);
    out.u8(static_cast<std::uint8_t>(record.priority));
    out.u64(record.migrations);
    out.u8(static_cast<std::uint8_t>(record.refused_state));
    out.str(record.refusal_reason);
    out.u32(static_cast<std::uint32_t>(record.hops.size()));
    for (const auto& [device, local_id] : record.hops) {
      out.i32(device);
      out.i32(local_id);
    }
  }
  out.u32(static_cast<std::uint32_t>(state.devices.size()));
  for (const sched::QrmDurableState& device : state.devices)
    encode_qrm_body(out, device);
}

sched::FleetDurableState decode_fleet_body(ByteReader& in) {
  sched::FleetDurableState state;
  state.now = in.f64();
  state.next_id = in.i32();
  const std::uint32_t nrecords = in.u32();
  for (std::uint32_t i = 0; i < nrecords; ++i) {
    sched::Fleet::FleetJobRecord record;
    record.id = in.i32();
    record.name = in.str();
    record.device = in.i32();
    record.local_id = in.i32();
    record.submit_time = in.f64();
    record.width = in.i32();
    record.priority = static_cast<sched::JobPriority>(in.u8());
    record.migrations = in.u64();
    record.refused_state = static_cast<sched::QuantumJobState>(in.u8());
    record.refusal_reason = in.str();
    const std::uint32_t nhops = in.u32();
    record.hops.reserve(nhops);
    for (std::uint32_t h = 0; h < nhops; ++h) {
      const int device = in.i32();
      const int local_id = in.i32();
      record.hops.emplace_back(device, local_id);
    }
    const int id = record.id;
    state.records.emplace_hint(state.records.end(), id, std::move(record));
  }
  const std::uint32_t ndevices = in.u32();
  state.devices.reserve(ndevices);
  for (std::uint32_t i = 0; i < ndevices; ++i)
    state.devices.push_back(decode_qrm_body(in));
  return state;
}

std::uint8_t check_header(ByteReader& in) {
  expects(in.u32() == kMagic, "snapshot: bad magic");
  const std::uint8_t version = in.u8();
  if (version != kVersion)
    throw ParseError("snapshot: unsupported version " +
                     std::to_string(version));
  return in.u8();  // scope
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(
    const sched::QrmDurableState& state) {
  ByteWriter out;
  out.u32(kMagic);
  out.u8(kVersion);
  out.u8(static_cast<std::uint8_t>(SnapshotScope::kQrm));
  encode_qrm_body(out, state);
  return out.take();
}

std::vector<std::uint8_t> encode_snapshot(
    const sched::FleetDurableState& state) {
  ByteWriter out;
  out.u32(kMagic);
  out.u8(kVersion);
  out.u8(static_cast<std::uint8_t>(SnapshotScope::kFleet));
  encode_fleet_body(out, state);
  return out.take();
}

SnapshotScope snapshot_scope(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint8_t scope = check_header(in);
  expects(scope == 1 || scope == 2, "snapshot: bad scope byte");
  return static_cast<SnapshotScope>(scope);
}

sched::QrmDurableState decode_qrm_snapshot(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  expects(check_header(in) == static_cast<std::uint8_t>(SnapshotScope::kQrm),
          "snapshot: not a qrm snapshot");
  return decode_qrm_body(in);
}

sched::FleetDurableState decode_fleet_snapshot(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  expects(
      check_header(in) == static_cast<std::uint8_t>(SnapshotScope::kFleet),
      "snapshot: not a fleet snapshot");
  return decode_fleet_body(in);
}

// ---------------------------------------------------------------- cadence --

Checkpointer::Checkpointer(Wal& wal) : Checkpointer(wal, Config{}) {}

Checkpointer::Checkpointer(Wal& wal, Config config,
                           obs::MetricsRegistry* metrics)
    : wal_(&wal), config_(config) {
  expects(config_.interval > 0.0, "Checkpointer: interval must be positive");
  if (metrics != nullptr) {
    m_snapshots_ = &metrics->counter("store.snapshots");
    m_bytes_ = &metrics->counter("store.snapshot.bytes");
    m_duration_ = &metrics->histogram("store.snapshot.duration_s");
  }
}

bool Checkpointer::due(Seconds now) {
  if (!armed_) {
    armed_ = true;
    last_at_ = now;
    return false;
  }
  if (now - last_at_ < config_.interval) return false;
  last_at_ = now;
  return true;
}

bool Checkpointer::maybe_checkpoint(const sched::Fleet& fleet) {
  if (!due(fleet.now())) return false;
  checkpoint(fleet);
  return true;
}

bool Checkpointer::maybe_checkpoint(const sched::Qrm& qrm) {
  if (!due(qrm.now())) return false;
  checkpoint(qrm);
  return true;
}

void Checkpointer::checkpoint(const sched::Fleet& fleet) {
  write(encode_snapshot(fleet.capture_durable()));
}

void Checkpointer::checkpoint(const sched::Qrm& qrm) {
  write(encode_snapshot(qrm.capture_durable()));
}

void Checkpointer::write(std::vector<std::uint8_t> bytes) {
  // Wall-clock duration: an operational metric only, never part of a
  // deterministic report.
  const auto start = std::chrono::steady_clock::now();
  // Rotate first so the snapshot heads a fresh segment, then truncate below
  // the *previous* snapshot only: if a crash tears this snapshot's tail,
  // recovery falls back to the previous one plus the events since — the
  // journal never has a window where the only checkpoint is unverified.
  wal_->rotate();
  const std::uint64_t lsn =
      wal_->append(static_cast<std::uint8_t>(RecordType::kSnapshot), bytes);
  if (last_lsn_ > 0) wal_->truncate_below(last_lsn_);
  last_lsn_ = lsn;
  if (m_snapshots_ != nullptr) m_snapshots_->inc();
  if (m_bytes_ != nullptr) m_bytes_->inc(static_cast<double>(bytes.size()));
  if (m_duration_ != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    m_duration_->observe(elapsed.count());
  }
}

}  // namespace hpcqc::store
