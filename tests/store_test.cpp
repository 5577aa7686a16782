// Durable-state store: WAL framing and torn-tail semantics, the job/event
// codecs, snapshot round-trips, and crash recovery rebuilding a QRM that
// continues exactly where the journal left off.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/sched/workload.hpp"
#include "hpcqc/store/codec.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/snapshot.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::store {
namespace {

sched::Qrm::Config fast_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
  return config;
}

sched::QuantumJob ghz_job(const device::DeviceModel& device, int qubits,
                          std::size_t shots, const std::string& name) {
  sched::QuantumJob job;
  job.name = name;
  job.circuit = calibration::GhzBenchmark::chain_circuit(device, qubits);
  job.shots = shots;
  return job;
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::vector<std::uint8_t> copy_of(std::span<const std::uint8_t> payload) {
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

/// Equal op lists, and every param equal bit for bit (so -0.0 and 0.0, or
/// two NaN payloads, are told apart).
void expect_same_ops(const circuit::Circuit& got,
                     const circuit::Circuit& want) {
  EXPECT_EQ(got.num_qubits(), want.num_qubits());
  ASSERT_EQ(got.ops(), want.ops());
  for (std::size_t i = 0; i < want.ops().size(); ++i)
    for (std::size_t k = 0; k < want.ops()[i].params.size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ops()[i].params[k]),
                std::bit_cast<std::uint64_t>(want.ops()[i].params[k]))
          << "op " << i << " param " << k;
}

sched::QuantumJob decode_job_bytes(const std::vector<std::uint8_t>& bytes) {
  ByteReader in(bytes);
  return decode_job(in);
}

std::vector<std::uint8_t> encode_job_bytes(const sched::QuantumJob& job) {
  ByteWriter out;
  encode_job(out, job);
  return out.take();
}

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial), the definition the
/// table-driven `crc32` must reproduce.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

// ----------------------------------------------------------------- crc32 --

TEST(StoreCrc, MatchesTheIeeeTestVector) {
  const std::vector<std::uint8_t> check = bytes_of("123456789");
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(StoreCrc, SeedChainsPartialComputations) {
  const std::vector<std::uint8_t> whole = bytes_of("the quick brown fox");
  const std::uint32_t direct = crc32(whole.data(), whole.size());
  const std::uint32_t part = crc32(whole.data(), 9);
  EXPECT_EQ(crc32(whole.data() + 9, whole.size() - 9, part), direct);
}

TEST(StoreCrc, MatchesBitwiseReferenceForEveryShortLengthAndOffset) {
  Rng rng(31);
  const std::vector<std::uint8_t> buffer = random_bytes(rng, 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(crc32(data, len), crc32_bitwise(data, len, 0))
          << "len " << len << " offset " << offset;
      const auto seed = static_cast<std::uint32_t>(rng());
      EXPECT_EQ(crc32(data, len, seed), crc32_bitwise(data, len, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
  }
}

TEST(StoreCrc, MatchesBitwiseReferenceOnRandomBuffersAndSeeds) {
  Rng rng(32);
  const std::vector<std::uint8_t> buffer = random_bytes(rng, 4096 + 8);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t offset = rng.uniform_index(8);
    const std::size_t len = rng.uniform_index(4096 + 1);
    const auto seed = static_cast<std::uint32_t>(rng());
    const std::uint8_t* data = buffer.data() + offset;
    ASSERT_EQ(crc32(data, len, seed), crc32_bitwise(data, len, seed))
        << "len " << len << " offset " << offset << " seed " << seed;
    // Chaining at an arbitrary split equals the one-shot value.
    const std::size_t split = rng.uniform_index(len + 1);
    EXPECT_EQ(crc32(data + split, len - split, crc32(data, split, seed)),
              crc32(data, len, seed));
  }
}

// ----------------------------------------------------------------- codec --

TEST(StoreCodec, RoundTripsEveryPrimitiveAndThrowsOnTruncation) {
  ByteWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.f64(-1234.5678);
  out.boolean(true);
  out.str("snapshot");
  out.str("");
  const std::vector<std::uint8_t> bytes = out.take();

  ByteReader in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.f64(), -1234.5678);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.str(), "snapshot");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.done());

  std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 3);
  ByteReader torn(cut);
  EXPECT_EQ(torn.u8(), 0xAB);
  EXPECT_THROW(torn.u32(), ParseError);
}

TEST(StoreCodec, JobRoundTripsPlainAndParametricPayloads) {
  Rng rng(7);
  device::DeviceModel device = device::make_iqm20(rng);

  // A brickwork body with random PRX angles, then the awkward values a
  // text format could lose: -0.0, the smallest subnormal and a subnormal
  // near the normal range, a barrier and a multi-qubit terminal measure.
  const circuit::Circuit brickwork =
      sched::chain_brickwork_circuit(device, 8, 6, rng);
  circuit::Circuit body(brickwork.num_qubits());
  for (const circuit::Operation& op : brickwork.ops())
    if (op.kind != circuit::OpKind::kMeasure) body.append(op);
  body.barrier();
  body.prx(-0.0, std::numeric_limits<double>::denorm_min(), 3);
  body.prx(2.5e-308, -0.0, 5);
  body.cphase(-0.0, 0, 1);
  body.measure({5, 3, 0, 1});
  ASSERT_GT(body.ops().size(), 40u);

  sched::QuantumJob plain;
  plain.name = "plain-job";
  plain.circuit = body;
  plain.shots = 750;
  plain.project = "alice";
  plain.priority = sched::JobPriority::kHigh;
  plain.trace = {0x1234, 9};
  plain.migrations = 2;
  plain.migrated_in = true;
  const std::vector<std::uint8_t> pb = encode_job_bytes(plain);
  const sched::QuantumJob plain2 = decode_job_bytes(pb);
  EXPECT_EQ(plain2.name, "plain-job");
  EXPECT_EQ(plain2.project, "alice");
  EXPECT_EQ(plain2.shots, 750u);
  EXPECT_EQ(plain2.priority, sched::JobPriority::kHigh);
  EXPECT_EQ(plain2.trace, plain.trace);
  EXPECT_EQ(plain2.migrations, 2u);
  EXPECT_TRUE(plain2.migrated_in);
  EXPECT_EQ(plain2.parametric, nullptr);
  expect_same_ops(plain2.circuit, plain.circuit);
  EXPECT_EQ(encode_job_bytes(plain2), pb);

  circuit::ParametricCircuit pc(3);
  {
    circuit::ParametricOperation op;
    op.kind = circuit::OpKind::kRz;
    op.qubits = {1};
    op.params = {circuit::ParamExpr::symbol("theta", 2.0, 0.5)};
    pc.append(std::move(op));
  }
  {
    circuit::ParametricOperation op;
    op.kind = circuit::OpKind::kCz;
    op.qubits = {0, 1};
    pc.append(std::move(op));
  }
  {
    circuit::ParametricOperation op;
    op.kind = circuit::OpKind::kPrx;
    op.qubits = {2};
    op.params = {circuit::ParamExpr::literal(-0.0),
                 circuit::ParamExpr::symbol("theta", -1.0, 1e-310)};
    pc.append(std::move(op));
  }
  sched::QuantumJob vqe;
  vqe.name = "vqe-iter";
  vqe.shots = 200;
  vqe.parametric = std::make_shared<circuit::ParametricCircuit>(pc);
  vqe.binding = {{"theta", 0.75}};
  const std::vector<std::uint8_t> vb = encode_job_bytes(vqe);
  const sched::QuantumJob vqe2 = decode_job_bytes(vb);
  ASSERT_NE(vqe2.parametric, nullptr);
  EXPECT_EQ(vqe2.parametric->structural_hash(), pc.structural_hash());
  EXPECT_EQ(vqe2.binding, vqe.binding);
  // The concrete circuit is re-bound at decode, exactly like Qrm::submit.
  expect_same_ops(vqe2.circuit, pc.bind(vqe.binding));
  EXPECT_EQ(encode_job_bytes(vqe2), vb);
}

TEST(StoreCodec, JobPayloadWithABadOpIsRejected) {
  sched::QuantumJob job;
  job.name = "one-op";
  job.shots = 10;
  job.circuit = circuit::Circuit(2);
  job.circuit.x(1);
  const std::vector<std::uint8_t> good = encode_job_bytes(job);
  ASSERT_EQ(decode_job_bytes(good).circuit.ops(), job.circuit.ops());

  // The payload ends with the only op: u8 kind, u32 qubit count, i32 qubit,
  // u32 param count.
  const std::size_t kind_at = good.size() - 13;
  const std::size_t qubit_at = good.size() - 8;
  ASSERT_EQ(good[kind_at], static_cast<std::uint8_t>(circuit::OpKind::kX));
  ASSERT_EQ(good[qubit_at], 1);

  std::vector<std::uint8_t> bad_kind = good;
  bad_kind[kind_at] = 0xFF;
  EXPECT_THROW(decode_job_bytes(bad_kind), Error);

  std::vector<std::uint8_t> bad_qubit = good;
  bad_qubit[qubit_at] = 2;  // register has qubits 0 and 1
  EXPECT_THROW(decode_job_bytes(bad_qubit), PreconditionError);
  bad_qubit[qubit_at + 3] = 0xFF;  // negative index
  EXPECT_THROW(decode_job_bytes(bad_qubit), PreconditionError);

  std::vector<std::uint8_t> bad_arity = good;
  bad_arity[kind_at] = static_cast<std::uint8_t>(circuit::OpKind::kCz);
  EXPECT_THROW(decode_job_bytes(bad_arity), PreconditionError);

  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 2);
  EXPECT_THROW(decode_job_bytes(truncated), ParseError);
}

// ------------------------------------------------------------------- wal --

TEST(StoreWal, AppendScanRoundTripsInOrder) {
  MemoryWalBackend backend;
  Wal wal(backend);
  EXPECT_EQ(wal.append(1, bytes_of("alpha")), 1u);
  EXPECT_EQ(wal.append(2, bytes_of("beta")), 2u);
  EXPECT_EQ(wal.append(1, bytes_of("")), 3u);

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.records[0].lsn, 1u);
  EXPECT_EQ(scan.records[0].type, 1);
  EXPECT_EQ(copy_of(scan.records[0].payload), bytes_of("alpha"));
  EXPECT_EQ(scan.records[1].type, 2);
  EXPECT_EQ(copy_of(scan.records[1].payload), bytes_of("beta"));
  EXPECT_TRUE(scan.records[2].payload.empty());
}

TEST(StoreWal, TornTailDropsOnlyTheUnflushedSuffix) {
  MemoryWalBackend backend;
  Wal wal(backend);
  wal.append(1, bytes_of("first"));
  const std::size_t intact = backend.total_bytes();
  wal.append(1, bytes_of("second-record-payload"));

  // The crash left the second frame half-written.
  backend.truncate_total(intact + 5);
  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(copy_of(scan.records[0].payload), bytes_of("first"));
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.dropped_bytes, 5u);
}

TEST(StoreWal, RotationSplitsSegmentsAndTruncateDropsReplayedOnes) {
  MemoryWalBackend backend;
  Wal::Config config;
  config.segment_bytes = 64;  // a few records per segment
  Wal wal(backend, config);
  std::uint64_t last = 0;
  for (int i = 0; i < 12; ++i)
    last = wal.append(1, bytes_of("record-" + std::to_string(i)));
  ASSERT_GT(backend.segments().size(), 2u);

  const WalScan before = Wal::scan(backend);
  ASSERT_EQ(before.records.size(), 12u);

  // Everything below the last record is replayed: every whole older segment
  // goes; the record itself (in the open or newest segment) survives.
  wal.truncate_below(last);
  const WalScan after = Wal::scan(backend);
  ASSERT_FALSE(after.records.empty());
  EXPECT_EQ(after.records.back().lsn, last);
  EXPECT_LT(backend.total_bytes(), 64u * 12u);
}

TEST(StoreWal, ReopenContinuesTheLsnSequenceInAFreshSegment) {
  MemoryWalBackend backend;
  {
    Wal wal(backend);
    wal.append(1, bytes_of("one"));
    wal.append(1, bytes_of("two"));
  }
  const std::size_t segments_before = backend.segments().size();
  Wal reopened(backend);
  EXPECT_EQ(reopened.next_lsn(), 3u);
  // Never append after a possibly-torn tail: reopen starts a new segment.
  EXPECT_GT(backend.segments().size(), segments_before);
  reopened.append(1, bytes_of("three"));

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].lsn, 3u);
  EXPECT_EQ(copy_of(scan.records[2].payload), bytes_of("three"));
}

TEST(StoreWal, ReopenIndexesSegmentsSoTruncateDropsExactlyTheReplayedOnes) {
  MemoryWalBackend backend;
  Wal::Config config;
  config.segment_bytes = 64;  // three 25-26 byte frames, then rotate
  {
    Wal wal(backend, config);
    for (int i = 1; i <= 12; ++i)
      wal.append(1, bytes_of("record-" + std::to_string(i)));
  }
  // Segments 1-4 hold lsns 1-3, 4-6, 7-9, 10-12; segment 5 was opened
  // empty by the rotation after lsn 12.
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 12u);
  for (const WalRecord& record : scan.records)
    EXPECT_EQ(record.segment, (record.lsn - 1) / 3 + 1) << record.lsn;

  Wal reopened(backend, config);
  EXPECT_EQ(reopened.next_lsn(), 13u);
  EXPECT_EQ(backend.segments(),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  // Below lsn 7: segments 1 and 2 are replayed, the empty segment 5 goes
  // too, and the open segment 6 always stays.
  reopened.truncate_below(7);
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{3, 4, 6}));
  reopened.truncate_below(13);
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{6}));
}

TEST(StoreWal, ReopenOverATornLastSegmentTruncatesByItsIntactFrames) {
  MemoryWalBackend backend;
  Wal::Config config;
  config.segment_bytes = 64;
  {
    Wal wal(backend, config);
    for (int i = 1; i <= 11; ++i)
      wal.append(1, bytes_of("record-" + std::to_string(i)));
  }
  // Segment 4 holds lsns 10 and 11; the crash tears lsn 11's frame.
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  backend.truncate_total(backend.total_bytes() - 3);

  Wal reopened(backend, config);
  EXPECT_EQ(reopened.next_lsn(), 11u);
  EXPECT_EQ(reopened.append(1, bytes_of("after")), 11u);
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  // Segment 4's index is its one intact frame, lsn 10.
  reopened.truncate_below(10);
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{4, 5}));
  reopened.truncate_below(11);
  EXPECT_EQ(backend.segments(), (std::vector<std::uint64_t>{5}));

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records[0].lsn, 11u);
  EXPECT_EQ(scan.records[0].segment, 5u);
  EXPECT_EQ(copy_of(scan.records[0].payload), bytes_of("after"));
}

TEST(StoreWal, FileBackendRoundTripsAndStopsAtCorruption) {
  const std::string dir = ::testing::TempDir() + "/hpcqc_wal_test";
  std::filesystem::remove_all(dir);
  FileWalBackend backend(dir);
  {
    Wal wal(backend);
    wal.append(1, bytes_of("disk-one"));
    wal.append(2, bytes_of("disk-two"));
    wal.append(1, bytes_of("disk-three"));
  }
  FileWalBackend again(dir);
  const WalScan scan = Wal::scan(again);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(copy_of(scan.records[1].payload), bytes_of("disk-two"));

  // Flip one byte inside the second record's payload: the scan keeps the
  // first record and distrusts everything after the bad CRC.
  const std::uint64_t id = again.segments().front();
  std::vector<std::uint8_t> raw = again.read_segment(id);
  const std::size_t second_payload = (8 + 9 + 8) + 8 + 9 + 2;
  raw[second_payload] ^= 0xFF;
  {
    std::ofstream out(dir + "/wal-00000001.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
  }
  const WalScan corrupt = Wal::scan(again);
  ASSERT_EQ(corrupt.records.size(), 1u);
  EXPECT_EQ(copy_of(corrupt.records[0].payload), bytes_of("disk-one"));
  EXPECT_TRUE(corrupt.torn);
  EXPECT_GT(corrupt.dropped_bytes, 0u);
}

TEST(StoreWal, ScanViewsMemorySegmentsInPlace) {
  MemoryWalBackend backend;
  Wal::Config config;
  config.segment_bytes = 64;
  Wal wal(backend, config);
  for (int i = 0; i < 12; ++i)
    wal.append(1, bytes_of("record-" + std::to_string(i)));

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 12u);
  EXPECT_TRUE(scan.buffers.empty());
  std::vector<std::uint8_t> unused;
  const std::span<const std::uint8_t> first =
      backend.view_segment(backend.segments().front(), unused);
  EXPECT_TRUE(unused.empty());
  const std::span<const std::uint8_t> payload = scan.records[0].payload;
  EXPECT_GE(payload.data(), first.data());
  EXPECT_LE(payload.data() + payload.size(), first.data() + first.size());
  EXPECT_EQ(copy_of(scan.records[11].payload), bytes_of("record-11"));
}

TEST(StoreWal, FileScanOwnsItsSegmentsAcrossAMove) {
  const std::string dir = ::testing::TempDir() + "/hpcqc_wal_move_test";
  std::filesystem::remove_all(dir);
  FileWalBackend backend(dir);
  Wal::Config config;
  config.segment_bytes = 64;
  Wal wal(backend, config);
  for (int i = 0; i < 8; ++i)
    wal.append(1, bytes_of("disk-record-" + std::to_string(i)));

  WalScan scan = Wal::scan(backend);
  EXPECT_GT(scan.buffers.size(), 1u);
  const WalScan moved = std::move(scan);
  ASSERT_EQ(moved.records.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(copy_of(moved.records[static_cast<std::size_t>(i)].payload),
              bytes_of("disk-record-" + std::to_string(i)));
}

// -------------------------------------------------------------- snapshot --

TEST(StoreSnapshot, QrmImageRoundTripsByteIdentically) {
  Rng rng(21);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.submit(ghz_job(device, 6, 500, "snap-a"));
  qrm.submit(ghz_job(device, 4, 300, "snap-b"));
  qrm.advance_to(minutes(30.0));
  qrm.submit(ghz_job(device, 5, 400, "snap-c"));

  const sched::QrmDurableState image = qrm.capture_durable();
  const std::vector<std::uint8_t> bytes = encode_snapshot(image);
  EXPECT_EQ(snapshot_scope(bytes), SnapshotScope::kQrm);
  const sched::QrmDurableState back = decode_qrm_snapshot(bytes);
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.records.size(), image.records.size());
  EXPECT_EQ(back.queue, image.queue);
  EXPECT_EQ(back.now, image.now);

  EXPECT_THROW(decode_fleet_snapshot(bytes), PreconditionError);
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0x5A;
  EXPECT_THROW(snapshot_scope(bad), PreconditionError);
}

TEST(StoreSnapshot, VersionOneSnapshotIsRefused) {
  // Version 1 held job circuits as text; version 2 holds them as binary
  // ops. An old snapshot is refused, not misread.
  Rng rng(23);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.submit(ghz_job(device, 5, 400, "old-format"));
  std::vector<std::uint8_t> bytes = encode_snapshot(qrm.capture_durable());
  ASSERT_EQ(bytes[4], 2);  // after the u32 magic
  bytes[4] = 1;
  EXPECT_THROW(snapshot_scope(bytes), ParseError);
  EXPECT_THROW(decode_qrm_snapshot(bytes), ParseError);
}

TEST(StoreSnapshot, RestoredQrmContinuesAndConservesJobs) {
  Rng rng(22);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  const int a = qrm.submit(ghz_job(device, 6, 500, "go-a"));
  const int b = qrm.submit(ghz_job(device, 4, 300, "go-b"));
  qrm.advance_to(minutes(20.0));

  const sched::QrmDurableState image = qrm.capture_durable();
  Rng rng2(99);  // the restored plane's own stream
  sched::Qrm restored(device, fast_config(), rng2, nullptr);
  const sched::RestoreSummary summary = restored.restore_durable(image);
  EXPECT_EQ(summary.restored_jobs, 2u);
  EXPECT_EQ(restored.now(), image.now);
  restored.drain();
  EXPECT_EQ(restored.record(a).state, sched::QuantumJobState::kCompleted);
  EXPECT_EQ(restored.record(b).state, sched::QuantumJobState::kCompleted);
  const sched::JobConservation audit = restored.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.in_flight, 0u);
}

// -------------------------------------------------------------- recovery --

TEST(StoreRecovery, JournalReplayRebuildsTheLiveImage) {
  Rng rng(23);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  // One job per priority class, so every class bucket is observed by the
  // journal and the replayed image matches the live capture byte-for-byte.
  sched::QuantumJob high = ghz_job(device, 6, 500, "replay-a");
  high.priority = sched::JobPriority::kHigh;
  qrm.submit(std::move(high));
  qrm.submit(ghz_job(device, 4, 300, "replay-b"));
  qrm.advance_to(minutes(45.0));
  sched::QuantumJob low = ghz_job(device, 5, 400, "replay-c");
  low.priority = sched::JobPriority::kLow;
  qrm.submit(std::move(low));

  const sched::QrmDurableState live = qrm.capture_durable();
  Recovery recovery(backend);
  sched::QrmDurableState replayed = recovery.recover_qrm();
  EXPECT_FALSE(recovery.stats().had_snapshot);
  EXPECT_GT(recovery.stats().replayed, 0u);
  EXPECT_EQ(recovery.stats().scrubbed, 0u);
  // The journal lower-bounds the clock at the last event; idle time after
  // it is not journaled. Everything else must match bit-for-bit.
  EXPECT_LE(replayed.now, live.now);
  replayed.now = live.now;
  EXPECT_EQ(encode_snapshot(replayed), encode_snapshot(live));
}

TEST(StoreRecovery, CheckpointPlusReplayMatchesAndBoundsTheJournal) {
  Rng rng(24);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  obs::MetricsRegistry metrics;
  Wal wal(backend, Wal::Config{}, &metrics);
  Journal journal(wal);
  Checkpointer::Config cadence;
  cadence.interval = hours(1.0);
  Checkpointer checkpointer(wal, cadence, &metrics);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  std::size_t snapshots = 0;
  for (int k = 0; k <= 16; ++k) {
    qrm.advance_to(minutes(30.0) * k);
    if (k % 2 == 1)
      qrm.submit(ghz_job(device, 4 + k % 3, 300, "ck-" + std::to_string(k)));
    if (checkpointer.maybe_checkpoint(qrm)) snapshots += 1;
  }
  ASSERT_GE(snapshots, 3u);
  EXPECT_EQ(metrics.counter("store.snapshots").count(), snapshots);
  EXPECT_GT(metrics.counter("store.wal.appended").count(), snapshots);

  Recovery recovery(backend, &metrics);
  sched::QrmDurableState replayed = recovery.recover_qrm();
  EXPECT_TRUE(recovery.stats().had_snapshot);
  EXPECT_EQ(recovery.stats().snapshot_lsn, checkpointer.last_snapshot_lsn());

  sched::QrmDurableState live = qrm.capture_durable();
  EXPECT_LE(replayed.now, live.now);
  replayed.now = live.now;
  EXPECT_EQ(encode_snapshot(replayed), encode_snapshot(live));
}

TEST(StoreRecovery, InFlightAttemptIsRequeuedAtTheHeadExactlyOnce) {
  Rng rng(25);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  const int a = qrm.submit(ghz_job(device, 6, 500000, "long-a"));
  const int b = qrm.submit(ghz_job(device, 4, 300, "short-b"));
  qrm.advance_to(minutes(3.0));
  ASSERT_EQ(qrm.record(a).state, sched::QuantumJobState::kRunning);
  const std::size_t attempts_before = qrm.record(a).attempts;

  // kill -9: the journal's kDispatched is the last word on job a.
  obs::MetricsRegistry metrics;
  Rng rng2(4);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  Recovery recovery(backend, &metrics);
  const RecoveryStats stats = recovery.restore(rebuilt);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(metrics.counter("store.recovery.requeued").count(), 1u);

  const sched::QuantumJobRecord& rec = rebuilt.record(a);
  EXPECT_EQ(rec.state, sched::QuantumJobState::kQueued);
  EXPECT_EQ(rec.attempts, attempts_before - 1);
  EXPECT_EQ(rec.interruptions, 1u);
  EXPECT_EQ(rec.failure_reason,
            "interrupted by control-plane crash; requeued at recovery");

  rebuilt.drain();
  EXPECT_EQ(rebuilt.record(a).state, sched::QuantumJobState::kCompleted);
  EXPECT_EQ(rebuilt.record(b).state, sched::QuantumJobState::kCompleted);
  // Exactly-once accounting: the interrupted attempt was not charged, so
  // the rerun is the job's only completed attempt.
  EXPECT_EQ(rebuilt.record(a).attempts, attempts_before);
  EXPECT_TRUE(rebuilt.conservation().holds());
}

TEST(StoreRecovery, TornAdmissionOutcomeIsScrubbedDeterministically) {
  Rng rng(26);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  qrm.submit(ghz_job(device, 6, 500, "kept"));
  const int lost = qrm.submit(ghz_job(device, 4, 300, "lost"));

  // Crash flushed the second submission's kSubmitted but tore its
  // kAdmitted (the final frame) off the tail: recovery must not guess the
  // admission outcome.
  const WalScan full = Wal::scan(backend);
  const std::size_t last_frame = 8 + 9 + full.records.back().payload.size();
  backend.truncate_total(backend.total_bytes() - last_frame);

  Recovery recovery(backend);
  Rng rng2(5);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  const RecoveryStats stats = recovery.restore(rebuilt);
  EXPECT_EQ(stats.scrubbed, 1u);
  EXPECT_EQ(rebuilt.record(lost).state, sched::QuantumJobState::kCancelled);
  EXPECT_EQ(rebuilt.record(lost).failure_reason,
            "recovery: admission outcome lost in torn journal tail");
  rebuilt.drain();
  EXPECT_TRUE(rebuilt.conservation().holds());
  EXPECT_EQ(rebuilt.conservation().in_flight, 0u);
}

TEST(StoreRecovery, RecoverySpansDocumentTheRebuild) {
  Rng rng(27);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);
  qrm.submit(ghz_job(device, 5, 400, "traced"));
  qrm.advance_to(minutes(10.0));

  obs::Tracer tracer;
  Rng rng2(6);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  rebuilt.set_tracer(&tracer);
  Recovery recovery(backend, nullptr, &tracer);
  recovery.restore(rebuilt);

  bool saw_root = false, saw_load = false, saw_replay = false;
  for (const auto& span : tracer.records()) {
    if (span.name == "recovery") saw_root = true;
    if (span.name == "snapshot-load") saw_load = true;
    if (span.name == "journal-replay") saw_replay = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_replay);
  rebuilt.drain();
  EXPECT_TRUE(rebuilt.conservation().holds());
}

}  // namespace
}  // namespace hpcqc::store
