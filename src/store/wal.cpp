#include "hpcqc/store/wal.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "hpcqc/common/error.hpp"
#include "hpcqc/store/codec.hpp"

namespace hpcqc::store {

namespace {

// Slice-by-8 tables: t[0] is the classic byte-wise table of the reflected
// IEEE polynomial; t[k][i] is the CRC register after byte i followed by k
// zero bytes, so eight input bytes fold into the register per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr std::size_t kFrameHeader = 8;  ///< u32 len + u32 crc

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  std::size_t i = 0;
  // Bytes are assembled explicitly, so the result does not depend on host
  // endianness or on the alignment of `data`.
  for (; size - i >= 8; i += 8) {
    const std::uint8_t* p = data + i;
    const std::uint32_t lo =
        c ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
             std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; i < size; ++i) c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::span<const std::uint8_t> WalBackend::view_segment(
    std::uint64_t id, std::vector<std::uint8_t>& buffer) const {
  buffer = read_segment(id);
  return buffer;
}

// ---------------------------------------------------------------- memory --

std::vector<std::uint64_t> MemoryWalBackend::segments() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(store_.size());
  for (const auto& [id, bytes] : store_) ids.push_back(id);
  return ids;
}

const std::vector<std::uint8_t>& MemoryWalBackend::segment(
    std::uint64_t id) const {
  const auto it = store_.find(id);
  if (it == store_.end())
    throw NotFoundError("MemoryWalBackend: no segment " + std::to_string(id));
  return it->second;
}

std::vector<std::uint8_t> MemoryWalBackend::read_segment(
    std::uint64_t id) const {
  return segment(id);
}

std::span<const std::uint8_t> MemoryWalBackend::view_segment(
    std::uint64_t id, std::vector<std::uint8_t>& /*buffer*/) const {
  return segment(id);
}

void MemoryWalBackend::open_segment(std::uint64_t id) {
  store_[id].clear();
  current_ = id;
  has_current_ = true;
}

void MemoryWalBackend::append(const std::uint8_t* data, std::size_t size) {
  ensure_state(has_current_, "MemoryWalBackend: no open segment");
  auto& segment = store_[current_];
  segment.insert(segment.end(), data, data + size);
}

void MemoryWalBackend::remove_segment(std::uint64_t id) {
  store_.erase(id);
  if (has_current_ && id == current_) has_current_ = false;
}

std::size_t MemoryWalBackend::total_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, bytes] : store_) total += bytes.size();
  return total;
}

void MemoryWalBackend::truncate_total(std::size_t bytes) {
  std::size_t kept = 0;
  for (auto it = store_.begin(); it != store_.end();) {
    auto& segment = it->second;
    if (kept >= bytes) {
      it = store_.erase(it);
      continue;
    }
    const std::size_t room = bytes - kept;
    if (segment.size() > room) segment.resize(room);
    kept += segment.size();
    ++it;
  }
  has_current_ = false;
}

void MemoryWalBackend::clear() {
  store_.clear();
  has_current_ = false;
}

// ------------------------------------------------------------------ file --

FileWalBackend::FileWalBackend(std::string directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::string FileWalBackend::segment_path(std::uint64_t id) const {
  std::string name = std::to_string(id);
  if (name.size() < 8) name.insert(0, 8 - name.size(), '0');
  return directory_ + "/wal-" + name + ".log";
}

std::vector<std::uint64_t> FileWalBackend::segments() const {
  std::vector<std::uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.rfind("wal-", 0) != 0) continue;
    if (name.substr(name.size() - 4) != ".log") continue;
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    ids.push_back(std::stoull(digits));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint8_t> FileWalBackend::read_segment(
    std::uint64_t id) const {
  std::ifstream in(segment_path(id), std::ios::binary);
  if (!in)
    throw NotFoundError("FileWalBackend: no segment " + std::to_string(id));
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void FileWalBackend::open_segment(std::uint64_t id) {
  std::ofstream out(segment_path(id), std::ios::binary | std::ios::trunc);
  ensure_state(static_cast<bool>(out),
               "FileWalBackend: cannot open segment " + segment_path(id));
  current_ = id;
  has_current_ = true;
}

void FileWalBackend::append(const std::uint8_t* data, std::size_t size) {
  ensure_state(has_current_, "FileWalBackend: no open segment");
  std::ofstream out(segment_path(current_),
                    std::ios::binary | std::ios::app);
  ensure_state(static_cast<bool>(out),
               "FileWalBackend: cannot append to " + segment_path(current_));
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  out.flush();
}

void FileWalBackend::remove_segment(std::uint64_t id) {
  std::filesystem::remove(segment_path(id));
  if (has_current_ && id == current_) has_current_ = false;
}

// ------------------------------------------------------------------- wal --

Wal::Wal(WalBackend& backend) : Wal(backend, Config{}) {}

Wal::Wal(WalBackend& backend, Config config, obs::MetricsRegistry* metrics)
    : backend_(&backend), config_(config) {
  expects(config_.segment_bytes > 0, "Wal: segment_bytes must be positive");
  if (metrics != nullptr) {
    m_appended_ = &metrics->counter("store.wal.appended");
    m_bytes_ = &metrics->counter("store.wal.bytes");
  }
  // Continue the LSN sequence past everything intact on disk, and index the
  // surviving segments so truncate_below can drop them once replayed. A
  // segment with no intact record in the scan (torn from its first frame,
  // or past the first bad frame) is indexed as empty, so the next
  // truncate_below removes it.
  const std::vector<std::uint64_t> segments = backend_->segments();
  for (const std::uint64_t id : segments) meta_[id] = SegmentMeta{};
  const WalScan scan_result = scan(*backend_);
  for (const WalRecord& record : scan_result.records) {
    next_lsn_ = std::max(next_lsn_, record.lsn + 1);
    SegmentMeta& m = meta_[record.segment];
    m.max_lsn = std::max(m.max_lsn, record.lsn);
    m.any = true;
  }
  // Never append after a possibly-torn tail: always start a fresh segment.
  current_segment_ = (segments.empty() ? 0 : segments.back()) + 1;
  backend_->open_segment(current_segment_);
  meta_[current_segment_] = SegmentMeta{};
  open_bytes_ = 0;
}

std::uint64_t Wal::append(std::uint8_t type,
                          const std::vector<std::uint8_t>& payload) {
  const std::uint64_t lsn = next_lsn_++;
  ByteWriter frame(kFrameHeader + 9 + payload.size());
  frame.u32(static_cast<std::uint32_t>(9 + payload.size()));
  frame.u32(0);  // CRC placeholder, patched below
  frame.u64(lsn);
  frame.u8(type);
  frame.bytes(payload.data(), payload.size());
  std::vector<std::uint8_t> bytes = frame.take();
  // CRC over the body (lsn + type + payload), patched into the header.
  const std::uint32_t crc =
      crc32(bytes.data() + kFrameHeader, bytes.size() - kFrameHeader);
  for (int i = 0; i < 4; ++i)
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  backend_->append(bytes.data(), bytes.size());

  SegmentMeta& m = meta_[current_segment_];
  m.max_lsn = std::max(m.max_lsn, lsn);
  m.any = true;
  open_bytes_ += bytes.size();
  if (m_appended_ != nullptr) m_appended_->inc();
  if (m_bytes_ != nullptr) m_bytes_->inc(static_cast<double>(bytes.size()));
  if (open_bytes_ > config_.segment_bytes) rotate();
  return lsn;
}

void Wal::rotate() {
  current_segment_ += 1;
  backend_->open_segment(current_segment_);
  meta_[current_segment_] = SegmentMeta{};
  open_bytes_ = 0;
}

void Wal::truncate_below(std::uint64_t lsn) {
  for (auto it = meta_.begin(); it != meta_.end();) {
    if (it->first == current_segment_) {
      ++it;
      continue;
    }
    const bool replayed = !it->second.any || it->second.max_lsn < lsn;
    if (replayed) {
      backend_->remove_segment(it->first);
      it = meta_.erase(it);
    } else {
      ++it;
    }
  }
}

WalScan Wal::scan(const WalBackend& backend) {
  WalScan result;
  bool stopped = false;
  std::size_t dropped = 0;
  for (const std::uint64_t id : backend.segments()) {
    std::vector<std::uint8_t> buffer;
    const std::span<const std::uint8_t> bytes =
        backend.view_segment(id, buffer);
    if (stopped) {
      // Prefix consistency: once a bad frame is found, everything after it
      // — including whole later segments — is untrusted.
      dropped += bytes.size();
      continue;
    }
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      if (bytes.size() - pos < kFrameHeader) {
        stopped = true;
        break;
      }
      ByteReader header(bytes.data() + pos, kFrameHeader);
      const std::uint32_t len = header.u32();
      const std::uint32_t crc = header.u32();
      if (len < 9 || bytes.size() - pos - kFrameHeader < len) {
        stopped = true;
        break;
      }
      if (crc32(bytes.data() + pos + kFrameHeader, len) != crc) {
        stopped = true;
        break;
      }
      ByteReader body(bytes.data() + pos + kFrameHeader, len);
      WalRecord record;
      record.lsn = body.u64();
      record.segment = id;
      record.type = body.u8();
      record.payload = bytes.subspan(pos + kFrameHeader + 9, len - 9);
      result.records.push_back(record);
      pos += kFrameHeader + len;
    }
    if (stopped) dropped += bytes.size() - pos;
    // Moving a vector keeps its storage, so the views taken above stay valid.
    if (!buffer.empty()) result.buffers.push_back(std::move(buffer));
  }
  result.dropped_bytes = dropped;
  result.torn = stopped && dropped > 0;
  return result;
}

}  // namespace hpcqc::store
