#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "util/check.hpp"

namespace mpiv::trace {

namespace {

struct KindName {
  Kind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {Kind::kSend, "send"},
    {Kind::kRecvMatch, "recv-match"},
    {Kind::kDeterminant, "determinant"},
    {Kind::kPiggyback, "piggyback"},
    {Kind::kCkpt, "ckpt"},
    {Kind::kElAck, "el-ack"},
    {Kind::kFault, "fault"},
    {Kind::kRecovery, "recovery"},
};

constexpr const char* kFormatHeader = "# mpiv-trace v1";

/// "r<k>" / "el<s>" built via snprintf: `"r" + std::to_string(r)` trips a
/// GCC 12 -Wrestrict false positive under -Werror (same issue the vendored
/// gtest has).
std::string lane_name(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%d", prefix, i);
  return buf;
}

}  // namespace

const char* kind_name(Kind k) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

bool parse_kind(const std::string& name, Kind* out) {
  for (const KindName& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

void Lane::push(const Record& r) {
  if (ring_.size() < capacity_) {
    if (ring_.size() == ring_.capacity()) {
      // Double as push_back would, but never past the capacity.
      ring_.reserve(
          std::min(capacity_, std::max<std::size_t>(1, 2 * ring_.size())));
    }
    ring_.push_back(r);
  } else {
    ring_[static_cast<std::size_t>(total_ % capacity_)] = r;
  }
  ++total_;
}

TraceSink::TraceSink(int nranks, int el_shards, std::uint32_t capacity)
    : nranks_(nranks), el_shards_(el_shards) {
  const std::size_t cap = capacity == 0 ? 1 : capacity;
  lanes_.reserve(static_cast<std::size_t>(nranks + el_shards + 1));
  for (int r = 0; r < nranks; ++r) {
    lanes_.emplace_back(lane_name("r", r), cap);
  }
  for (int s = 0; s < el_shards; ++s) {
    lanes_.emplace_back(lane_name("el", s), cap);
  }
  lanes_.emplace_back("engine", cap);
}

namespace {

// Capture encoding (see Capture): header bits 0 and 1 flag a nonzero code
// and digest, bits 2..7 hold the kind, or kKindEscape followed by the kind
// byte for kinds past it.
constexpr std::uint8_t kHasCode = 1;
constexpr std::uint8_t kHasDigest = 2;
constexpr std::uint8_t kKindEscape = 63;
/// header + escaped kind + code + t and seq varints + peer varint + aux
/// varint + digest.
constexpr std::size_t kMaxRecordBytes = 1 + 1 + 1 + 10 + 10 + 5 + 10 + 8;

std::uint64_t zigzag(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (b < 0x80) return v;
  }
}

}  // namespace

Capture::Capture(const std::vector<Lane>& lanes) {
  lanes_.reserve(lanes.size());
  for (const Lane& l : lanes) {
    lanes_.push_back(LaneInfo{l.name(), l.total(), l.dropped()});
    records_ += l.retained();
  }
  pack([&lanes](std::size_t li, auto&& put) { lanes[li].for_each(put); });
}

Capture::Capture(std::vector<LaneInfo> lanes,
                 const std::vector<std::vector<Record>>& records)
    : lanes_(std::move(lanes)) {
  MPIV_CHECK(records.size() == lanes_.size(),
             "capture of %zu lanes given %zu record lists", lanes_.size(),
             records.size());
  for (const std::vector<Record>& lane : records) records_ += lane.size();
  pack([&records](std::size_t li, auto&& put) {
    for (const Record& r : records[li]) put(r);
  });
}

template <class VisitLane>
void Capture::pack(VisitLane&& visit_lane) {
  // Encode into an upper-bound scratch buffer, then keep an exact copy.
  const auto scratch = std::make_unique_for_overwrite<std::uint8_t[]>(
      static_cast<std::size_t>(records_) * kMaxRecordBytes);
  std::uint8_t* p = scratch.get();
  lane_ends_.reserve(lanes_.size());
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    std::uint64_t prev_t = 0;
    std::uint64_t kind_seq[kSeqSlots] = {};
    visit_lane(li, [&](const Record& r) {
      const auto kind = static_cast<std::uint8_t>(r.kind);
      std::uint8_t* const head = p++;
      *head = static_cast<std::uint8_t>(std::min(kind, kKindEscape) << 2);
      if (kind >= kKindEscape) *p++ = kind;
      if (r.code != 0) {
        *head |= kHasCode;
        *p++ = r.code;
      }
      const auto t = static_cast<std::uint64_t>(r.t);
      p = put_varint(p, zigzag(t - prev_t));
      prev_t = t;
      std::uint64_t& seq_base = kind_seq[kind % kSeqSlots];
      p = put_varint(p, zigzag(r.seq - seq_base));
      seq_base = r.seq;
      const auto peer = static_cast<std::uint32_t>(r.peer);
      p = put_varint(p, (peer << 1) ^ (0u - (peer >> 31)));
      p = put_varint(p, r.aux);
      if (r.digest != 0) {
        *head |= kHasDigest;
        std::memcpy(p, &r.digest, sizeof(r.digest));
        p += sizeof(r.digest);
      }
    });
    lane_ends_.push_back(static_cast<std::size_t>(p - scratch.get()));
  }
  bytes_.assign(scratch.get(), p);
}

Capture::Cursor Capture::cursor(std::size_t lane) const {
  MPIV_CHECK(lane < lanes_.size(), "capture has no lane %zu", lane);
  const std::size_t begin = lane == 0 ? 0 : lane_ends_[lane - 1];
  return Cursor(bytes_.data() + begin, bytes_.data() + lane_ends_[lane]);
}

std::vector<Record> Capture::lane_records(std::size_t lane) const {
  std::vector<Record> out;
  for (Cursor cur = cursor(lane); !cur.done(); cur.advance()) {
    out.push_back(cur.record());
  }
  return out;
}

Capture::Cursor::Cursor(const std::uint8_t* begin, const std::uint8_t* end)
    : p_(begin), end_(end) {
  advance();
}

void Capture::Cursor::advance() {
  if (p_ == end_) {
    done_ = true;
    return;
  }
  const std::uint8_t head = *p_++;
  std::uint8_t kind = static_cast<std::uint8_t>(head >> 2);
  if (kind == kKindEscape) kind = *p_++;
  rec_.kind = static_cast<Kind>(kind);
  rec_.code = (head & kHasCode) != 0 ? *p_++ : 0;
  rec_.t = static_cast<sim::Time>(static_cast<std::uint64_t>(rec_.t) +
                                  unzigzag(get_varint(p_)));
  std::uint64_t& seq_base = kind_seq_[kind % kSeqSlots];
  seq_base += unzigzag(get_varint(p_));
  rec_.seq = seq_base;
  const auto peer = static_cast<std::uint32_t>(get_varint(p_));
  rec_.peer = static_cast<std::int32_t>((peer >> 1) ^ (0u - (peer & 1)));
  rec_.aux = get_varint(p_);
  rec_.digest = 0;
  if ((head & kHasDigest) != 0) {
    std::memcpy(&rec_.digest, p_, sizeof(rec_.digest));
    p_ += sizeof(rec_.digest);
  }
}

std::string TraceSink::dump() const { return render(capture()); }

std::string render(const Capture& capture) {
  std::string out = kFormatHeader;
  out += '\n';
  out.reserve(64 * (capture.lanes().size() + 1) + 48 * capture.records());
  for (const LaneInfo& l : capture.lanes()) {
    out += "# lane ";
    out += l.name;
    out += " total=";
    out += std::to_string(l.total);
    out += " dropped=";
    out += std::to_string(l.dropped);
    out += '\n';
  }
  char line[160];
  for_each_record(capture, [&](std::size_t lane, const Record& r) {
    std::snprintf(line, sizeof(line),
                  "%" PRId64 " %s %s %u %d %" PRIu64 " %" PRIu64 " %" PRIx64
                  "\n",
                  static_cast<std::int64_t>(r.t),
                  capture.lanes()[lane].name.c_str(), kind_name(r.kind),
                  static_cast<unsigned>(r.code), r.peer, r.seq, r.aux,
                  r.digest);
    out += line;
  });
  return out;
}

const std::string& Dump::text() const {
  static const std::string kNone;
  if (empty()) return kNone;
  if (text_ == nullptr) {
    text_ = std::make_shared<const std::string>(render(*capture_));
  }
  return *text_;
}

namespace {

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  for (;;) {
    i = line.find_first_not_of(" \t\r", i);
    if (i == std::string_view::npos) return fields;
    const std::size_t j =
        std::min(line.find_first_of(" \t\r", i), line.size());
    fields.push_back(line.substr(i, j - i));
    i = j;
  }
}

/// Reads all of `field` as a T; false unless it is a number in T's range.
template <class T>
bool parse_number(std::string_view field, T* out, int base = 10) {
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out, base);
  return ec == std::errc() && ptr == end;
}

/// Reads "<key>=<number>".
bool parse_keyed(std::string_view field, std::string_view key,
                 std::uint64_t* out) {
  if (field.size() <= key.size() || field.substr(0, key.size()) != key ||
      field[key.size()] != '=') {
    return false;
  }
  return parse_number(field.substr(key.size() + 1), out);
}

}  // namespace

Capture parse_stream(const std::string& text) {
  std::vector<LaneInfo> lanes;
  std::vector<std::vector<Record>> records;  // per lane, in text order
  std::vector<int> header_lines;             // each lane header's line
  std::unordered_map<std::string, std::size_t> lane_index;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto bad = [&lineno](const std::string& why) {
    throw std::runtime_error("trace stream line " + std::to_string(lineno) +
                             ": " + why);
  };
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kFormatHeader) {
        bad(std::string("expected '") + kFormatHeader + "' first");
      }
      saw_header = true;
      continue;
    }
    if (line[0] == '#') {
      if (line.rfind("# mpiv-trace", 0) == 0) bad("repeated format header");
      if (line.rfind("# lane ", 0) == 0) {
        const std::vector<std::string_view> f = split_fields(line);
        LaneInfo li;
        if (f.size() != 5 || !parse_keyed(f[3], "total", &li.total) ||
            !parse_keyed(f[4], "dropped", &li.dropped)) {
          bad("malformed lane header");
        }
        if (li.dropped > li.total) bad("lane drops more records than it saw");
        li.name = f[2];
        if (!lane_index.try_emplace(li.name, lanes.size()).second) {
          bad("repeated lane '" + li.name + "'");
        }
        lanes.push_back(std::move(li));
        records.emplace_back();
        header_lines.push_back(lineno);
      }
      continue;  // other comments ignored
    }
    const std::vector<std::string_view> f = split_fields(line);
    if (f.size() != 8) bad("malformed record");
    const auto lane = lane_index.find(std::string(f[1]));
    if (lane == lane_index.end()) {
      bad("record on lane '" + std::string(f[1]) + "' with no lane header");
    }
    Record r;
    if (!parse_kind(std::string(f[2]), &r.kind)) {
      bad("unknown kind '" + std::string(f[2]) + "'");
    }
    if (!parse_number(f[0], &r.t)) bad("bad timestamp");
    if (!parse_number(f[3], &r.code)) bad("bad code");
    if (!parse_number(f[4], &r.peer)) bad("bad peer");
    if (!parse_number(f[5], &r.seq)) bad("bad seq");
    if (!parse_number(f[6], &r.aux)) bad("bad aux");
    if (!parse_number(f[7], &r.digest, 16)) bad("bad digest");
    records[lane->second].push_back(r);
  }
  if (!saw_header) {
    throw std::runtime_error(std::string("trace stream: missing '") +
                             kFormatHeader + "' header");
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const std::uint64_t retained = lanes[i].total - lanes[i].dropped;
    if (records[i].size() != retained) {
      lineno = header_lines[i];
      bad("lane '" + lanes[i].name + "' holds " +
          std::to_string(records[i].size()) + " records, its header says " +
          std::to_string(retained));
    }
  }
  return Capture(std::move(lanes), records);
}

std::string format_record(const std::string& lane, const Record& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%s %s t=%.6fs code=%u peer=%d seq=%" PRIu64 " aux=%" PRIu64
                " digest=0x%" PRIx64,
                lane.c_str(), kind_name(r.kind), sim::to_sec(r.t),
                static_cast<unsigned>(r.code), r.peer, r.seq, r.aux, r.digest);
  return buf;
}

}  // namespace mpiv::trace
