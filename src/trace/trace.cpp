#include "trace/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

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

Capture TraceSink::capture() const {
  Capture c;
  std::size_t retained = 0;
  for (const Lane& l : lanes_) retained += l.retained();
  c.lanes.reserve(lanes_.size());
  c.lane_ends.reserve(lanes_.size());
  c.records.reserve(retained);
  for (const Lane& l : lanes_) {
    c.lanes.push_back(LaneInfo{l.name(), l.total(), l.dropped()});
    l.for_each([&c](const Record& r) { c.records.push_back(r); });
    c.lane_ends.push_back(c.records.size());
  }
  return c;
}

std::string TraceSink::dump() const { return render(capture()); }

namespace {

/// Visits a capture's records as fn(lane index, record), k-way merged by
/// (timestamp, lane index, lane order). Lane index breaks timestamp ties
/// deterministically; within a lane the capture order is the record order.
template <class Fn>
void for_each_merged(const Capture& c, Fn&& fn) {
  std::vector<std::size_t> next(c.lanes.size());
  for (std::size_t li = 1; li < next.size(); ++li) {
    next[li] = c.lane_ends[li - 1];
  }
  for (;;) {
    std::size_t best = next.size();
    for (std::size_t li = 0; li < next.size(); ++li) {
      if (next[li] == c.lane_ends[li]) continue;
      if (best == next.size() ||
          c.records[next[li]].t < c.records[next[best]].t) {
        best = li;
      }
    }
    if (best == next.size()) return;
    fn(best, c.records[next[best]++]);
  }
}

}  // namespace

std::string render(const Capture& capture) {
  std::string out = "# mpiv-trace v1\n";
  out.reserve(64 * (capture.lanes.size() + 1) + 48 * capture.records.size());
  for (const LaneInfo& l : capture.lanes) {
    out += "# lane ";
    out += l.name;
    out += " total=";
    out += std::to_string(l.total);
    out += " dropped=";
    out += std::to_string(l.dropped);
    out += '\n';
  }
  char line[160];
  for_each_merged(capture, [&](std::size_t lane, const Record& r) {
    std::snprintf(line, sizeof(line),
                  "%" PRId64 " %s %s %u %d %" PRIu64 " %" PRIu64 " %" PRIx64
                  "\n",
                  static_cast<std::int64_t>(r.t),
                  capture.lanes[lane].name.c_str(), kind_name(r.kind),
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

const LaneInfo* Stream::lane_info(const std::string& name) const {
  for (const LaneInfo& li : lanes) {
    if (li.name == name) return &li;
  }
  return nullptr;
}

std::vector<Record> Stream::lane_records(const std::string& name) const {
  std::vector<Record> out;
  for (const StreamRecord& sr : records) {
    if (sr.lane == name) out.push_back(sr.rec);
  }
  return out;
}

Stream parse_stream(const std::string& text) {
  Stream s;
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
    if (line[0] == '#') {
      if (line.rfind("# mpiv-trace", 0) == 0) {
        saw_header = true;
        continue;
      }
      if (line.rfind("# lane ", 0) == 0) {
        LaneInfo li;
        char name[64];
        unsigned long long total = 0, dropped = 0;
        if (std::sscanf(line.c_str(), "# lane %63s total=%llu dropped=%llu",
                        name, &total, &dropped) != 3) {
          bad("malformed lane header");
        }
        li.name = name;
        li.total = total;
        li.dropped = dropped;
        s.lanes.push_back(std::move(li));
      }
      continue;  // other comments ignored
    }
    if (!saw_header) bad("missing '# mpiv-trace' header");
    StreamRecord sr;
    char lane[64];
    char kind[32];
    long long t = 0;
    unsigned code = 0;
    int peer = 0;
    unsigned long long seq = 0, aux = 0, digest = 0;
    if (std::sscanf(line.c_str(), "%lld %63s %31s %u %d %llu %llu %llx", &t,
                    lane, kind, &code, &peer, &seq, &aux, &digest) != 8) {
      bad("malformed record");
    }
    Kind k{};
    if (!parse_kind(kind, &k)) bad(std::string("unknown kind '") + kind + "'");
    if (code > 0xFF) bad("code out of range");
    sr.lane = lane;
    sr.rec.t = static_cast<sim::Time>(t);
    sr.rec.kind = k;
    sr.rec.code = static_cast<std::uint8_t>(code);
    sr.rec.peer = peer;
    sr.rec.seq = seq;
    sr.rec.aux = aux;
    sr.rec.digest = digest;
    s.records.push_back(std::move(sr));
  }
  if (!saw_header) {
    throw std::runtime_error("trace stream: missing '# mpiv-trace' header");
  }
  return s;
}

Stream to_stream(const Capture& capture) {
  Stream s;
  s.lanes = capture.lanes;
  s.records.reserve(capture.records.size());
  for_each_merged(capture, [&](std::size_t lane, const Record& r) {
    s.records.push_back(StreamRecord{capture.lanes[lane].name, r});
  });
  return s;
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
