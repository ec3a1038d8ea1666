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

std::string TraceSink::dump() const {
  // Snapshot every lane, then k-way merge by (timestamp, lane index, lane
  // order). Lane index breaks timestamp ties deterministically; within a
  // lane the ring order is already the capture order.
  struct Cursor {
    std::size_t lane;
    std::vector<Record> recs;
    std::size_t next = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(lanes_.size());
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    Cursor c;
    c.lane = li;
    c.recs.reserve(lanes_[li].retained());
    lanes_[li].for_each([&c](const Record& r) { c.recs.push_back(r); });
    cursors.push_back(std::move(c));
  }

  std::ostringstream out;
  out << "# mpiv-trace v1\n";
  for (const Lane& l : lanes_) {
    out << "# lane " << l.name() << " total=" << l.total()
        << " dropped=" << l.dropped() << "\n";
  }

  char line[160];
  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.next >= c.recs.size()) continue;
      if (best == nullptr ||
          c.recs[c.next].t < best->recs[best->next].t) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    const Record& r = best->recs[best->next++];
    std::snprintf(line, sizeof(line),
                  "%" PRId64 " %s %s %u %d %" PRIu64 " %" PRIu64 " %" PRIx64
                  "\n",
                  static_cast<std::int64_t>(r.t),
                  lanes_[best->lane].name().c_str(), kind_name(r.kind),
                  static_cast<unsigned>(r.code), r.peer, r.seq, r.aux,
                  r.digest);
    out << line;
  }
  return out.str();
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
