#include "trace/divergence.hpp"

#include <cstdio>
#include <map>
#include <tuple>

namespace mpiv::trace {

namespace {

// Logical identity of a send/recv-match record within one rank lane.
// kSend: (dst, ssn) — ssn is per-destination. kRecvMatch: rsn alone (the
// reception sequence number is the per-rank total order the paper replays).
using Key = std::tuple<int, std::int32_t, std::uint64_t>;

Key key_of(const Record& r) {
  if (r.kind == Kind::kSend) return {0, r.peer, r.seq};
  return {1, -1, r.seq};
}

std::string describe(const Record& r) {
  if (r.kind == Kind::kSend) {
    return "send ssn=" + std::to_string(r.seq) + " to r" +
           std::to_string(r.peer);
  }
  return "recv-match rsn=" + std::to_string(r.seq) + " from r" +
         std::to_string(r.peer) + " ssn=" + std::to_string(r.aux);
}

}  // namespace

std::vector<Record> logical_sequence(const std::vector<Record>& lane) {
  std::vector<Record> out;
  std::vector<bool> dead;
  std::map<Key, std::size_t> last;
  for (const Record& r : lane) {
    if (r.kind != Kind::kSend && r.kind != Kind::kRecvMatch) continue;
    const Key k = key_of(r);
    auto [it, fresh] = last.try_emplace(k, out.size());
    if (!fresh) {
      // Re-execution after a crash: the replayed occurrence supersedes the
      // rolled-back one.
      dead[it->second] = true;
      it->second = out.size();
    }
    out.push_back(r);
    dead.push_back(false);
  }
  std::vector<Record> live;
  live.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!dead[i]) live.push_back(out[i]);
  }
  return live;
}

DivergenceReport compare_captures(const Capture& faulty,
                                  const Capture& reference, int nranks) {
  DivergenceReport rep;

  for_each_record(faulty, [&rep](std::size_t, const Record& r) {
    if (rep.victim < 0 && r.kind == Kind::kFault && r.code == kRankCrash) {
      rep.victim = r.peer;
      rep.victim_fault_at = r.t;
    }
  });

  for (int r = 0; r < nranks; ++r) {
    LaneDivergence ld;
    // snprintf, not "r" + to_string: GCC 12 -Wrestrict false positive.
    char lane[16];
    std::snprintf(lane, sizeof(lane), "r%d", r);
    ld.lane = lane;
    const auto li = static_cast<std::size_t>(r);
    if (li >= faulty.lanes().size() || li >= reference.lanes().size()) {
      rep.lanes.push_back(std::move(ld));
      continue;
    }
    ld.compared = true;
    const std::vector<Record> fa = logical_sequence(faulty.lane_records(li));
    const std::vector<Record> re = logical_sequence(reference.lane_records(li));
    ld.truncated =
        faulty.lanes()[li].dropped > 0 || reference.lanes()[li].dropped > 0;

    std::size_t i = 0, j = 0;
    if (ld.truncated) {
      // The rings lost their prefixes; align at the first logical event the
      // faulty side retains that the reference also retains, then the
      // suffixes must agree.
      std::map<Key, std::size_t> ref_at;
      for (std::size_t k = 0; k < re.size(); ++k) {
        ref_at.try_emplace(key_of(re[k]), k);
      }
      bool aligned = false;
      for (; i < fa.size(); ++i) {
        auto it = ref_at.find(key_of(fa[i]));
        if (it != ref_at.end()) {
          j = it->second;
          aligned = true;
          break;
        }
      }
      if (!aligned) {
        ld.diverged = true;
        ld.what = "no overlapping records after ring truncation";
        rep.lanes.push_back(std::move(ld));
        rep.equivalent = false;
        continue;
      }
    }

    for (; i < fa.size() && j < re.size(); ++i, ++j) {
      if (!fa[i].same_content(re[j])) {
        ld.diverged = true;
        ld.has_faulty = true;
        ld.has_reference = true;
        ld.faulty = fa[i];
        ld.reference = re[j];
        ld.what = "faulty " + describe(fa[i]) + " vs reference " +
                  describe(re[j]);
        break;
      }
    }
    if (!ld.diverged && (i < fa.size() || j < re.size())) {
      ld.diverged = true;
      if (i < fa.size()) {
        ld.has_faulty = true;
        ld.faulty = fa[i];
        ld.what = "faulty run has extra " + describe(fa[i]);
      } else {
        ld.has_reference = true;
        ld.reference = re[j];
        ld.what = "faulty run is missing " + describe(re[j]);
      }
    }
    if (ld.diverged) rep.equivalent = false;
    rep.lanes.push_back(std::move(ld));
  }
  return rep;
}

}  // namespace mpiv::trace
