// Tests for the trace subsystem: ring-lane semantics, merge-sorted dumps,
// stream parse round-trips, the logical-sequence projection, divergence
// localization on deliberately corrupted streams — and the replay-
// equivalence harness, which re-runs every bundled fault scenario with
// lanes on and asserts the post-recovery trace is record-identical to the
// compare_reference twin (the paper's replay guarantee at record
// granularity, not just final checksums).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "trace/divergence.hpp"
#include "trace/trace.hpp"

namespace mpiv {
namespace {

using trace::Kind;
using trace::Record;

Record rec(sim::Time t, Kind kind, std::int32_t peer, std::uint64_t seq,
           std::uint64_t aux = 0, std::uint64_t digest = 0,
           std::uint8_t code = 0) {
  return Record{t, kind, code, peer, seq, aux, digest};
}

// ---------------------------------------------------------------------------
// Lane ring semantics
// ---------------------------------------------------------------------------

TEST(Lane, RetainsEverythingBelowCapacity) {
  trace::Lane lane("r0", 8);
  for (int i = 0; i < 5; ++i) {
    lane.push(rec(i, Kind::kSend, 1, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(lane.total(), 5u);
  EXPECT_EQ(lane.retained(), 5u);
  EXPECT_EQ(lane.dropped(), 0u);
  std::vector<std::uint64_t> seqs;
  lane.for_each([&seqs](const Record& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Lane, WrapOverwritesOldestAndCountsDrops) {
  trace::Lane lane("r0", 4);
  for (int i = 0; i < 11; ++i) {
    lane.push(rec(i * 10, Kind::kRecvMatch, 0, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(lane.total(), 11u);
  EXPECT_EQ(lane.retained(), 4u);
  EXPECT_EQ(lane.dropped(), 7u);
  // Oldest-to-newest visit order, and only the newest four survive.
  std::vector<std::uint64_t> seqs;
  lane.for_each([&seqs](const Record& r) { seqs.push_back(r.seq); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 9, 10}));
}

TEST(Record, SameContentIgnoresOnlyTheTimestamp) {
  const Record a = rec(100, Kind::kRecvMatch, 3, 7, 9, 0xabc);
  Record b = a;
  b.t = 9999;
  EXPECT_TRUE(a.same_content(b));
  b = a;
  b.digest = 0xdef;
  EXPECT_FALSE(a.same_content(b));
  b = a;
  b.code = 1;
  EXPECT_FALSE(a.same_content(b));
}

// ---------------------------------------------------------------------------
// Dump merge order + parse round-trip
// ---------------------------------------------------------------------------

TEST(TraceSink, DumpMergesLanesByTimestampWithLaneTieBreak) {
  trace::TraceSink sink(/*nranks=*/2, /*el_shards=*/1, /*capacity=*/16);
  // Interleave timestamps across lanes; equal stamps must come out in lane
  // order (r0, r1, el0, engine).
  sink.rank_lane(1)->push(rec(10, Kind::kSend, 0, 1));
  sink.rank_lane(0)->push(rec(10, Kind::kRecvMatch, 1, 1, 1));
  sink.el_lane(0)->push(rec(5, Kind::kElAck, 0, 3, 0, 0, 1));
  sink.engine_lane()->push(
      rec(20, Kind::kFault, 2, 0, 0, 0, trace::kRankCrash));
  sink.rank_lane(0)->push(rec(30, Kind::kSend, 1, 2));

  const trace::Stream s = trace::parse_stream(sink.dump());
  ASSERT_EQ(s.records.size(), 5u);
  EXPECT_EQ(s.records[0].lane, "el0");     // t=5
  EXPECT_EQ(s.records[1].lane, "r0");      // t=10, lane index 0 wins the tie
  EXPECT_EQ(s.records[2].lane, "r1");      // t=10
  EXPECT_EQ(s.records[3].lane, "engine");  // t=20
  EXPECT_EQ(s.records[4].lane, "r0");      // t=30
  for (std::size_t i = 1; i < s.records.size(); ++i) {
    EXPECT_LE(s.records[i - 1].rec.t, s.records[i].rec.t);
  }
}

TEST(TraceSink, ParseRoundTripPreservesEveryField) {
  trace::TraceSink sink(1, 0, 8);
  const Record orig =
      rec(123456789, Kind::kDeterminant, -1, 42, 7, 0xdeadbeefcafe, 1);
  sink.rank_lane(0)->push(orig);
  sink.rank_lane(0)->push(rec(123456790, Kind::kRecovery, 3, 9, 0, 0,
                              trace::kPhaseElFailover));
  const trace::Stream s = trace::parse_stream(sink.dump());
  ASSERT_EQ(s.records.size(), 2u);
  EXPECT_TRUE(s.records[0].rec.same_content(orig));
  EXPECT_EQ(s.records[0].rec.t, orig.t);
  const trace::LaneInfo* li = s.lane_info("r0");
  ASSERT_NE(li, nullptr);
  EXPECT_EQ(li->total, 2u);
  EXPECT_EQ(li->dropped, 0u);
  // Lane headers survive even for empty lanes.
  EXPECT_NE(s.lane_info("engine"), nullptr);
}

TEST(TraceSink, ParserRejectsGarbage) {
  EXPECT_THROW(trace::parse_stream("10 r0 send 0 1 2 3 4\n"),
               std::runtime_error);  // no header
  EXPECT_THROW(trace::parse_stream("# mpiv-trace v1\n10 r0 blip 0 1 2 3 4\n"),
               std::runtime_error);  // unknown kind
  EXPECT_THROW(trace::parse_stream("# mpiv-trace v1\n10 r0 send 0\n"),
               std::runtime_error);  // short record
  EXPECT_NO_THROW(trace::parse_stream("# mpiv-trace v1\n"));
}

// ---------------------------------------------------------------------------
// Logical-sequence projection (the divergence comparator's core)
// ---------------------------------------------------------------------------

TEST(LogicalSequence, KeepsOnlySendsAndRecvMatches) {
  const std::vector<Record> lane = {
      rec(1, Kind::kSend, 1, 1),
      rec(2, Kind::kDeterminant, 0, 1, 0),
      rec(3, Kind::kRecvMatch, 0, 1, 1),
      rec(4, Kind::kCkpt, 0, 1),
      rec(5, Kind::kFault, 0, 0, 0, 0, trace::kRankCrash),
  };
  const std::vector<Record> seq = trace::logical_sequence(lane);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].kind, Kind::kSend);
  EXPECT_EQ(seq[1].kind, Kind::kRecvMatch);
}

TEST(LogicalSequence, ReplayedOccurrenceSupersedesRolledBackOne) {
  // Pre-crash the rank matched rsn 5 from peer 0 with ssn 9; after recovery
  // it re-matches rsn 5 (same logical event, later timestamp). The replayed
  // copy must win and order must be preserved for the survivors.
  const std::vector<Record> lane = {
      rec(10, Kind::kRecvMatch, 0, 4, 8),
      rec(20, Kind::kRecvMatch, 0, 5, 9),
      rec(30, Kind::kSend, 1, 3),
      // crash + replay:
      rec(100, Kind::kRecvMatch, 0, 5, 9),
      rec(110, Kind::kRecvMatch, 0, 6, 10),
  };
  const std::vector<Record> seq = trace::logical_sequence(lane);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0].seq, 4u);
  EXPECT_EQ(seq[1].kind, Kind::kSend);
  EXPECT_EQ(seq[2].seq, 5u);
  EXPECT_EQ(seq[2].t, 100);  // the replayed copy, not the rolled-back one
  EXPECT_EQ(seq[3].seq, 6u);
}

// ---------------------------------------------------------------------------
// Divergence localization on corrupted streams
// ---------------------------------------------------------------------------

std::string two_rank_stream(bool corrupt_ssn, bool drop_tail,
                            bool with_fault) {
  trace::TraceSink sink(2, 0, 64);
  if (with_fault) {
    sink.rank_lane(1)->push(
        rec(15, Kind::kFault, 1, 2, 0, 0, trace::kRankCrash));
  }
  sink.rank_lane(0)->push(rec(10, Kind::kSend, 1, 1, 0, 0x11));
  sink.rank_lane(1)->push(
      rec(20, Kind::kRecvMatch, 0, 1, corrupt_ssn ? 99u : 1u, 0x11));
  sink.rank_lane(1)->push(rec(30, Kind::kSend, 0, 1, 0, 0x22));
  if (!drop_tail) {
    sink.rank_lane(0)->push(rec(40, Kind::kRecvMatch, 1, 1, 1, 0x22));
  }
  return sink.dump();
}

TEST(Divergence, IdenticalStreamsAreEquivalent) {
  const trace::Stream a = trace::parse_stream(two_rank_stream(false, false,
                                                              true));
  const trace::Stream b = trace::parse_stream(two_rank_stream(false, false,
                                                              false));
  const trace::DivergenceReport rep = trace::compare_streams(a, b, 2);
  EXPECT_TRUE(rep.equivalent);
  EXPECT_EQ(rep.victim, 1);  // the kFault record names the victim
  EXPECT_EQ(rep.victim_fault_at, 15);
  EXPECT_EQ(rep.first_divergent(), nullptr);
}

TEST(Divergence, CorruptedRecordIsLocalizedToLaneAndRecord) {
  const trace::Stream faulty =
      trace::parse_stream(two_rank_stream(/*corrupt_ssn=*/true, false, true));
  const trace::Stream reference =
      trace::parse_stream(two_rank_stream(false, false, false));
  const trace::DivergenceReport rep =
      trace::compare_streams(faulty, reference, 2);
  EXPECT_FALSE(rep.equivalent);
  const trace::LaneDivergence* d = rep.first_divergent();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->lane, "r1");  // the corrupted reception lives on rank 1
  ASSERT_TRUE(d->has_faulty);
  ASSERT_TRUE(d->has_reference);
  EXPECT_EQ(d->faulty.kind, Kind::kRecvMatch);
  EXPECT_EQ(d->faulty.aux, 99u);      // what the faulty run matched
  EXPECT_EQ(d->reference.aux, 1u);    // what it should have matched
  EXPECT_NE(d->what.find("recv-match"), std::string::npos) << d->what;
  // Rank 0's lane is unaffected and still compares clean.
  ASSERT_EQ(rep.lanes.size(), 2u);
  EXPECT_FALSE(rep.lanes[0].diverged);
}

TEST(Divergence, MissingTailRecordIsReported) {
  const trace::Stream faulty =
      trace::parse_stream(two_rank_stream(false, /*drop_tail=*/true, true));
  const trace::Stream reference =
      trace::parse_stream(two_rank_stream(false, false, false));
  const trace::DivergenceReport rep =
      trace::compare_streams(faulty, reference, 2);
  EXPECT_FALSE(rep.equivalent);
  const trace::LaneDivergence* d = rep.first_divergent();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->lane, "r0");
  EXPECT_TRUE(d->has_reference);
  EXPECT_FALSE(d->has_faulty);
  EXPECT_NE(d->what.find("missing"), std::string::npos) << d->what;
}

TEST(Divergence, RingTruncationFallsBackToSuffixAlignment) {
  // The faulty ring lost its prefix (capacity 4, six sends): comparison
  // must align at the first surviving logical event and pass on a clean
  // suffix instead of reporting the lost prefix as a divergence.
  trace::TraceSink small(1, 0, 4);
  trace::TraceSink big(1, 0, 64);
  for (int i = 1; i <= 6; ++i) {
    const Record r = rec(i * 10, Kind::kSend, 1, static_cast<std::uint64_t>(i),
                         0, 0x40 + static_cast<std::uint64_t>(i));
    small.rank_lane(0)->push(r);
    big.rank_lane(0)->push(r);
  }
  const trace::DivergenceReport rep = trace::compare_streams(
      trace::parse_stream(small.dump()), trace::parse_stream(big.dump()), 1);
  EXPECT_TRUE(rep.equivalent);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_TRUE(rep.lanes[0].compared);
  EXPECT_TRUE(rep.lanes[0].truncated);

  // A corrupted record inside the surviving suffix is still caught.
  small.rank_lane(0)->push(rec(70, Kind::kSend, 1, 7, 0, 0xbad));
  big.rank_lane(0)->push(rec(70, Kind::kSend, 1, 7, 0, 0x47));
  const trace::DivergenceReport rep2 = trace::compare_streams(
      trace::parse_stream(small.dump()), trace::parse_stream(big.dump()), 1);
  EXPECT_FALSE(rep2.equivalent);
  EXPECT_TRUE(rep2.lanes[0].truncated);
  EXPECT_EQ(rep2.lanes[0].faulty.digest, 0xbadu);
}

TEST(Lane, GrowsOnDemandThenWrapsAtCapacity) {
  // Around each capacity boundary, retained/dropped and the dumped stream
  // must hold exactly the newest records, as a preallocated ring would.
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{8}, std::size_t{200}}) {
    for (const std::size_t n : {cap - 1, cap, cap + 1, 2 * cap + 3}) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + ", " +
                   std::to_string(n) + " records");
      trace::TraceSink sink(1, 0, static_cast<std::uint32_t>(cap));
      trace::Lane& lane = *sink.rank_lane(0);
      for (std::size_t i = 0; i < n; ++i) {
        lane.push(rec(static_cast<sim::Time>(i) * 10, Kind::kSend, 1, i));
      }
      const std::size_t kept = std::min(n, cap);
      EXPECT_EQ(lane.total(), n);
      EXPECT_EQ(lane.retained(), kept);
      EXPECT_EQ(lane.dropped(), n - kept);
      std::vector<std::uint64_t> suffix;
      for (std::size_t i = n - kept; i < n; ++i) suffix.push_back(i);
      std::vector<std::uint64_t> visited;
      lane.for_each([&visited](const Record& r) { visited.push_back(r.seq); });
      EXPECT_EQ(visited, suffix);

      const trace::Stream stream = trace::parse_stream(sink.dump());
      const trace::LaneInfo* info = stream.lane_info("r0");
      ASSERT_NE(info, nullptr);
      EXPECT_EQ(info->total, n);
      EXPECT_EQ(info->dropped, n - kept);
      std::vector<std::uint64_t> parsed;
      for (const Record& r : stream.lane_records("r0")) parsed.push_back(r.seq);
      EXPECT_EQ(parsed, suffix);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: a traced faulty run against its reference twin
// ---------------------------------------------------------------------------

scenario::RunResult traced_midrun_run(std::uint32_t capacity = 8192) {
  scenario::ScenarioBuilder b("traced");
  b.set("variant", "vcausal:el")
      .set("ckpt_policy", "round-robin")
      .set("ckpt_interval", "20ms")
      .set("workload.laps", "30")
      .set("workload.bytes", "1024")
      .set("midrun_fault_rank", "2")
      .set("trace.enabled", "true")
      .set("trace.capacity", std::to_string(capacity));
  return scenario::run_spec(b.build());
}

TEST(TraceRun, FaultyAndReferenceStreamsAreCapturedAndEquivalent) {
  const scenario::RunResult r = traced_midrun_run();
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.recovered_exact);
  ASSERT_FALSE(r.trace_dump.empty());
  ASSERT_NE(r.reference_trace_dump, nullptr);
  const trace::Stream faulty = trace::parse_stream(r.trace_dump);
  const trace::Stream reference = trace::parse_stream(*r.reference_trace_dump);
  const trace::DivergenceReport rep =
      trace::compare_streams(faulty, reference, 4);
  EXPECT_EQ(rep.victim, 2);
  EXPECT_GT(rep.victim_fault_at, 0);
  EXPECT_TRUE(rep.equivalent) << rep.first_divergent()->what;
  // The faulty stream carries the recovery phase ladder for the victim.
  bool saw_restart = false, saw_replay_done = false;
  for (const Record& rec : faulty.lane_records("r2")) {
    if (rec.kind == Kind::kRecovery) {
      saw_restart |= rec.code == trace::kPhaseRestart;
      saw_replay_done |= rec.code == trace::kPhaseReplayDone;
    }
  }
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_replay_done);
}

TEST(TraceRun, TinyRingStillComparesViaSuffixAlignment) {
  const scenario::RunResult r = traced_midrun_run(/*capacity=*/64);
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.trace_dump.empty());
  const trace::Stream faulty = trace::parse_stream(r.trace_dump);
  // With 64-record lanes this workload must overflow at least one rank lane.
  bool any_dropped = false;
  for (const trace::LaneInfo& li : faulty.lanes) any_dropped |= li.dropped > 0;
  EXPECT_TRUE(any_dropped);
  const trace::DivergenceReport rep = trace::compare_streams(
      faulty, trace::parse_stream(*r.reference_trace_dump), 4);
  EXPECT_TRUE(rep.equivalent) << rep.first_divergent()->what;
}

TEST(TraceRun, DisabledTracingProducesNoStream) {
  scenario::ScenarioBuilder b("untraced");
  b.set("variant", "vcausal:el")
      .set("workload.laps", "5")
      .set("workload.bytes", "256");
  const scenario::RunResult r = scenario::run_spec(b.build());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.trace_dump.empty());
  EXPECT_EQ(r.reference_trace_dump, nullptr);
}

// ---------------------------------------------------------------------------
// Replay-equivalence harness: every bundled fault scenario
// ---------------------------------------------------------------------------

// Re-runs each scenarios/*.scn that injects faults (quick grid) with trace
// lanes and the reference twin forced on. Every point the outcome
// classifier calls recovered_exact — the checksums matched — must also be
// record-identical at trace level: the recovered ranks' logical
// send/recv-match sequences equal the fault-free reference's. This is the
// paper's replay guarantee pinned at its strongest observable granularity.
TEST(ReplayEquivalence, EveryBundledFaultScenarioMatchesItsReference) {
  const std::filesystem::path dir =
      std::filesystem::path(MPIV_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int scenarios_with_faults = 0;
  int points_checked = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".scn") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    scenario::ScenarioSpec spec =
        scenario::parse_scenario_file(path.string());
    scenario::apply_quick(spec);
    if (spec.faults.midrun_rank < 0 && spec.campaign.empty()) continue;
    ++scenarios_with_faults;
    spec.trace.enabled = true;
    spec.compare_reference = true;
    SCOPED_TRACE(path.filename().string());
    for (const scenario::RunPoint& p : scenario::expand(spec)) {
      const scenario::RunResult r = scenario::run_point(p);
      if (r.outcome() != scenario::Outcome::kRecoveredExact) continue;
      ASSERT_FALSE(r.trace_dump.empty()) << p.label;
      ASSERT_NE(r.reference_trace_dump, nullptr) << p.label;
      const trace::DivergenceReport rep = trace::compare_streams(
          trace::parse_stream(r.trace_dump),
          trace::parse_stream(*r.reference_trace_dump), p.spec.nranks);
      const trace::LaneDivergence* d = rep.first_divergent();
      EXPECT_TRUE(rep.equivalent)
          << p.label << ": " << (d != nullptr ? d->what : "?") << " on "
          << (d != nullptr ? d->lane : "?");
      ++points_checked;
    }
  }
  // The bundle must actually exercise the harness (fault_campaign,
  // chaos_soak, fig10, ... all inject faults).
  EXPECT_GE(scenarios_with_faults, 4) << "fault scenarios went missing";
  EXPECT_GE(points_checked, 5) << "no recovered_exact points to verify";
}

}  // namespace
}  // namespace mpiv
