// Tests for the trace subsystem: ring-lane semantics, merge-sorted dumps,
// capture parse round-trips, the logical-sequence projection, divergence
// localization on deliberately corrupted captures — and the replay-
// equivalence harness, which re-runs every bundled fault scenario with
// lanes on and asserts the post-recovery trace is record-identical to the
// compare_reference twin (the paper's replay guarantee at record
// granularity, not just final checksums).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
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

  const trace::Capture c = trace::parse_stream(sink.dump());
  EXPECT_TRUE(c == sink.capture());
  std::vector<std::string> lanes;
  std::vector<sim::Time> stamps;
  trace::for_each_record(c, [&](std::size_t lane, const Record& r) {
    lanes.push_back(c.lanes()[lane].name);
    stamps.push_back(r.t);
  });
  // t=5; t=10 where lane index 0 wins the tie; t=10; t=20; t=30.
  EXPECT_EQ(lanes, (std::vector<std::string>{"el0", "r0", "r1", "engine",
                                             "r0"}));
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end()));
}

TEST(TraceSink, ParseRoundTripPreservesEveryField) {
  trace::TraceSink sink(1, 0, 8);
  const Record orig =
      rec(123456789, Kind::kDeterminant, -1, 42, 7, 0xdeadbeefcafe, 1);
  sink.rank_lane(0)->push(orig);
  sink.rank_lane(0)->push(rec(123456790, Kind::kRecovery, 3, 9, 0, 0,
                              trace::kPhaseElFailover));
  const trace::Capture c = trace::parse_stream(sink.dump());
  ASSERT_EQ(c.records(), 2u);
  const std::vector<Record> r0 = c.lane_records(0);
  EXPECT_TRUE(r0[0].same_content(orig));
  EXPECT_EQ(r0[0].t, orig.t);
  ASSERT_EQ(c.lanes().size(), 2u);
  EXPECT_EQ(c.lanes()[0], (trace::LaneInfo{"r0", 2, 0}));
  // Lane headers survive even for empty lanes.
  EXPECT_EQ(c.lanes()[1], (trace::LaneInfo{"engine", 0, 0}));
}

TEST(TraceSink, ParserRejectsGarbage) {
  const std::string head = "# mpiv-trace v1\n# lane r0 total=1 dropped=0\n";
  EXPECT_NO_THROW(trace::parse_stream("# mpiv-trace v1\n"));
  EXPECT_NO_THROW(trace::parse_stream(head + "10 r0 send 0 -1 2 3 4\n"));
  const std::string garbage[] = {
      "10 r0 send 0 1 2 3 4\n",                            // no header
      head + "10 r0 blip 0 1 2 3 4\n",                     // unknown kind
      head + "10 r0 send 0\n",                             // short record
      head + "10 r0 send 256 1 2 3 4\n",                   // code > 255
      head + "10 r0 send 0 99999999999 2 3 4\n",           // peer > int32
      head + "10 r0 send 0 1 -1 3 4\n",                    // seq < 0
      head + "10 r0 send 0 1 18446744073709551616 3 4\n",  // seq 2^64
      head + "10 r0 send 0 1 2 -3 4\n",                    // aux < 0
      head + "10 r0 send 0 1 2 3 1ffffffffffffffff\n",     // digest 2^64+
      head + "100000000000000000000 r0 send 0 1 2 3 4\n",  // t 10^20
      head + "10 r0 send 0 1 2 3 4 extra\n",               // trailing text
      head + "10 r0 send 0 1x 2 3 4\n",                    // ... in a field
      "# mpiv-trace v1\n10 r0 send 0 1 2 3 4\n",           // no lane header
      head + "10 r1 send 0 1 2 3 4\n",                     // unknown lane
      "# mpiv-trace v1\n# lane r0 total=-5 dropped=0\n",
      "# mpiv-trace v1\n# lane r0 total=2 dropped=3\n",
      "# mpiv-trace v1\n# lane r0 total=2\n",
      head + "# lane r0 total=1 dropped=0\n",  // repeated lane
      "# mpiv-trace v2\n",                     // unknown format version
      "# mpiv-trace-garbage\n",
      "# lane r0 total=0 dropped=0\n# mpiv-trace v1\n",  // header not first
      "# mpiv-trace v1\n# mpiv-trace v1\n",              // repeated header
      "# mpiv-trace v1\n# lane r0 total=5 dropped=0\n"
      "10 r0 send 0 1 2 3 4\n",  // fewer records than total - dropped
      head + "10 r0 send 0 1 2 3 4\n11 r0 send 0 1 3 3 4\n",  // more
  };
  for (const std::string& bad : garbage) {
    EXPECT_THROW(trace::parse_stream(bad), std::runtime_error) << bad;
  }
}

/// Four lanes (r0, r1, el0, engine) exercising every corner of the text
/// format: equal timestamps across lanes and within one, a wrapped lane
/// (capacity 3, five records), an empty lane, negative peers and
/// UINT64_MAX seq/digest.
trace::TraceSink golden_sink() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  trace::TraceSink sink(/*nranks=*/2, /*el_shards=*/1, /*capacity=*/3);
  sink.rank_lane(0)->push(rec(10, Kind::kSend, 1, 1, 7, 0xabc));
  sink.rank_lane(0)->push(rec(20, Kind::kRecvMatch, 1, 2, 3, 0x22));
  sink.rank_lane(0)->push(rec(40, Kind::kCkpt, -1, 1));
  sink.rank_lane(1)->push(rec(5, Kind::kSend, 0, 1));
  sink.rank_lane(1)->push(rec(12, Kind::kSend, 0, 2));
  sink.rank_lane(1)->push(rec(20, Kind::kDeterminant, 0, 3, 0, 0x5));
  sink.rank_lane(1)->push(rec(20, Kind::kPiggyback, 0, 4, 2));
  sink.rank_lane(1)->push(rec(30, Kind::kElAck, -1, 9));
  sink.engine_lane()->push(
      rec(20, Kind::kFault, -7, kMax, 0, kMax, trace::kRankCrash));
  sink.engine_lane()->push(
      rec(40, Kind::kRecovery, 2, 0, 0, 0, trace::kPhaseRestart));
  return sink;
}

TEST(TraceText, RenderMatchesTheGoldenText) {
  const trace::TraceSink sink = golden_sink();
  const std::string text = trace::render(sink.capture());
  EXPECT_EQ(text,
            "# mpiv-trace v1\n"
            "# lane r0 total=3 dropped=0\n"
            "# lane r1 total=5 dropped=2\n"
            "# lane el0 total=0 dropped=0\n"
            "# lane engine total=2 dropped=0\n"
            "10 r0 send 0 1 1 7 abc\n"
            "20 r0 recv-match 0 1 2 3 22\n"
            "20 r1 determinant 0 0 3 0 5\n"
            "20 r1 piggyback 0 0 4 2 0\n"
            "20 engine fault 1 -7 18446744073709551615 0 ffffffffffffffff\n"
            "30 r1 el-ack 0 -1 9 0 0\n"
            "40 r0 ckpt 0 -1 1 0 0\n"
            "40 engine recovery 1 2 0 0 0\n");
  EXPECT_EQ(sink.dump(), text);

  const trace::Dump dump(
      std::make_shared<const trace::Capture>(sink.capture()));
  std::uint64_t records = 0;
  bool line_start = true;
  for (const char ch : dump) {  // the range bench/e2e counts lines over
    if (line_start && ch != '#') ++records;
    line_start = ch == '\n';
  }
  EXPECT_EQ(dump.records(), records);
  EXPECT_EQ(dump.records(), 8u);
  EXPECT_EQ(dump.text(), text);
  EXPECT_EQ(&dump.text(), &dump.text());  // rendered once, then cached

  const trace::Dump none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.records(), 0u);
  EXPECT_EQ(none.begin(), none.end());
}

TEST(TraceText, RenderParsesBackToTheCapture) {
  const trace::Capture capture = golden_sink().capture();
  const trace::Capture parsed = trace::parse_stream(trace::render(capture));
  EXPECT_TRUE(parsed == capture);
  ASSERT_EQ(parsed.lanes().size(), 4u);
  EXPECT_EQ(parsed.lanes()[1].dropped, 2u);
  EXPECT_EQ(parsed.lanes()[2].total, 0u);
  // Repacking the decoded lanes gives the same capture; one field of one
  // record changed gives a different one.
  std::vector<std::vector<Record>> records;
  for (std::size_t li = 0; li < capture.lanes().size(); ++li) {
    records.push_back(capture.lane_records(li));
  }
  EXPECT_TRUE(trace::Capture(capture.lanes(), records) == capture);
  records[1].back().aux += 1;
  EXPECT_FALSE(trace::Capture(capture.lanes(), records) == capture);
}

// ---------------------------------------------------------------------------
// Packed capture round trip
// ---------------------------------------------------------------------------

std::vector<Record> ring_records(const trace::Lane& lane) {
  std::vector<Record> out;
  lane.for_each([&out](const Record& r) { out.push_back(r); });
  return out;
}

::testing::AssertionResult same_records(const std::vector<Record>& a,
                                        const std::vector<Record>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << a.size() << " vs " << b.size()
                                         << " records";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || !a[i].same_content(b[i])) {
      return ::testing::AssertionFailure()
             << "record " << i << ": t=" << a[i].t << " "
             << trace::format_record("", a[i]) << " vs t=" << b[i].t << " "
             << trace::format_record("", b[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded random lanes, empty and wrapped ones included, with every field
// at its extremes: seq running backwards as after a rollback, negative
// peers, code 0 and 255, zero and UINT64_MAX seq/aux/digest and timestamp
// steps near INT64_MAX either way. The packed capture must decode to
// exactly what each ring holds.
TEST(Capture, PackedLanesDecodeToTheRetainedRecords) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr sim::Time kTMax = std::numeric_limits<sim::Time>::max();
  std::mt19937_64 rng(29);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto cap = static_cast<std::uint32_t>(1 + pick(48));
    const int nranks = static_cast<int>(1 + pick(4));
    const int shards = static_cast<int>(pick(3));
    trace::TraceSink sink(nranks, shards, cap);
    std::vector<trace::Lane*> lanes{sink.engine_lane()};
    for (int r = 0; r < nranks; ++r) lanes.push_back(sink.rank_lane(r));
    for (int e = 0; e < shards; ++e) lanes.push_back(sink.el_lane(e));
    for (trace::Lane* lane : lanes) {
      const std::uint64_t n = pick(3) == 0 ? 0 : pick(2 * cap + 2);
      sim::Time t = static_cast<sim::Time>(rng());
      std::uint64_t seq[8] = {};
      for (std::uint64_t i = 0; i < n; ++i) {
        Record r;
        switch (pick(8)) {
          case 0: t = pick(2) == 0 ? kTMax : -kTMax; break;
          case 1: t = static_cast<sim::Time>(rng()); break;
          default:  // in uint64, as t may sit at kTMax
            t = static_cast<sim::Time>(static_cast<std::uint64_t>(t) +
                                       pick(1000));
            break;
        }
        r.t = t;
        r.kind = static_cast<Kind>(pick(8));
        std::uint64_t& s = seq[static_cast<std::size_t>(r.kind)];
        switch (pick(6)) {
          case 0: s -= pick(50); break;  // rolled back
          case 1: s = pick(2) == 0 ? kMax : 0; break;
          default: s += 1; break;
        }
        r.seq = s;
        const std::uint64_t codes[] = {0, 0, 255, pick(256)};
        r.code = static_cast<std::uint8_t>(codes[pick(4)]);
        const std::int32_t peers[] = {
            -1, static_cast<std::int32_t>(pick(64)),
            -static_cast<std::int32_t>(pick(1000)),
            std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()};
        r.peer = peers[pick(5)];
        const std::uint64_t wide[] = {0, pick(100), kMax, rng()};
        r.aux = wide[pick(4)];
        r.digest = wide[pick(4)];
        lane->push(r);
      }
    }
    const trace::Capture c = sink.capture();
    std::uint64_t retained = 0;
    for (std::size_t li = 0; li < sink.lanes().size(); ++li) {
      retained += sink.lanes()[li].retained();
      EXPECT_TRUE(
          same_records(c.lane_records(li), ring_records(sink.lanes()[li])))
          << sink.lanes()[li].name();
    }
    EXPECT_EQ(c.records(), retained);
    EXPECT_TRUE(trace::parse_stream(trace::render(c)) == c);
  }

  // Kinds past the enum have no text form but still pack exactly.
  trace::TraceSink odd(1, 0, 8);
  for (const int kind : {8, 62, 63, 64, 200, 255}) {
    odd.rank_lane(0)->push(rec(kind, static_cast<Kind>(kind), 1,
                               static_cast<std::uint64_t>(kind), 2, 3, 4));
  }
  EXPECT_TRUE(same_records(odd.capture().lane_records(0),
                           ring_records(*odd.rank_lane(0))));
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
  const trace::Capture a = trace::parse_stream(two_rank_stream(false, false,
                                                              true));
  const trace::Capture b = trace::parse_stream(two_rank_stream(false, false,
                                                              false));
  const trace::DivergenceReport rep = trace::compare_captures(a, b, 2);
  EXPECT_TRUE(rep.equivalent);
  EXPECT_EQ(rep.victim, 1);  // the kFault record names the victim
  EXPECT_EQ(rep.victim_fault_at, 15);
  EXPECT_EQ(rep.first_divergent(), nullptr);
}

TEST(Divergence, CorruptedRecordIsLocalizedToLaneAndRecord) {
  const trace::Capture faulty =
      trace::parse_stream(two_rank_stream(/*corrupt_ssn=*/true, false, true));
  const trace::Capture reference =
      trace::parse_stream(two_rank_stream(false, false, false));
  const trace::DivergenceReport rep =
      trace::compare_captures(faulty, reference, 2);
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
  const trace::Capture faulty =
      trace::parse_stream(two_rank_stream(false, /*drop_tail=*/true, true));
  const trace::Capture reference =
      trace::parse_stream(two_rank_stream(false, false, false));
  const trace::DivergenceReport rep =
      trace::compare_captures(faulty, reference, 2);
  EXPECT_FALSE(rep.equivalent);
  const trace::LaneDivergence* d = rep.first_divergent();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->lane, "r0");
  EXPECT_TRUE(d->has_reference);
  EXPECT_FALSE(d->has_faulty);
  EXPECT_NE(d->what.find("missing"), std::string::npos) << d->what;
}

// The victim is the first rank crash in stream order: the earliest
// timestamp, ties broken by the lower lane index.
TEST(Divergence, VictimIsTheFirstCrashInStreamOrder) {
  auto crash = [](sim::Time t, std::int32_t victim) {
    return rec(t, Kind::kFault, victim, 0, 0, 0, trace::kRankCrash);
  };
  auto victim_of = [](const trace::TraceSink& sink) {
    const trace::Capture c = sink.capture();
    const trace::DivergenceReport rep =
        trace::compare_captures(c, c, sink.nranks());
    return std::make_pair(rep.victim, rep.victim_fault_at);
  };
  // Two crashes at t=15 on lanes 1 and 0: lane 0's comes first.
  trace::TraceSink tie(2, 0, 8);
  tie.rank_lane(1)->push(crash(15, 7));
  tie.rank_lane(0)->push(crash(15, 5));
  EXPECT_EQ(victim_of(tie), std::make_pair(5, sim::Time{15}));
  // Lane 3's crash at t=30 comes before lane 0's at t=40.
  trace::TraceSink later(4, 0, 8);
  later.rank_lane(0)->push(rec(5, Kind::kSend, 1, 1));
  later.rank_lane(0)->push(crash(40, 0));
  later.rank_lane(3)->push(crash(30, 3));
  EXPECT_EQ(victim_of(later), std::make_pair(3, sim::Time{30}));
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
  const trace::DivergenceReport rep = trace::compare_captures(
      trace::parse_stream(small.dump()), trace::parse_stream(big.dump()), 1);
  EXPECT_TRUE(rep.equivalent);
  ASSERT_EQ(rep.lanes.size(), 1u);
  EXPECT_TRUE(rep.lanes[0].compared);
  EXPECT_TRUE(rep.lanes[0].truncated);

  // A corrupted record inside the surviving suffix is still caught.
  small.rank_lane(0)->push(rec(70, Kind::kSend, 1, 7, 0, 0xbad));
  big.rank_lane(0)->push(rec(70, Kind::kSend, 1, 7, 0, 0x47));
  const trace::DivergenceReport rep2 = trace::compare_captures(
      trace::parse_stream(small.dump()), trace::parse_stream(big.dump()), 1);
  EXPECT_FALSE(rep2.equivalent);
  EXPECT_TRUE(rep2.lanes[0].truncated);
  EXPECT_EQ(rep2.lanes[0].faulty.digest, 0xbadu);
}

TEST(Lane, GrowsOnDemandThenWrapsAtCapacity) {
  // Around each capacity boundary, retained/dropped and the dumped stream
  // must hold exactly the newest records, as a preallocated ring would.
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8},
                                 std::size_t{200}, std::size_t{5000}}) {
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
      EXPECT_LE(lane.allocated(), cap);  // growth stops at the capacity
      std::vector<std::uint64_t> suffix;
      for (std::size_t i = n - kept; i < n; ++i) suffix.push_back(i);
      std::vector<std::uint64_t> visited;
      lane.for_each([&visited](const Record& r) { visited.push_back(r.seq); });
      EXPECT_EQ(visited, suffix);

      const trace::Capture parsed_capture = trace::parse_stream(sink.dump());
      const trace::LaneInfo& info = parsed_capture.lanes()[0];
      EXPECT_EQ(info.name, "r0");
      EXPECT_EQ(info.total, n);
      EXPECT_EQ(info.dropped, n - kept);
      std::vector<std::uint64_t> parsed;
      for (const Record& r : parsed_capture.lane_records(0)) {
        parsed.push_back(r.seq);
      }
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
  ASSERT_FALSE(r.reference_trace_dump.empty());
  const trace::Capture& faulty = *r.trace_dump.capture();
  const trace::DivergenceReport rep =
      trace::compare_captures(faulty, *r.reference_trace_dump.capture(), 4);
  EXPECT_EQ(rep.victim, 2);
  EXPECT_GT(rep.victim_fault_at, 0);
  EXPECT_TRUE(rep.equivalent) << rep.first_divergent()->what;
  // The faulty stream carries the recovery phase ladder for the victim.
  bool saw_restart = false, saw_replay_done = false;
  for (const Record& rec : faulty.lane_records(2)) {
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
  ASSERT_FALSE(r.reference_trace_dump.empty());
  const trace::Capture& faulty = *r.trace_dump.capture();
  // With 64-record lanes this workload must overflow at least one rank lane.
  bool any_dropped = false;
  for (const trace::LaneInfo& li : faulty.lanes()) {
    any_dropped |= li.dropped > 0;
  }
  EXPECT_TRUE(any_dropped);
  const trace::DivergenceReport rep =
      trace::compare_captures(faulty, *r.reference_trace_dump.capture(), 4);
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
  EXPECT_TRUE(r.reference_trace_dump.empty());
}

// ---------------------------------------------------------------------------
// Replay-equivalence harness: every bundled fault scenario
// ---------------------------------------------------------------------------

// One traced, referenced run of a bundled fault scenario's quick point.
struct HarnessRun {
  std::string label;  // "<file>: <point label>"
  int nranks = 0;
  scenario::RunResult result;
};

// Every scenarios/*.scn that injects faults, its quick grid re-run with
// trace lanes and the reference twin forced on. Runs once per process;
// the ReplayEquivalence tests share it.
struct Harness {
  int scenarios_with_faults = 0;
  std::vector<HarnessRun> runs;
};

const Harness& harness() {
  static const Harness h = [] {
    Harness out;
    const std::filesystem::path dir =
        std::filesystem::path(MPIV_SOURCE_DIR) / "scenarios";
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
      ++out.scenarios_with_faults;
      spec.trace.enabled = true;
      spec.compare_reference = true;
      for (const scenario::RunPoint& p : scenario::expand(spec)) {
        out.runs.push_back(HarnessRun{
            path.filename().string() + ": " + p.label, p.spec.nranks,
            scenario::run_point(p)});
      }
    }
    return out;
  }();
  return h;
}

// Every point the outcome classifier calls recovered_exact — the checksums
// matched — must also be record-identical at trace level: the recovered
// ranks' logical send/recv-match sequences equal the fault-free
// reference's. This is the paper's replay guarantee pinned at its
// strongest observable granularity.
TEST(ReplayEquivalence, EveryBundledFaultScenarioMatchesItsReference) {
  const std::filesystem::path dir =
      std::filesystem::path(MPIV_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int points_checked = 0;
  for (const HarnessRun& run : harness().runs) {
    const scenario::RunResult& r = run.result;
    if (r.outcome() != scenario::Outcome::kRecoveredExact) continue;
    ASSERT_FALSE(r.trace_dump.empty()) << run.label;
    ASSERT_FALSE(r.reference_trace_dump.empty()) << run.label;
    const trace::DivergenceReport rep = trace::compare_captures(
        *r.trace_dump.capture(), *r.reference_trace_dump.capture(),
        run.nranks);
    const trace::LaneDivergence* d = rep.first_divergent();
    EXPECT_TRUE(rep.equivalent)
        << run.label << ": " << (d != nullptr ? d->what : "?") << " on "
        << (d != nullptr ? d->lane : "?");
    ++points_checked;
  }
  // The bundle must actually exercise the harness (fault_campaign,
  // chaos_soak, fig10, ... all inject faults).
  EXPECT_GE(harness().scenarios_with_faults, 4)
      << "fault scenarios went missing";
  EXPECT_GE(points_checked, 5) << "no recovered_exact points to verify";
}

// The capture mpiv_trace reads and the text a .trace file holds must agree
// on every run, faulty and reference alike: the text parses back into the
// capture it was rendered from.
TEST(ReplayEquivalence, EveryCaptureParsesBackFromItsRenderedText) {
  int captures_checked = 0;
  for (const HarnessRun& run : harness().runs) {
    for (const trace::Dump* dump :
         {&run.result.trace_dump, &run.result.reference_trace_dump}) {
      if (dump->empty()) continue;
      const trace::Capture& c = *dump->capture();
      EXPECT_TRUE(trace::parse_stream(trace::render(c)) == c) << run.label;
      ++captures_checked;
    }
  }
  EXPECT_GE(captures_checked, 10);
}

// Packing must stay narrow: a traced quick fault_campaign grid, faulty
// runs and reference twins alike, takes at most 16 bytes per record
// (records cost 40 bytes unpacked).
TEST(ReplayEquivalence, FaultCampaignCapturesPackToAtMost16BytesPerRecord) {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  for (const HarnessRun& run : harness().runs) {
    if (run.label.rfind("fault_campaign.scn: ", 0) != 0) continue;
    for (const trace::Dump* dump :
         {&run.result.trace_dump, &run.result.reference_trace_dump}) {
      if (dump->empty()) continue;
      records += dump->capture()->records();
      bytes += dump->capture()->packed_bytes();
    }
  }
  ASSERT_GT(records, 1000u);
  EXPECT_LE(bytes, 16 * records) << bytes << " bytes for " << records;
}

}  // namespace
}  // namespace mpiv
