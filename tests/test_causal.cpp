// Unit and property tests for the causal-logging core: determinant wire
// formats, the event store, the antecedence graph (including the paper's
// Fig. 3 scenario), the sender log, and the strategy invariants —
// no-event-sent-twice, graph-pruning soundness (Manetho/LogOn piggyback a
// subset of Vcausal's), and LogOn's partial-order emission (checked against
// a map-indexed Kahn oracle) — plus a digest pin over every piggyback of a
// seeded 32-rank exchange under each strategy, and a differential check of
// the absorb that skips already-held runs against a one-by-one merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <type_traits>

#include "causal/antecedence_graph.hpp"
#include "causal/event_store.hpp"
#include "causal/logon_strategy.hpp"
#include "causal/manetho_strategy.hpp"
#include "causal/sender_log.hpp"
#include "causal/vcausal_strategy.hpp"
#include "causal/wire.hpp"
#include "util/rng.hpp"

namespace mpiv::causal {
namespace {

ftapi::Determinant det(std::uint32_t creator, std::uint64_t seq,
                       std::uint32_t src, std::uint64_t ssn, int tag = 0) {
  ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  d.src = src;
  d.ssn = ssn;
  d.tag = tag;
  return d;
}

// --- wire formats -------------------------------------------------------------

TEST(Wire, FactoredRoundTrip) {
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 5; s < 9; ++s) events.push_back(det(2, s, 1, s + 10, 3));
  for (std::uint64_t s = 1; s < 3; ++s) events.push_back(det(4, s, 0, s, 9));
  util::Buffer b;
  wire::factored_serialize(events, b);
  const auto parsed = wire::factored_parse(b);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(parsed[i], events[i]);
}

TEST(Wire, PlainRoundTripPreservesOrder) {
  std::vector<ftapi::Determinant> events = {det(3, 7, 1, 2), det(1, 1, 3, 9),
                                            det(3, 8, 0, 5)};
  util::Buffer b;
  wire::plain_serialize(events, b);
  const auto parsed = wire::plain_parse(b);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(parsed[i], events[i]);
}

TEST(Wire, FactoredSmallerForRuns) {
  // 100 consecutive events of one creator: one block header amortized.
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 1; s <= 100; ++s) events.push_back(det(2, s, 1, s));
  util::Buffer fact, plain;
  wire::factored_serialize(events, fact);
  wire::plain_serialize(events, plain);
  EXPECT_LT(fact.size(), plain.size());
}

TEST(Wire, PlainSmallerForSingleEvents) {
  // The paper's LU/4 case: one event per piggyback — the factored block
  // header exceeds the per-event format.
  std::vector<ftapi::Determinant> one = {det(2, 1, 1, 1)};
  util::Buffer fact, plain;
  wire::factored_serialize(one, fact);
  wire::plain_serialize(one, plain);
  EXPECT_GT(fact.size(), plain.size());
}

TEST(Wire, FactoredSplitsNonContiguousRuns) {
  std::vector<ftapi::Determinant> events = {det(2, 1, 1, 1), det(2, 3, 1, 3)};
  util::Buffer b;
  wire::factored_serialize(events, b);
  const auto parsed = wire::factored_parse(b);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 1u);
  EXPECT_EQ(parsed[1].seq, 3u);
}

TEST(Wire, FactoredSplitsRunsLongerThanABlock) {
  // A block counts its events in a u16: a 70,000-event run of one creator
  // must be split over two blocks, not wrap the count.
  std::vector<ftapi::Determinant> events;
  for (std::uint64_t s = 1; s <= 70000; ++s) {
    events.push_back(det(5, s, 2, s + 3, static_cast<int>(s % 11)));
  }
  util::Buffer b;
  wire::factored_serialize(events, b);
  EXPECT_EQ(b.size(), wire::kFactoredHeader + 2 * wire::kFactoredBlockHeader +
                          events.size() * wire::kFactoredPerEvent);
  const auto parsed = wire::factored_parse(b);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(parsed[i], events[i]) << "index " << i;
  }
  EXPECT_EQ(b.remaining(), 0u);
}

// --- event store ---------------------------------------------------------------

TEST(EventStoreTest, AddAndKnownTracksPrefix) {
  EventStore s(4);
  EXPECT_TRUE(s.add(det(1, 1, 0, 1)));
  EXPECT_TRUE(s.add(det(1, 2, 0, 2)));
  EXPECT_FALSE(s.add(det(1, 2, 0, 2)));  // duplicate
  EXPECT_EQ(s.known(1), 2u);
  EXPECT_EQ(s.known(2), 0u);
}

TEST(EventStoreTest, StablePruningDropsCoveredEvents) {
  EventStore s(4);
  for (std::uint64_t q = 1; q <= 10; ++q) s.add(det(1, q, 0, q));
  s.set_stable({0, 7, 0, 0});
  EXPECT_EQ(s.stable(1), 7u);
  EXPECT_EQ(s.known(1), 10u);
  EXPECT_EQ(s.find(1, 7), nullptr);
  EXPECT_NE(s.find(1, 8), nullptr);
  ftapi::DeterminantList out;
  s.collect(1, out);
  EXPECT_EQ(out.size(), 3u);
  // A determinant below the stable point is rejected.
  EXPECT_FALSE(s.add(det(1, 5, 0, 5)));
}

TEST(EventStoreTest, GapAboveStableIsAllowed) {
  // A sender only piggybacks its unstable suffix: the receiver may learn
  // (10..12] while 6..10 went straight to the EL.
  EventStore s(4);
  for (std::uint64_t q = 1; q <= 5; ++q) s.add(det(1, q, 0, q));
  EXPECT_TRUE(s.add(det(1, 11, 0, 11)));
  EXPECT_TRUE(s.add(det(1, 12, 0, 12)));
  EXPECT_EQ(s.known(1), 12u);
}

TEST(EventStoreTest, SerializeRestoreRoundTrip) {
  EventStore s(3);
  for (std::uint64_t q = 1; q <= 6; ++q) s.add(det(2, q, 0, q));
  s.set_stable({0, 0, 3});
  util::Buffer b;
  s.serialize(b);
  EventStore t(3);
  t.restore(b);
  EXPECT_EQ(t.known(2), 6u);
  EXPECT_EQ(t.stable(2), 3u);
  EXPECT_EQ(t.held_count(), 3u);
}

/// The contiguous watermark by brute force: the highest m at or above the
/// stable point such that every seq in (stable, m] is held.
std::uint64_t scan_contiguous(const EventStore& s, std::uint32_t c) {
  std::uint64_t m = s.stable(c);
  while (s.find(c, m + 1) != nullptr) ++m;
  return m;
}

TEST(EventStoreTest, ContiguousWatermarkMatchesBruteForce) {
  // A seeded mix of adds (runs, holes, duplicates, below-stable rejects),
  // set_stable below, inside and past the holes, serialize -> restore into
  // a fresh store, and reset; the watermark is checked after every step.
  constexpr int kN = 4;
  util::Rng rng(2718);
  EventStore s(kN);
  for (int step = 0; step < 5000; ++step) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(kN));
    const std::uint64_t roll = rng.next_below(100);
    const char* op = "add";
    if (roll < 82) {
      const std::uint64_t from = s.contiguous(c) > 4 ? s.contiguous(c) - 4 : 1;
      s.add(det(c, from + rng.next_below(12), 0, 1));
    } else if (roll < 94) {
      std::vector<std::uint64_t> v = s.stable_vector();
      const std::uint64_t known = s.known(c);
      switch (rng.next_below(3)) {
        case 0:  // below the current point: a no-op
          op = "set_stable below";
          v[c] = v[c] > 0 ? v[c] - 1 : 0;
          break;
        case 1:  // somewhere in (stable, known], often inside a hole
          op = "set_stable inside";
          if (known > v[c]) v[c] += 1 + rng.next_below(known - v[c]);
          break;
        default:  // past everything held
          op = "set_stable past";
          v[c] = known + 1 + rng.next_below(4);
          break;
      }
      s.set_stable(v);
    } else if (roll < 99) {
      op = "restore";
      util::Buffer b;
      s.serialize(b);
      EventStore fresh(kN);
      fresh.restore(b);
      s = std::move(fresh);
    } else {
      op = "reset";
      s.reset();
    }
    for (std::uint32_t k = 0; k < kN; ++k) {
      ASSERT_EQ(s.contiguous(k), scan_contiguous(s, k))
          << op << " at step " << step << ", creator " << k;
    }
  }
}

// --- antecedence graph ----------------------------------------------------------

TEST(Graph, ReachabilityFollowsProcessOrderAndCrossEdges) {
  AntecedenceGraph g(3);
  // P1 events 1..3; P2 event 1 depends on P1's event 2.
  for (std::uint64_t q = 1; q <= 3; ++q) g.add(det(1, q, 0, q));
  ftapi::Determinant e = det(2, 1, 1, 5);
  e.dep_creator = 1;
  e.dep_seq = 2;
  g.add(e);
  std::vector<std::uint64_t> known;
  g.known_from(2, 1, known);
  EXPECT_EQ(known[2], 1u);
  EXPECT_EQ(known[1], 2u);  // through the cross edge, then process order
  EXPECT_EQ(known[0], 0u);
}

TEST(Graph, PaperFig3TransitiveKnowledge) {
  // Paper Fig. 3: P3 never exchanged with P2 directly, but learned P2's
  // event via a relay; the graph walk proves P2 knows its own causal past,
  // so those events need not be piggybacked — Vcausal cannot see this.
  AntecedenceGraph g(4);
  // P0 creates a,b (seq 1,2). P2's event h (seq 1) has cross edge to P0#2.
  g.add(det(0, 1, 3, 1));
  g.add(det(0, 2, 3, 2));
  ftapi::Determinant h = det(2, 1, 0, 9);
  h.dep_creator = 0;
  h.dep_seq = 2;
  g.add(h);
  // P3 (us) holds all of it; what does P2 know?
  std::vector<std::uint64_t> known;
  g.known_from(2, 1, known);
  EXPECT_EQ(known[0], 2u);  // P2 provably knows P0's events 1..2
}

TEST(Graph, PruneStableRemovesVertices) {
  AntecedenceGraph g(2);
  for (std::uint64_t q = 1; q <= 8; ++q) g.add(det(1, q, 0, q));
  EXPECT_EQ(g.vertex_count(), 8u);
  g.prune_stable({0, 5});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_FALSE(g.contains(1, 5));
  EXPECT_TRUE(g.contains(1, 6));
}

TEST(Graph, RunningVertexCountMatchesWindows) {
  // vertex_count() is kept as a running total; it must equal the sum of
  // the per-creator windows through duplicate adds, adds below the pruned
  // base, prunes and a reset.
  util::Rng rng(31);
  AntecedenceGraph g(5);
  std::vector<std::uint64_t> stable(5, 0);
  auto sum = [&g] {
    std::size_t n = 0;
    for (std::uint32_t c = 0; c < 5; ++c) n += g.vertex_count(c);
    return n;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(5));
    g.add(det(c, 1 + rng.next_below(300), 0, 1));
    if (i % 97 == 0) {
      stable[c] += rng.next_below(40);
      g.prune_stable(stable);
    }
    ASSERT_EQ(g.vertex_count(), sum()) << "step " << i;
  }
  g.reset();
  EXPECT_EQ(g.vertex_count(), 0u);
}

TEST(Graph, CachedTraversalMatchesFullTraversal) {
  util::Rng rng(77);
  AntecedenceGraph g(4);
  std::vector<std::uint64_t> seq(4, 0);
  for (int i = 0; i < 200; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(4));
    const auto s = static_cast<std::uint32_t>(rng.next_below(4));
    ftapi::Determinant d = det(c, ++seq[c], s, seq[c]);
    d.dep_creator = s;
    d.dep_seq = seq[s];
    g.add(d);
    if (i % 20 == 19) {
      std::vector<std::uint64_t> full, cached;
      g.known_from(1, seq[1], full);
      std::vector<std::uint64_t> cache;  // fresh cache each time
      g.known_from_cached(1, seq[1], cache);
      EXPECT_EQ(cache, full);
    }
  }
}

// --- sender log -------------------------------------------------------------------

TEST(SenderLogTest, LogGcAndPending) {
  SenderLog log(4);
  for (std::uint64_t ssn = 1; ssn <= 10; ++ssn) {
    log.log(2, ssn, 5, {100 * ssn, ssn});
  }
  EXPECT_EQ(log.entries(), 10u);
  EXPECT_EQ(log.bytes(), 100u * 55);
  log.gc(2, 6);
  EXPECT_EQ(log.entries(), 4u);
  std::vector<std::uint64_t> pending;
  log.for_pending(2, 8, [&](const SenderLog::Entry& e) { pending.push_back(e.ssn); });
  EXPECT_EQ(pending, (std::vector<std::uint64_t>{9, 10}));
}

TEST(SenderLogTest, SerializeRestoreRoundTrip) {
  SenderLog log(2);
  log.log(1, 3, 7, {512, 99});
  util::Buffer b;
  log.serialize(b);
  SenderLog log2(2);
  log2.restore(b);
  EXPECT_EQ(log2.entries(), 1u);
  EXPECT_EQ(log2.bytes(), 512u);
  std::vector<std::uint64_t> checks;
  log2.for_pending(1, 0, [&](const SenderLog::Entry& e) { checks.push_back(e.payload.check); });
  EXPECT_EQ(checks, (std::vector<std::uint64_t>{99}));
}

// --- strategy properties -------------------------------------------------------------

struct StratFixture {
  EventStore store{4};
  net::CostModel cost;
  std::unique_ptr<Strategy> strat;

  explicit StratFixture(StrategyKind k) : strat(make_strategy(k)) {
    strat->attach(&store, &cost, /*rank=*/3, 4);
  }
  void local_event(std::uint32_t src, std::uint64_t ssn) {
    ftapi::Determinant d = det(3, store.known(3) + 1, src, ssn);
    d.dep_creator = src;
    d.dep_seq = store.known(src);
    store.add(d);
    strat->on_local_event(d);
  }
  std::vector<ftapi::Determinant> build(int dst, util::Buffer* out = nullptr,
                                        Strategy::DepShadow* deps_out = nullptr) {
    util::Buffer local;
    util::Buffer& b = out ? *out : local;
    Strategy::DepShadow deps;
    strat->build(dst, b, deps);
    if (deps_out) *deps_out = deps;
    // Parse back through the matching wire format.
    b.rewind();
    return dynamic_cast<LogOnStrategy*>(strat.get()) ? wire::plain_parse(b)
                                                     : wire::factored_parse(b);
  }
};

class StrategyProperty : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyProperty, NoEventSentTwiceToSamePeer) {
  StratFixture fx(GetParam());
  std::set<std::pair<std::uint32_t, std::uint64_t>> sent;
  util::Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      fx.local_event(static_cast<std::uint32_t>(rng.next_below(3)), rng.next_u64() % 1000);
    }
    for (const ftapi::Determinant& d : fx.build(1)) {
      const auto key = std::make_pair(d.creator, d.seq);
      EXPECT_TRUE(sent.insert(key).second)
          << "event (" << d.creator << "," << d.seq << ") piggybacked twice";
    }
  }
}

TEST_P(StrategyProperty, StableEventsNeverPiggybacked) {
  StratFixture fx(GetParam());
  for (int i = 0; i < 10; ++i) fx.local_event(0, static_cast<std::uint64_t>(i + 1));
  std::vector<std::uint64_t> stable = {0, 0, 0, 6};
  fx.store.set_stable(stable);
  fx.strat->on_stable(stable);
  for (const ftapi::Determinant& d : fx.build(1)) {
    EXPECT_GT(d.seq, 6u);
  }
}

TEST_P(StrategyProperty, NeverSendsReceiverItsOwnEvents) {
  StratFixture fx(GetParam());
  // Learn some events created by peer 1 (as if piggybacked to us).
  util::Buffer in;
  Strategy::DepShadow deps;
  std::vector<ftapi::Determinant> theirs;
  for (std::uint64_t q = 1; q <= 4; ++q) {
    theirs.push_back(det(1, q, 2, q));
    deps.emplace_back(UINT32_MAX, 0);
  }
  if (GetParam() == StrategyKind::kLogOn) {
    wire::plain_serialize(theirs, in);
  } else {
    wire::factored_serialize(theirs, in);
  }
  in.rewind();
  fx.strat->absorb(1, in, deps);
  fx.local_event(0, 1);
  for (const ftapi::Determinant& d : fx.build(1)) {
    EXPECT_NE(d.creator, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyProperty,
                         ::testing::Values(StrategyKind::kVcausal,
                                           StrategyKind::kManetho,
                                           StrategyKind::kLogOn),
                         [](const auto& info) {
                           return std::string(strategy_kind_name(info.param));
                         });

TEST(StrategyComparison, GraphStrategiesPiggybackSubsetOfVcausal) {
  // Same event history in all three; the graph strategies may prune
  // strictly more (transitive knowledge) but never less safely: their
  // emitted set must be a subset of Vcausal's.
  StratFixture vc(StrategyKind::kVcausal);
  StratFixture ma(StrategyKind::kManetho);
  StratFixture lo(StrategyKind::kLogOn);
  util::Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const auto src = static_cast<std::uint32_t>(rng.next_below(3));
    const std::uint64_t ssn = static_cast<std::uint64_t>(i + 1);
    vc.local_event(src, ssn);
    ma.local_event(src, ssn);
    lo.local_event(src, ssn);
  }
  auto key_set = [](const std::vector<ftapi::Determinant>& v) {
    std::set<std::pair<std::uint32_t, std::uint64_t>> s;
    for (const auto& d : v) s.emplace(d.creator, d.seq);
    return s;
  };
  const auto vset = key_set(vc.build(1));
  const auto mset = key_set(ma.build(1));
  const auto lset = key_set(lo.build(1));
  for (const auto& k : mset) EXPECT_TRUE(vset.count(k));
  for (const auto& k : lset) EXPECT_TRUE(vset.count(k));
  EXPECT_EQ(mset, lset);  // same pruning, different wire format
}

TEST(LogOnOrder, EmissionRespectsPartialOrder) {
  // For the emitted sequence m_1..m_k: for i < j, m_j must not be in the
  // causal past of m_i (paper §III-C) — i.e. ancestors come first.
  StratFixture fx(StrategyKind::kLogOn);
  util::Rng rng(13);
  for (int i = 0; i < 40; ++i) {
    fx.local_event(static_cast<std::uint32_t>(rng.next_below(3)),
                   static_cast<std::uint64_t>(i + 1));
  }
  Strategy::DepShadow deps;
  const std::vector<ftapi::Determinant> emitted = fx.build(1, nullptr, &deps);
  ASSERT_EQ(deps.size(), emitted.size());
  std::set<std::pair<std::uint32_t, std::uint64_t>> seen;
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const ftapi::Determinant& d = emitted[i];
    // Process-order antecedent must already have been emitted (if in set).
    if (d.seq > 1) {
      bool in_set = false;
      for (const auto& e : emitted) {
        if (e.creator == d.creator && e.seq == d.seq - 1) in_set = true;
      }
      if (in_set) {
        EXPECT_TRUE(seen.count({d.creator, d.seq - 1}))
            << "process-order violated at index " << i;
      }
    }
    // Cross-edge antecedent likewise.
    const auto [dc, ds] = deps[i];
    if (dc != UINT32_MAX && ds > 0) {
      bool in_set = false;
      for (const auto& e : emitted) {
        if (e.creator == dc && e.seq == ds) in_set = true;
      }
      if (in_set) {
        EXPECT_TRUE(seen.count({dc, ds})) << "cross edge violated at index " << i;
      }
    }
    seen.emplace(d.creator, d.seq);
  }
}

// Every in-set antecedent of each event (process order and cross edge)
// precedes it in `ordered`, and `ordered` is a permutation of `input`.
void expect_topological(const std::vector<ftapi::Determinant>& input,
                        const std::vector<ftapi::Determinant>& ordered) {
  ASSERT_EQ(ordered.size(), input.size());
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> pos;
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    pos[{ordered[i].creator, ordered[i].seq}] = i;
  }
  for (const ftapi::Determinant& d : input) {
    EXPECT_TRUE(pos.count({d.creator, d.seq}))
        << "event (" << d.creator << "," << d.seq << ") lost";
  }
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const ftapi::Determinant& d = ordered[i];
    if (d.seq > 1) {
      const auto it = pos.find({d.creator, d.seq - 1});
      if (it != pos.end()) {
        EXPECT_LT(it->second, i) << "process order violated at index " << i;
      }
    }
    if (d.dep_creator != UINT32_MAX && d.dep_seq > 0) {
      const auto it = pos.find({d.dep_creator, d.dep_seq});
      if (it != pos.end()) {
        EXPECT_LT(it->second, i) << "cross edge violated at index " << i;
      }
    }
  }
}

TEST(LogOnOrder, CausalOrderIsStableUnderPermutation) {
  std::vector<ftapi::Determinant> events;
  std::vector<std::uint64_t> seq(4, 0);
  util::Rng rng(21);
  for (int i = 0; i < 20; ++i) {
    const auto c = static_cast<std::uint32_t>(rng.next_below(4));
    ftapi::Determinant d = det(c, ++seq[c], (c + 1) % 4, seq[c]);
    d.dep_creator = (c + 1) % 4;
    d.dep_seq = seq[(c + 1) % 4];
    events.push_back(d);
  }
  const auto ordered = LogOnStrategy::causal_order(events);
  EXPECT_EQ(ordered.size(), events.size());
  expect_topological(events, ordered);
  std::reverse(events.begin(), events.end());
  const auto ordered2 = LogOnStrategy::causal_order(events);
  EXPECT_EQ(ordered2.size(), ordered.size());
  expect_topological(events, ordered2);
}

// The map-indexed Kahn ordering LogOn shipped with, kept as the oracle:
// edges are added in ascending target order, the process-order edge before
// the cross edge, and the ready list is processed FIFO.
std::vector<ftapi::Determinant> map_kahn_oracle(
    const std::vector<ftapi::Determinant>& events) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < events.size(); ++i) {
    index[{events[i].creator, events[i].seq}] = i;
  }
  std::vector<int> indegree(events.size(), 0);
  std::vector<std::vector<std::size_t>> out(events.size());
  auto add_edge = [&](std::uint32_t c, std::uint64_t s, std::size_t to) {
    auto it = index.find({c, s});
    if (it == index.end()) return;
    out[it->second].push_back(to);
    ++indegree[to];
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ftapi::Determinant& d = events[i];
    if (d.seq > 1) add_edge(d.creator, d.seq - 1, i);
    if (d.dep_creator != UINT32_MAX && d.dep_seq > 0) {
      add_edge(d.dep_creator, d.dep_seq, i);
    }
  }
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<ftapi::Determinant> ordered;
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const std::size_t i = ready[head];
    ordered.push_back(events[i]);
    for (const std::size_t j : out[i]) {
      if (--indegree[j] == 0) ready.push_back(j);
    }
  }
  return ordered;
}

TEST(LogOnOrder, CausalOrderMatchesMapKahnOracle) {
  // Random causal histories: every dep points at an event created earlier,
  // so the graph is acyclic. A random subset is kept (holes), some deps
  // point outside the kept set or at nothing, some events depend on their
  // own creator's previous event (the process edge doubled by the cross
  // edge), creators and sequence numbers are offset far from zero, and the
  // input order is shuffled.
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 300; ++trial) {
    const auto ncreators = static_cast<std::uint32_t>(1 + rng.next_below(12));
    const std::uint32_t creator_base =
        trial % 3 == 0 ? 0 : static_cast<std::uint32_t>(rng.next_below(60000));
    const std::uint64_t seq_base =
        trial % 4 == 0 ? 0 : rng.next_below(std::uint64_t{1} << 40);
    std::vector<std::uint64_t> seq(ncreators, seq_base);
    std::vector<ftapi::Determinant> history;
    const auto len = static_cast<int>(rng.next_below(400));
    for (int i = 0; i < len; ++i) {
      const auto c = static_cast<std::uint32_t>(rng.next_below(ncreators));
      ftapi::Determinant d = det(creator_base + c, ++seq[c], 0, i + 1);
      const std::uint64_t kind = rng.next_below(8);
      if (kind == 0) {
        d.dep_creator = UINT32_MAX;
      } else if (kind == 1 && seq[c] > seq_base + 1) {
        d.dep_creator = creator_base + c;
        d.dep_seq = seq[c] - 1;
      } else {
        const auto s = static_cast<std::uint32_t>(rng.next_below(ncreators));
        d.dep_creator = creator_base + s;
        d.dep_seq = seq[s] - (s == c ? 1 : rng.next_below(3));
      }
      d.src = d.dep_creator == UINT32_MAX ? 0 : d.dep_creator;
      history.push_back(d);
    }
    std::vector<ftapi::Determinant> events;
    const std::uint64_t keep = 1 + rng.next_below(4);  // keep ~1/keep
    for (const ftapi::Determinant& d : history) {
      if (keep == 1 || rng.next_below(keep) != 0) events.push_back(d);
    }
    for (std::size_t i = events.size(); i > 1; --i) {
      std::swap(events[i - 1], events[rng.next_below(i)]);
    }
    const std::vector<ftapi::Determinant> expected = map_kahn_oracle(events);
    const std::vector<ftapi::Determinant> got =
        LogOnStrategy::causal_order(events);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "trial " << trial << " index " << i;
      ASSERT_EQ(got[i].dep_creator, expected[i].dep_creator);
      ASSERT_EQ(got[i].dep_seq, expected[i].dep_seq);
    }
    expect_topological(events, got);
  }
}

// FNV-1a over raw bytes.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
template <class T>
std::uint64_t fnv1a(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof v);
}

// A seeded 32-rank exchange through real strategy instances: random
// point-to-point messages, each piggyback built by the sender and absorbed
// by the receiver, which then creates its reception determinant. The first
// half runs without stability (no Event Logger), the second half advances
// a lagging stable vector on every rank. Returns an FNV digest of every
// piggyback's bytes, its dep shadow and the priced work of both sides.
std::uint64_t exchange_digest(StrategyKind kind) {
  constexpr int kN = 32;
  constexpr int kMessages = 1600;
  net::CostModel cost;
  std::vector<std::unique_ptr<EventStore>> stores;
  std::vector<std::unique_ptr<Strategy>> strats;
  for (int r = 0; r < kN; ++r) {
    stores.push_back(std::make_unique<EventStore>(kN));
    strats.push_back(make_strategy(kind));
    strats.back()->attach(stores.back().get(), &cost, r, kN);
  }
  std::vector<std::uint64_t> ssn(kN, 0);
  std::vector<std::uint64_t> stable(kN, 0);
  util::Rng rng(1405);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_work = [&h](const Strategy::Work& w) {
    h = fnv1a(h, w.events);
    h = fnv1a(h, w.bytes);
    h = fnv1a(h, w.visits);
    h = fnv1a(h, w.cpu);
  };
  for (int m = 0; m < kMessages; ++m) {
    const auto src = static_cast<int>(rng.next_below(kN));
    auto dst = static_cast<int>(rng.next_below(kN - 1));
    if (dst >= src) ++dst;
    util::Buffer pb;
    Strategy::DepShadow deps;
    mix_work(strats[static_cast<std::size_t>(src)]->build(dst, pb, deps));
    h = fnv1a(h, pb.bytes().data(), pb.size());
    for (const auto& [dc, ds] : deps) {
      h = fnv1a(h, dc);
      h = fnv1a(h, ds);
    }
    pb.rewind();
    mix_work(strats[static_cast<std::size_t>(dst)]->absorb(src, pb, deps));

    EventStore& store = *stores[static_cast<std::size_t>(dst)];
    const auto creator = static_cast<std::uint32_t>(dst);
    ftapi::Determinant d = det(creator, store.known(creator) + 1,
                               static_cast<std::uint32_t>(src),
                               ++ssn[static_cast<std::size_t>(src)], m % 7);
    d.dep_creator = static_cast<std::uint32_t>(src);
    d.dep_seq = store.known(static_cast<std::uint32_t>(src));
    store.add(d);
    strats[static_cast<std::size_t>(dst)]->on_local_event(d);

    if (m >= kMessages / 2 && m % 50 == 0) {
      for (int c = 0; c < kN; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const std::uint64_t created =
            stores[ci]->known(static_cast<std::uint32_t>(c));
        if (created > stable[ci] + 8) stable[ci] = created - 8;
      }
      for (int r = 0; r < kN; ++r) {
        stores[static_cast<std::size_t>(r)]->set_stable(stable);
        strats[static_cast<std::size_t>(r)]->on_stable(stable);
      }
    }
  }
  return h;
}

TEST(StrategyPin, ExchangeDigestsAreUnchanged) {
  // Pins the piggyback bytes, dep shadows and priced work of every
  // strategy: host-side changes to build/absorb must leave them as they are.
  EXPECT_EQ(exchange_digest(StrategyKind::kVcausal), 0xcaa4e15f0da58f50ULL);
  EXPECT_EQ(exchange_digest(StrategyKind::kManetho), 0x9134f266d7868a01ULL);
  EXPECT_EQ(exchange_digest(StrategyKind::kLogOn), 0x1ec36b0234cf2178ULL);
}

// --- skipping absorb vs one-by-one merge ------------------------------------

// The differential reference: the same strategy, except that absorb decodes
// every event of the piggyback and merges each one (store add, graph add for
// a new event, knowledge note), with no watermark skip.
template <class Base>
class OneByOneAbsorb final : public Base {
 public:
  Strategy::Work absorb(int src, util::Buffer& in,
                        const Strategy::DepShadow& deps) override {
    std::vector<ftapi::Determinant> events =
        std::is_same_v<Base, LogOnStrategy> ? wire::plain_parse(in)
                                            : wire::factored_parse(in);
    EXPECT_EQ(events.size(), deps.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ftapi::Determinant& d = events[i];
      d.dep_creator = deps[i].first;
      d.dep_seq = deps[i].second;
      const bool added = this->store_->add(d);
      if constexpr (std::is_base_of_v<ManethoStrategy, Base>) {
        if (added) this->graph_->add(d);
      }
      this->note_learned(src, d);
    }
    Strategy::Work w;
    w.events = events.size();
    return w;
  }
};

std::unique_ptr<Strategy> make_one_by_one(StrategyKind k) {
  switch (k) {
    case StrategyKind::kVcausal:
      return std::make_unique<OneByOneAbsorb<VcausalStrategy>>();
    case StrategyKind::kManetho:
      return std::make_unique<OneByOneAbsorb<ManethoStrategy>>();
    case StrategyKind::kLogOn:
      return std::make_unique<OneByOneAbsorb<LogOnStrategy>>();
  }
  return nullptr;
}

/// One side of the differential exchange: a store and a strategy per rank.
struct Ranks {
  std::vector<std::unique_ptr<EventStore>> stores;
  std::vector<std::unique_ptr<Strategy>> strats;

  EventStore& store(int r) { return *stores[static_cast<std::size_t>(r)]; }
  Strategy& strat(int r) { return *strats[static_cast<std::size_t>(r)]; }
};

/// Compares rank `r`'s store (held events with their cross edges, known and
/// stable vectors), graph (vertices per creator) and strategy image.
::testing::AssertionResult same_rank_state(Ranks& got, Ranks& want, int r,
                                           int nranks) {
  EventStore& gs = got.store(r);
  EventStore& ws = want.store(r);
  const auto* gm = dynamic_cast<const ManethoStrategy*>(&got.strat(r));
  const auto* wm = dynamic_cast<const ManethoStrategy*>(&want.strat(r));
  for (int c = 0; c < nranks; ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    ftapi::DeterminantList g, w;
    gs.collect(creator, g);
    ws.collect(creator, w);
    const bool same =
        std::equal(g.begin(), g.end(), w.begin(), w.end(),
                   [](const ftapi::Determinant& a, const ftapi::Determinant& b) {
                     return a == b && a.dep_creator == b.dep_creator &&
                            a.dep_seq == b.dep_seq;
                   });
    if (!same) {
      return ::testing::AssertionFailure()
             << "rank " << r << " holds different events of creator " << c
             << " (" << g.size() << " vs " << w.size() << ")";
    }
    if (gm != nullptr &&
        gm->graph().vertex_count(creator) != wm->graph().vertex_count(creator)) {
      return ::testing::AssertionFailure()
             << "rank " << r << " graph holds " << gm->graph().vertex_count(creator)
             << " vertices of creator " << c << ", reference "
             << wm->graph().vertex_count(creator);
    }
  }
  if (gs.known_vector() != ws.known_vector()) {
    return ::testing::AssertionFailure() << "rank " << r << " known vector";
  }
  if (gs.stable_vector() != ws.stable_vector()) {
    return ::testing::AssertionFailure() << "rank " << r << " stable vector";
  }
  util::Buffer gb, wb;
  got.strat(r).serialize(gb);
  want.strat(r).serialize(wb);
  if (gb.bytes() != wb.bytes()) {
    return ::testing::AssertionFailure() << "rank " << r << " strategy image";
  }
  return ::testing::AssertionSuccess();
}

class SkippingAbsorb : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(SkippingAbsorb, MatchesOneByOneMerge) {
  // A seeded 32-rank exchange run twice in lockstep: once through the real
  // strategies, once through references that merge every event one by one.
  // Each piggyback is built on both sides (and must match), each side's
  // receiver absorbs its own copy, and the receivers are compared after
  // every absorb. The second half delivers a lagging stable vector to each
  // rank on its own schedule; one rank restores an earlier checkpoint,
  // replays its receptions since, and every peer is told of the restart.
  constexpr int kN = 32;
  constexpr int kMessages = 1600;
  constexpr int kVictim = 5;
  constexpr int kCheckpointAt = 900;
  constexpr int kRestartAt = 1100;
  net::CostModel cost;
  Ranks real, ref;
  for (int r = 0; r < kN; ++r) {
    for (Ranks* side : {&real, &ref}) {
      side->stores.push_back(std::make_unique<EventStore>(kN));
      side->strats.push_back(side == &real ? make_strategy(GetParam())
                                           : make_one_by_one(GetParam()));
      side->strats.back()->attach(side->stores.back().get(), &cost, r, kN);
    }
  }
  std::vector<std::uint64_t> ssn(kN, 0);
  std::vector<std::uint64_t> stable(kN, 0);
  util::Buffer real_image, ref_image;
  std::vector<std::uint64_t> image_known;
  std::vector<ftapi::DeterminantList> created(kN);  // each rank's receptions
  util::Rng rng(8128);
  for (int m = 0; m < kMessages; ++m) {
    const auto src = static_cast<int>(rng.next_below(kN));
    auto dst = static_cast<int>(rng.next_below(kN - 1));
    if (dst >= src) ++dst;
    util::Buffer pb, ref_pb;
    Strategy::DepShadow deps, ref_deps;
    real.strat(src).build(dst, pb, deps);
    ref.strat(src).build(dst, ref_pb, ref_deps);
    ASSERT_EQ(pb.bytes(), ref_pb.bytes()) << "message " << m;
    ASSERT_EQ(deps, ref_deps) << "message " << m;
    pb.rewind();
    ref_pb.rewind();
    const Strategy::Work w = real.strat(dst).absorb(src, pb, deps);
    ref.strat(dst).absorb(src, ref_pb, ref_deps);
    ASSERT_EQ(w.events, deps.size()) << "message " << m;
    ASSERT_EQ(pb.remaining(), 0u) << "message " << m;
    ASSERT_TRUE(same_rank_state(real, ref, dst, kN)) << "message " << m;

    const auto creator = static_cast<std::uint32_t>(dst);
    ftapi::Determinant d =
        det(creator, real.store(dst).known(creator) + 1,
            static_cast<std::uint32_t>(src),
            ++ssn[static_cast<std::size_t>(src)], m % 5);
    d.dep_creator = static_cast<std::uint32_t>(src);
    d.dep_seq = real.store(dst).known(static_cast<std::uint32_t>(src));
    created[static_cast<std::size_t>(dst)].push_back(d);
    for (Ranks* side : {&real, &ref}) {
      side->store(dst).add(d);
      side->strat(dst).on_local_event(d);
    }

    if (m >= kMessages / 2 && m % 40 == 0) {
      for (int c = 0; c < kN; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const std::uint64_t created =
            real.store(c).known(static_cast<std::uint32_t>(c));
        if (created > stable[ci] + 6) stable[ci] = created - 6;
      }
      // Each rank hears from the Event Logger on two rounds out of three.
      for (int r = 0; r < kN; ++r) {
        if ((m / 40 + r) % 3 == 0) continue;
        for (Ranks* side : {&real, &ref}) {
          side->store(r).set_stable(stable);
          side->strat(r).on_stable(stable);
        }
      }
    }
    if (m == kCheckpointAt) {
      image_known = real.store(kVictim).known_vector();
      for (Ranks* side : {&real, &ref}) {
        util::Buffer& image = side == &real ? real_image : ref_image;
        side->store(kVictim).serialize(image);
        side->strat(kVictim).serialize(image);
      }
      ASSERT_EQ(real_image.bytes(), ref_image.bytes());
    }
    if (m == kRestartAt) {
      for (Ranks* side : {&real, &ref}) {
        util::Buffer& image = side == &real ? real_image : ref_image;
        image.rewind();
        side->store(kVictim).restore(image);
        side->strat(kVictim).restore(image);
        // Replay re-creates the victim's receptions since the checkpoint.
        for (const ftapi::Determinant& d : created[kVictim]) {
          if (d.seq <= image_known[kVictim]) continue;
          side->store(kVictim).add(d);
          side->strat(kVictim).on_local_event(d);
        }
        for (int r = 0; r < kN; ++r) {
          if (r != kVictim) side->strat(r).on_peer_restart(kVictim, image_known);
        }
      }
      for (int r = 0; r < kN; ++r) {
        ASSERT_TRUE(same_rank_state(real, ref, r, kN)) << "after the restart";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SkippingAbsorb,
                         ::testing::Values(StrategyKind::kVcausal,
                                           StrategyKind::kManetho,
                                           StrategyKind::kLogOn),
                         [](const auto& info) {
                           return std::string(strategy_kind_name(info.param));
                         });

TEST(PeerViewTest, RestartClampsAndCaps) {
  PeerView v;
  v.init(3);
  v.learned = {5, 9, 2};
  v.sent = {7, 1, 0};
  v.on_restart({4, 4, 4});
  EXPECT_EQ(v.learned, (std::vector<std::uint64_t>{4, 4, 2}));
  EXPECT_EQ(v.sent, (std::vector<std::uint64_t>{4, 1, 0}));
  EXPECT_EQ(v.cap, (std::vector<std::uint64_t>{4, 4, 4}));
  v.raise_cap(0, 6);
  EXPECT_EQ(v.cap[0], 6u);
}

}  // namespace
}  // namespace mpiv::causal
