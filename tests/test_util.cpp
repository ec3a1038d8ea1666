// Unit tests for util: RNG determinism & distributions, buffer round-trips,
// sequence-window storage, slab recycling, statistics accumulators, and
// the JSON codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/buffer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/seq_window.hpp"
#include "util/slab.hpp"
#include "util/stats.hpp"

namespace mpiv::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, StateSaveRestoreReplaysStream) {
  Rng r(9);
  r.next_u64();
  const Rng::State st = r.state();
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(r.next_u64());
  r.restore(st);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(r.next_u64(), first[static_cast<size_t>(i)]);
}

TEST(Buffer, PrimitiveRoundTrip) {
  Buffer b;
  b.put_u8(0xAB);
  b.put_u16(0xBEEF);
  b.put_u32(0xDEADBEEFu);
  b.put_u64(0x0123456789ABCDEFull);
  b.put_i64(-42);
  b.put_f64(3.25);
  b.put_string("event-logger");
  EXPECT_EQ(b.get_u8(), 0xAB);
  EXPECT_EQ(b.get_u16(), 0xBEEF);
  EXPECT_EQ(b.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(b.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(b.get_i64(), -42);
  EXPECT_EQ(b.get_f64(), 3.25);
  EXPECT_EQ(b.get_string(), "event-logger");
  EXPECT_EQ(b.remaining(), 0u);
}

TEST(Buffer, NestedBuffers) {
  Buffer inner;
  inner.put_u32(77);
  Buffer outer;
  outer.put_u8(1);
  outer.put_bytes(inner);
  outer.put_u8(2);
  EXPECT_EQ(outer.get_u8(), 1);
  BufferView got = outer.get_view();
  EXPECT_EQ(got.get_u32(), 77u);
  EXPECT_EQ(outer.get_u8(), 2);
}

TEST(Buffer, SizeCountsExactBytes) {
  Buffer b;
  b.put_u32(1);
  b.put_u64(2);
  EXPECT_EQ(b.size(), 12u);
}

TEST(Buffer, PutPackedMatchesSequentialPuts) {
  Buffer seq;
  seq.put_u8(7);
  seq.put_u16(0xBEEF);
  seq.put_u64(0x0123456789ABCDEFull);
  seq.put_u16(3);
  seq.put_u32(0xDEADBEEFu);
  Buffer packed;
  packed.put_u8(7);
  packed.put_packed(std::uint16_t{0xBEEF}, std::uint64_t{0x0123456789ABCDEFull},
                    std::uint16_t{3}, std::uint32_t{0xDEADBEEFu});
  EXPECT_EQ(packed.size(), 1u + 2 + 8 + 2 + 4);
  EXPECT_EQ(packed, seq);
}

TEST(BufferView, ReadsInPlaceWithoutConsumingParent) {
  Buffer b;
  b.put_u32(7);
  b.put_string("view");
  b.put_u64(99);
  BufferView v = b.view();
  EXPECT_EQ(v.get_u32(), 7u);
  EXPECT_EQ(v.get_string(), "view");
  EXPECT_EQ(v.get_u64(), 99u);
  EXPECT_EQ(v.remaining(), 0u);
  EXPECT_EQ(b.cursor(), 0u);  // parent cursor untouched
  EXPECT_EQ(b.get_u32(), 7u);
}

TEST(BufferView, GetViewParsesNestedRangeWithoutCopy) {
  Buffer inner;
  inner.put_u32(77);
  Buffer outer;
  outer.put_u8(1);
  outer.put_bytes(inner);
  outer.put_u8(2);
  EXPECT_EQ(outer.get_u8(), 1);
  BufferView got = outer.get_view();
  EXPECT_EQ(got.data(), outer.bytes().data() + 1 + 4);  // aliases the parent
  EXPECT_EQ(got.get_u32(), 77u);
  EXPECT_EQ(outer.get_u8(), 2);
}

TEST(BufferView, SkipAdvancesPastBlob) {
  Buffer b;
  b.put_u32(3);
  b.put_u8(1);
  b.put_u8(2);
  b.put_u8(3);
  b.put_u16(0xCAFE);
  BufferView v = b.view();
  const std::uint32_t n = v.get_u32();
  v.skip(n);
  EXPECT_EQ(v.get_u16(), 0xCAFE);
}

TEST(BufferViewDeath, UnderrunPanics) {
  Buffer b;
  b.put_u8(1);
  BufferView v = b.view();
  v.get_u8();
  EXPECT_DEATH(v.get_u32(), "underrun");
}

TEST(BufferDeath, UnderrunPanics) {
  Buffer b;
  b.put_u8(1);
  b.get_u8();
  EXPECT_DEATH(b.get_u32(), "underrun");
}

TEST(SeqWindow, EmplaceFindAndDuplicates) {
  SeqWindow<int> w;
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(w.emplace(1, 10));
  EXPECT_TRUE(w.emplace(3, 30));
  EXPECT_FALSE(w.emplace(3, 31));  // duplicate keeps the original
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(*w.find(3), 30);
  EXPECT_EQ(w.find(2), nullptr);  // hole
  EXPECT_EQ(w.find(4), nullptr);  // beyond top
  EXPECT_EQ(w.max_seq(), 3u);
}

TEST(SeqWindow, HolesIterateInOrder) {
  SeqWindow<int> w;
  // Insert out of order with gaps — the below-stable holes the causal
  // stores see when a sender piggybacks only its unstable suffix.
  for (std::uint64_t s : {9ull, 2ull, 5ull, 12ull}) {
    EXPECT_TRUE(w.emplace(s, static_cast<int>(s * 10)));
  }
  std::vector<std::uint64_t> seqs;
  w.for_each([&](std::uint64_t s, const int& v) {
    seqs.push_back(s);
    EXPECT_EQ(v, static_cast<int>(s * 10));
  });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 5, 9, 12}));
  seqs.clear();
  w.for_range(2, 9, [&](std::uint64_t s, const int&) { seqs.push_back(s); });
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{5, 9}));  // (lo, hi]
}

TEST(SeqWindow, PrunePrefixRejectsBelowBase) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 10; ++s) w.emplace(s, static_cast<int>(s));
  int dropped_sum = 0;
  w.prune_to(6, [&](const int& v) { dropped_sum += v; });
  EXPECT_EQ(dropped_sum, 1 + 2 + 3 + 4 + 5 + 6);
  EXPECT_EQ(w.base(), 6u);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.find(6), nullptr);
  EXPECT_FALSE(w.emplace(6, 60));  // at/below base: pruned forever
  EXPECT_FALSE(w.emplace(3, 30));
  EXPECT_TRUE(w.contains(7));
  w.prune_to(4);  // regression is a no-op
  EXPECT_EQ(w.base(), 6u);
  w.prune_to(100);  // past the top: empties the window
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.max_seq(), 0u);
  EXPECT_TRUE(w.emplace(101, 1));
}

TEST(SeqWindow, WraparoundGrowthKeepsEntries) {
  SeqWindow<std::string> w;
  // Slide a window of ~32 live entries across a long sequence so slots wrap
  // around the ring many times, forcing several in-place growths early on.
  std::uint64_t pruned = 0;
  for (std::uint64_t s = 1; s <= 5000; ++s) {
    ASSERT_TRUE(w.emplace(s, "v" + std::to_string(s)));
    if (s % 7 == 0 && s > 32) {
      pruned = s - 32;
      w.prune_to(pruned);
    }
  }
  EXPECT_EQ(w.base(), pruned);
  EXPECT_EQ(w.size(), 5000 - pruned);
  for (std::uint64_t s = pruned + 1; s <= 5000; ++s) {
    ASSERT_NE(w.find(s), nullptr) << s;
    EXPECT_EQ(*w.find(s), "v" + std::to_string(s));
  }
}

TEST(SeqWindow, GrowthWithHolesRehomesOnlyOccupied) {
  SeqWindow<int> w;
  w.emplace(2, 2);
  w.emplace(40, 40);  // forces growth past the initial capacity
  w.emplace(1000, 1000);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(*w.find(2), 2);
  EXPECT_EQ(*w.find(40), 40);
  EXPECT_EQ(*w.find(1000), 1000);
  EXPECT_EQ(w.find(999), nullptr);
}

TEST(SeqWindow, PruneOnEmptyRaisesBaseForHighSequences) {
  // The restore pattern: raise a fresh window's base to just below the
  // lowest live key so capacity tracks the live span, not the absolute
  // sequence value reached by a long run.
  SeqWindow<int> w;
  w.prune_to(2'999'999);
  EXPECT_TRUE(w.emplace(3'000'000, 1));
  EXPECT_TRUE(w.emplace(3'000'005, 2));
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.max_seq(), 3'000'005u);
  EXPECT_FALSE(w.emplace(2'999'999, 9));
  EXPECT_EQ(*w.find(3'000'000), 1);
}

TEST(SeqWindow, HolesAndPruneAcrossPowerOfTwoBoundary) {
  // The window starts at 16 slots; drive the live span across the 16 and 32
  // slot boundaries with deliberate holes so the ring wraps exactly at a
  // power of two while partially occupied, then prune across the wrap point.
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 16; ++s) {
    if (s % 3 == 0) continue;  // holes inside the first capacity
    ASSERT_TRUE(w.emplace(s, static_cast<int>(s)));
  }
  // seq 17 lands on slot ((17-1) & 15) = 0 — the exact wraparound slot —
  // and must instead force growth to 32 because seq 1 still lives there.
  ASSERT_TRUE(w.emplace(17, 17));
  EXPECT_EQ(*w.find(1), 1);
  EXPECT_EQ(*w.find(17), 17);
  EXPECT_EQ(w.find(3), nullptr);  // the holes stayed holes through growth
  EXPECT_EQ(w.find(15), nullptr);

  // Prune across the old boundary: drops 1..16's survivors (1,2,4,...,16
  // minus the multiples of 3), keeps 17, and the dropped values arrive in
  // ascending order.
  std::vector<int> dropped;
  w.prune_to(16, [&dropped](const int& v) { dropped.push_back(v); });
  EXPECT_EQ(w.base(), 16u);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(*w.find(17), 17);
  ASSERT_FALSE(dropped.empty());
  EXPECT_TRUE(std::is_sorted(dropped.begin(), dropped.end()));
  EXPECT_EQ(dropped.front(), 1);
  EXPECT_EQ(dropped.back(), 16);
  // The freed pre-boundary slots are reusable at their post-wrap sequences.
  for (std::uint64_t s = 18; s <= 33; ++s) {
    ASSERT_TRUE(w.emplace(s, static_cast<int>(s))) << s;
  }
  EXPECT_FALSE(w.emplace(16, 0));  // at the watermark: pruned forever
  EXPECT_EQ(w.size(), 17u);
  EXPECT_EQ(w.max_seq(), 33u);
}

TEST(Slab, PutTakeRecyclesSlotsLifo) {
  Slab<std::string> slab;
  const std::uint32_t a = slab.put("alpha");
  const std::uint32_t b = slab.put("beta");
  const std::uint32_t c = slab.put("gamma");
  EXPECT_EQ(slab.in_use(), 3u);
  EXPECT_EQ(slab[b], "beta");

  EXPECT_EQ(slab.take(b), "beta");
  EXPECT_EQ(slab.take(a), "alpha");
  EXPECT_EQ(slab.in_use(), 1u);
  // Freed slots come back LIFO: the most recently freed slot first.
  EXPECT_EQ(slab.put("delta"), a);
  EXPECT_EQ(slab.put("epsilon"), b);
  EXPECT_EQ(slab.in_use(), 3u);
  EXPECT_EQ(slab[a], "delta");
  EXPECT_EQ(slab[b], "epsilon");
  EXPECT_EQ(slab[c], "gamma");
}

TEST(Slab, ReuseAfterRecycleOverwritesTheHusk) {
  // take() leaves a moved-from husk in the slot; the next put() must
  // move-assign a fresh value over it, and release() must clear the value
  // eagerly (a parked message holding payload memory must not linger).
  Slab<std::vector<int>> slab;
  const std::uint32_t s0 = slab.put({1, 2, 3});
  const std::vector<int> first = slab.take(s0);
  EXPECT_EQ(first.size(), 3u);

  const std::uint32_t s1 = slab.put({7, 8});
  EXPECT_EQ(s1, s0);  // recycled, not appended
  EXPECT_EQ(slab[s1], (std::vector<int>{7, 8}));

  slab.release(s1);
  EXPECT_EQ(slab.in_use(), 0u);
  const std::uint32_t s2 = slab.put({9});
  EXPECT_EQ(s2, s1);
  EXPECT_EQ(slab[s2], (std::vector<int>{9}));

  slab.clear();
  EXPECT_EQ(slab.in_use(), 0u);
  EXPECT_EQ(slab.put({4, 5}), 0u);  // fresh slab indexes from zero again
}

TEST(SeqWindow, ResetClearsBaseAndEntries) {
  SeqWindow<int> w;
  for (std::uint64_t s = 1; s <= 8; ++s) w.emplace(s, 1);
  w.prune_to(4);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.base(), 0u);
  EXPECT_TRUE(w.emplace(1, 1));  // below the old base: admitted again
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {1.0, 2.0, 3.0, 4.0}) a.add(x);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_NEAR(a.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Accumulator all, left, right;
  Rng r(21);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double() * 10;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(Json, ParsesPreservingMemberOrderAndExactIntegers) {
  const Json doc = parse_json(
      "{\"z\": 1.5, \"a\": [1, 2], \"s\": \"x\\u0041\", \"b\": true, "
      "\"n\": null, \"o\": {\"k\": -3e2, \"big\": 18446744073709551615, "
      "\"neg\": -9223372036854775808}}");
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  ASSERT_EQ(doc.members.size(), 6u);
  EXPECT_EQ(doc.members[0].first, "z");  // file order, not sorted
  EXPECT_EQ(doc.members[0].second.number(), 1.5);
  EXPECT_EQ(doc.members[1].second.items.size(), 2u);
  EXPECT_EQ(doc.members[2].second.str, "xA");
  EXPECT_TRUE(doc.members[3].second.boolean);
  EXPECT_EQ(doc.members[4].second.kind, Json::Kind::kNull);
  const Json* o = doc.find("o");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->find("k")->kind, Json::Kind::kDouble);
  EXPECT_EQ(o->find("k")->number(), -300.0);
  EXPECT_EQ(o->find("big")->u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(o->find("neg")->i, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(parse_json("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("\"\\uzzzz\""), std::runtime_error);
  EXPECT_THROW(parse_json("[1e]"), std::runtime_error);
  EXPECT_THROW(parse_json(std::string(100000, '[')), std::runtime_error);
}

TEST(Json, WriterLayoutIsTheReportLayout) {
  Json inner =
      Json::object().add("n", 1).add("xs", Json::array().push(2).push(3));
  Json hist =
      Json::object(/*block=*/true).add("h", Json::object().add("p", 0.5));
  Json doc = Json::object(/*block=*/true)
                 .add("inline", std::move(inner))
                 .add("block", std::move(hist))
                 .add("empty", Json::object(/*block=*/true))
                 .add("runs", Json::array(/*block=*/true).push("a").push(true));
  EXPECT_EQ(write_json(doc),
            "{\n"
            "  \"inline\": {\"n\": 1, \"xs\": [2, 3]},\n"
            "  \"block\": {\n"
            "    \"h\": {\"p\": 0.5}\n"
            "  },\n"
            "  \"empty\": {},\n"
            "  \"runs\": [\n"
            "    \"a\",\n"
            "    true\n"
            "  ]\n"
            "}");
}

TEST(Json, ScalarsPrintExactlyOrAsTenDigitDoubles) {
  EXPECT_EQ(write_json(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(write_json(std::int64_t{-42}), "-42");
  EXPECT_EQ(write_json(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(write_json(2.0), "2");
  EXPECT_EQ(write_json(1e21), "1e+21");
  EXPECT_EQ(write_json(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(write_json(std::nan("")), "null");
  EXPECT_EQ(write_json("q\"\\\n\t\x01"), "\"q\\\"\\\\\\n\\t\\u0001\"");
}

TEST(Json, RawSpliceMatchesTheTreeItRendered) {
  // The report renders each run on its own and splices it as raw text; the
  // bytes must equal rendering the whole tree at once.
  const auto run = [] {
    return Json::object(/*block=*/true)
        .add("s", "line\nbreak")
        .add("m", Json::object(/*block=*/true)
                      .add("k", -7)
                      .add("e", Json::array()));
  };
  Json tree = Json::object(/*block=*/true).add(
      "runs", Json::array(/*block=*/true).push(run()).push(run()));
  Json spliced = Json::object(/*block=*/true).add(
      "runs", Json::array(/*block=*/true)
                  .push(Json::raw(write_json(run())))
                  .push(Json::raw(write_json(run()))));
  EXPECT_EQ(write_json(spliced), write_json(tree));
}

}  // namespace
}  // namespace mpiv::util
