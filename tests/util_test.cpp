// Unit tests for the ricsa::util substrate: PRNG determinism, statistics,
// regression, serialization round-trips, JSON, base64, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <thread>

#include "mutation.hpp"
#include "util/base64.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace u = ricsa::util;

// ---------------------------------------------------------------- PRNG ----

TEST(Prng, SameSeedSameStream) {
  u::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  u::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Prng, UniformInUnitInterval) {
  u::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, UniformMeanNearHalf) {
  u::Xoshiro256 rng(11);
  u::RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Prng, UniformIntCoversRangeInclusive) {
  u::Xoshiro256 rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Prng, NormalMoments) {
  u::Xoshiro256 rng(17);
  u::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Prng, ExponentialMean) {
  u::Xoshiro256 rng(19);
  u::RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Prng, BernoulliFrequency) {
  u::Xoshiro256 rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.2);
  EXPECT_NEAR(hits / 100000.0, 0.2, 0.01);
}

TEST(Prng, ForkIndependence) {
  u::Xoshiro256 parent(29);
  u::Xoshiro256 child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

// --------------------------------------------------------------- Stats ----

TEST(RunningStats, EmptyIsZero) {
  u::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  u::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  u::Xoshiro256 rng(31);
  u::RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, CvZeroMean) {
  u::RunningStats s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_EQ(s.cv(), 0.0);  // mean is zero -> defined as 0
}

TEST(Histogram, BucketsAndQuantiles) {
  u::Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.bucket(b), 10u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.6);
}

TEST(Histogram, OverflowUnderflowCounted) {
  u::Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(u::Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(u::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(LinearRegression, ExactLine) {
  u::LinearRegression reg;
  for (int i = 0; i < 50; ++i) {
    reg.add(i, 3.0 * i + 7.0);
  }
  const u::LinearFit fit = reg.fit();
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearRegression, NoisyLineRecoversSlope) {
  u::Xoshiro256 rng(37);
  u::LinearRegression reg;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0, 100);
    reg.add(x, 2.5 * x + 1.0 + rng.normal(0, 5.0));
  }
  const u::LinearFit fit = reg.fit();
  EXPECT_NEAR(fit.slope, 2.5, 0.05);
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(LinearRegression, DegenerateInputs) {
  u::LinearRegression reg;
  EXPECT_EQ(reg.fit().n, 0u);
  reg.add(1.0, 2.0);
  EXPECT_EQ(reg.fit().slope, 0.0);  // single point -> zero fit
  reg.add(1.0, 4.0);                // identical x values
  EXPECT_EQ(reg.fit().slope, 0.0);
}

TEST(ExactQuantile, Median) {
  EXPECT_DOUBLE_EQ(u::exact_quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(u::exact_quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(u::exact_quantile({5}, 0.99), 5.0);
  EXPECT_THROW(u::exact_quantile({}, 0.5), std::invalid_argument);
}

// --------------------------------------------------------------- Bytes ----

TEST(Bytes, RoundTripScalars) {
  u::ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-12345);
  w.i64(-9876543210LL);
  w.f64(3.14159265358979);
  w.f32(2.5f);

  u::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), -9876543210LL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_FLOAT_EQ(r.f32(), 2.5f);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RoundTripStringsAndBlobs) {
  u::ByteWriter w;
  w.str("hello, \xF0\x9F\x8C\x8D");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 0, 255};
  w.blob(blob);
  w.str("");

  u::ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello, \xF0\x9F\x8C\x8D");
  EXPECT_EQ(r.blob(), blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncatedInputThrows) {
  u::ByteWriter w;
  w.u32(7);
  {
    u::ByteReader r(std::span(w.bytes().data(), 2));
    EXPECT_THROW(r.u32(), std::out_of_range);
  }
  u::ByteWriter w2;
  w2.u32(100);  // blob length prefix promising 100 bytes, none present
  u::ByteReader r2(w2.bytes());
  EXPECT_THROW(r2.blob(), std::out_of_range);
}

TEST(Bytes, LittleEndianLayout) {
  u::ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

// ---------------------------------------------------------------- JSON ----

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(u::Json::parse("null").is_null());
  EXPECT_EQ(u::Json::parse("true").as_bool(), true);
  EXPECT_EQ(u::Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(u::Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(u::Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, ParseNested) {
  const auto v = u::Json::parse(R"({"a": [1, 2, {"b": "x"}], "c": null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "x");
  EXPECT_TRUE(v.at("c").is_null());
  EXPECT_TRUE(v.at("missing").is_null());
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("zz"));
}

TEST(Json, EscapesRoundTrip) {
  u::Json v(std::string("line1\nline2\t\"quoted\"\\"));
  const auto reparsed = u::Json::parse(v.dump());
  EXPECT_EQ(reparsed.as_string(), v.as_string());
}

TEST(Json, UnicodeEscape) {
  EXPECT_EQ(u::Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(u::Json::parse(R"("é")").as_string(), "\xC3\xA9");
}

TEST(Json, DumpParseRoundTripComplex) {
  u::Json v;
  v["name"] = "ricsa";
  v["version"] = 1.0;
  v["flags"] = u::JsonArray{u::Json(true), u::Json(false), u::Json(nullptr)};
  v["nested"] = u::JsonObject{{"k", u::Json(3.5)}};
  const auto round = u::Json::parse(v.dump());
  EXPECT_EQ(round, v);
  const auto pretty = u::Json::parse(v.dump(2));
  EXPECT_EQ(pretty, v);
}

TEST(Json, MalformedInputsThrow) {
  EXPECT_THROW(u::Json::parse(""), std::runtime_error);
  EXPECT_THROW(u::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(u::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(u::Json::parse("nul"), std::runtime_error);
  EXPECT_THROW(u::Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(u::Json::parse("1 2"), std::runtime_error);
  // Nesting is bounded: a body of '[' bytes is an error, not a stack
  // overflow, and a balanced document one level past the limit is refused
  // while one exactly at it parses.
  EXPECT_THROW(u::Json::parse(std::string(100000, '[')), std::runtime_error);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_THROW(u::Json::parse(nested(u::Json::kMaxDepth + 1)),
               std::runtime_error);
  EXPECT_TRUE(u::Json::parse(nested(u::Json::kMaxDepth)).is_array());
}

TEST(Json, SeededMutationsParseOrThrowAndRoundTrip) {
  // Request bodies (/api/steer, /api/view) and relayed poll bodies are
  // untrusted. Every mutated document must either parse or throw
  // runtime_error, and whatever parses must survive dump() -> parse().
  const std::vector<std::string> corpus = {
      R"({"gamma":1.55,"cfl":0.4})",
      R"({"variable":"pressure","technique":"iso","azimuth":-2.5e-1})",
      R"({"seq":42,"delta":true,"tier":"full","state":{"cycle":7,)"
      R"("parameters":{"cfl":0.5}},"tiles":[{"x":0,"y":64,"w":64,"h":64,)"
      R"("png_b64":"iVBORw0KGgo="}]})",
      R"([1,2.5e3,-0,true,false,null,"a\"b\\c\/d\b\f\n\r\té\u0001"])",
      R"({"":{},"k":[[],[{}]],"n":123456789012345678901234567890})",
  };
  const std::vector<std::string> tokens = {
      std::string(300, '['), std::string(300, '{'), std::string(5000, '['),
      "[", "]", "{", "}", "\"", ":", ",", "\\", "\\u12", "\\ud800", "1e999",
      "-", ".5", "1e308", "null", "tru", "\"k\":", std::string(1, '\0')};
  u::Xoshiro256 rng(0x4a534f4e);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string input =
        ricsa_test::mutate(corpus[static_cast<std::size_t>(i) % corpus.size()],
                           rng, tokens);
    u::Json doc;
    try {
      doc = u::Json::parse(input);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++accepted;
    const std::string text = doc.dump();
    u::Json again;
    ASSERT_NO_THROW(again = u::Json::parse(text)) << "case " << i << ": "
                                                  << text;
    EXPECT_TRUE(again == doc) << "case " << i << ": " << text;
  }
  // The mutations must leave the accept path exercised, not only errors.
  EXPECT_GT(accepted, 100);
}

TEST(Json, IntegerFormatting) {
  EXPECT_EQ(u::Json(42).dump(), "42");
  EXPECT_EQ(u::Json(-3).dump(), "-3");
  EXPECT_EQ(u::Json(2.5).dump(), "2.5");
}

TEST(Json, NumbersDumpShortestAndRoundTrip) {
  // The shortest text that reads back as the same double.
  EXPECT_EQ(u::Json(2.7).dump(), "2.7");
  EXPECT_EQ(u::Json(0.4).dump(), "0.4");
  EXPECT_EQ(u::Json(4.5204e-05).dump(), "4.5204e-05");
  EXPECT_EQ(u::Json(1e21).dump(), "1e+21");
  EXPECT_EQ(u::Json(5e-324).dump(), "5e-324");
  EXPECT_EQ(u::Json(DBL_MAX).dump(), "1.7976931348623157e+308");
  // JSON has no NaN or infinity: they dump as null, which parses.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf}) {
    EXPECT_EQ(u::Json(bad).dump(), "null");
  }
  u::Json object;
  object["x"] = std::nan("");
  EXPECT_TRUE(u::Json::parse(object.dump()).at("x").is_null());
  // Seeded finite bit patterns parse back bit for bit.
  u::Xoshiro256 rng(0x6e756d73);
  int checked = 0;
  while (checked < 10000) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    const std::string text = u::Json(value).dump();
    const double back = u::Json::parse(text).as_number();
    std::uint64_t back_bits = 0;
    std::memcpy(&back_bits, &back, sizeof(back));
    ASSERT_EQ(back_bits, bits) << text;
    ++checked;
  }
}

// -------------------------------------------------------------- Base64 ----

TEST(Base64, KnownVectors) {
  const auto enc = [](std::string_view s) {
    return u::base64_encode(std::span(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(enc(""), "");
  EXPECT_EQ(enc("f"), "Zg==");
  EXPECT_EQ(enc("fo"), "Zm8=");
  EXPECT_EQ(enc("foo"), "Zm9v");
  EXPECT_EQ(enc("foobar"), "Zm9vYmFy");
}

TEST(Base64, RoundTripRandom) {
  u::Xoshiro256 rng(41);
  for (int len = 0; len < 64; ++len) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(len));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 0xFF);
    EXPECT_EQ(u::base64_decode(u::base64_encode(data)), data);
  }
}

TEST(Base64, RejectsBadInput) {
  EXPECT_THROW(u::base64_decode("abc"), std::invalid_argument);
  EXPECT_THROW(u::base64_decode("ab!="), std::invalid_argument);
  EXPECT_THROW(u::base64_decode("=abc"), std::invalid_argument);
  EXPECT_THROW(u::base64_decode("a=bc"), std::invalid_argument);
}

// ------------------------------------------------------------- Strings ----

TEST(Strings, Split) {
  const auto parts = u::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(u::split("", ',').size(), 1u);
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(u::trim("  x y \t\n"), "x y");
  EXPECT_EQ(u::trim(""), "");
  EXPECT_EQ(u::to_lower("AbC"), "abc");
  EXPECT_TRUE(u::iequals("Content-Type", "content-type"));
  EXPECT_FALSE(u::iequals("a", "ab"));
  EXPECT_TRUE(u::starts_with("GET /x", "GET "));
  EXPECT_FALSE(u::starts_with("GE", "GET "));
}

TEST(Strings, Format) {
  EXPECT_EQ(u::format_bytes(16e6), "16.0 MB");
  EXPECT_EQ(u::format_seconds(0.0123), "12.300 ms");
  EXPECT_EQ(u::strprintf("%d-%s", 5, "x"), "5-x");
}

// ---------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsAllTasks) {
  u::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  u::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  u::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionsPropagate) {
  u::ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeReflectsWorkers) {
  u::ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ParallelForPropagatesChunkException) {
  u::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("chunk boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForAllChunksBeforeRethrowing) {
  // The caller may destroy the body (and everything it references) the
  // moment parallel_for throws — so no chunk can still be running then.
  u::ThreadPool pool(4);
  std::atomic<int> started{0}, finished{0};
  try {
    pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t) {
      ++started;
      if (lo == 0) throw std::runtime_error("first chunk dies");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++finished;
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first chunk dies");
  }
  // Every chunk that started also ran to completion (or threw) by the time
  // parallel_for returned; nothing is still touching the captures.
  EXPECT_EQ(finished.load(), started.load() - 1);
}

TEST(ThreadPool, ParallelForFirstExceptionWinsWhenSeveralThrow) {
  u::ThreadPool pool(4);
  try {
    pool.parallel_for(0, 4, [](std::size_t lo, std::size_t) {
      throw std::runtime_error("chunk " + std::to_string(lo));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");  // chunks submit in order
  }
}

TEST(ThreadPool, NestedAndConcurrentParallelForsComplete) {
  // Grains run on whichever thread claims them, the caller included, so a
  // parallel_for issued from inside a grain, or from several threads at
  // once, never waits on a task stuck behind it in the queue.
  u::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8 * 100);
  const auto nested = [&] {
    pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t outer = lo; outer < hi; ++outer) {
        pool.parallel_for(0, 100, [&](std::size_t ilo, std::size_t ihi) {
          for (std::size_t i = ilo; i < ihi; ++i) ++hits[outer * 100 + i];
        });
      }
    });
  };
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) callers.emplace_back(nested);
  for (auto& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}
