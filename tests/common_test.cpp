#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "hpcqc/common/error.hpp"
#include "hpcqc/common/hash.hpp"
#include "hpcqc/common/log.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/common/stats.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/common/units.hpp"

namespace hpcqc {
namespace {

TEST(Error, ExpectsThrowsWithMessage) {
  EXPECT_NO_THROW(expects(true, "fine"));
  try {
    expects(false, "broken contract");
    FAIL() << "expects did not throw";
  } catch (const PreconditionError& err) {
    EXPECT_NE(std::string(err.what()).find("broken contract"),
              std::string::npos);
  }
}

TEST(Error, EnsureStateThrowsStateError) {
  EXPECT_THROW(ensure_state(false, "bad state"), StateError);
}

TEST(Error, TransientVsPermanentTaxonomy) {
  // The retry machinery keys off the code: transient codes are retriable,
  // everything else is not.
  EXPECT_TRUE(is_transient(ErrorCode::kTransient));
  EXPECT_TRUE(is_transient(ErrorCode::kTimeout));
  EXPECT_TRUE(is_transient(ErrorCode::kDeviceUnavailable));
  EXPECT_TRUE(is_transient(ErrorCode::kNetwork));
  EXPECT_TRUE(is_transient(ErrorCode::kCalibrationFailed));
  EXPECT_FALSE(is_transient(ErrorCode::kGeneric));
  EXPECT_FALSE(is_transient(ErrorCode::kPrecondition));
  EXPECT_FALSE(is_transient(ErrorCode::kInternal));

  const TransientError transient("qpu busy");
  EXPECT_TRUE(transient.transient());
  EXPECT_EQ(transient.code(), ErrorCode::kTransient);
  const TransientError timeout("no answer", ErrorCode::kTimeout);
  EXPECT_EQ(timeout.code(), ErrorCode::kTimeout);

  const PermanentError permanent("bad circuit");
  EXPECT_FALSE(permanent.transient());

  // The legacy subclasses carry fixed, non-transient codes.
  try {
    expects(false, "contract");
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kPrecondition);
    EXPECT_FALSE(error.transient());
  }
  EXPECT_STREQ(to_string(ErrorCode::kDeviceUnavailable),
               "device-unavailable");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  RunningStats small;
  for (int i = 0; i < 50000; ++i)
    small.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  RunningStats large;
  for (int i = 0; i < 20000; ++i)
    large.add(static_cast<double>(rng.poisson(120.0)));
  EXPECT_NEAR(large.mean(), 120.0, 1.0);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
  EXPECT_THROW(rng.uniform_index(0), PreconditionError);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(3);
  Rng child = parent.fork();
  // The child should not replay the parent's output.
  Rng parent_copy(3);
  (void)parent_copy.fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i)
    if (child() == parent()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptySamples) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

TEST(Stats, Rms) {
  const std::vector<double> xs{3.0, -4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, PercentileAndMedian) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);

  // Nearest rank: the value at 1-based rank ceil(q * n), clamped to [1, n].
  const std::vector<double> one{7.5};
  EXPECT_EQ(percentile(one, 0.0), 7.5);
  EXPECT_EQ(percentile(one, 0.5), 7.5);
  EXPECT_EQ(percentile(one, 1.0), 7.5);
  EXPECT_EQ(median(one), 7.5);

  const std::vector<double> four{40.0, 10.0, 30.0, 20.0};
  EXPECT_EQ(percentile(four, 0.0), 10.0);
  EXPECT_EQ(percentile(four, 1.0), 40.0);
  EXPECT_EQ(percentile(four, 0.5), 20.0);
  // ceil(0.99 * 4) = 4: the maximum, where a floor index gives the third.
  EXPECT_EQ(percentile(four, 0.99), 40.0);

  std::vector<double> fifty;
  for (int i = 50; i >= 1; --i) fifty.push_back(static_cast<double>(i));
  EXPECT_EQ(percentile(fifty, 0.99), 50.0);  // rank ceil(49.5) = 50
  EXPECT_EQ(percentile(fifty, 0.50), 25.0);  // rank 25
  EXPECT_EQ(percentile(fifty, 0.0), 1.0);
  EXPECT_EQ(percentile(fifty, 1.0), 50.0);
}

TEST(Stats, EvenMedianIsTheMidpointBitForBit) {
  // Calibration medians feed the device model, so the even-n midpoint is
  // pinned to the exact expression a * 0.5 + b * 0.5.
  const double a = 0.9987654321;
  const double b = 0.9991234567;
  const std::vector<double> xs{0.999999, a, 0.5, b};
  const double expected = a * 0.5 + b * 0.5;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(median(xs)),
            std::bit_cast<std::uint64_t>(expected));
  const std::vector<double> huge{std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::max()};
  EXPECT_EQ(median(huge), std::numeric_limits<double>::max());  // no overflow
  EXPECT_THROW(median({}), PreconditionError);
}

TEST(Hash, WordStepAndDoubleBitPattern) {
  std::uint64_t h = kHashBasis;
  hash_mix(h, 0x2a);
  EXPECT_EQ(h, (14695981039346656037ULL ^ 0x2aULL) * 1099511628211ULL);

  std::uint64_t from_double = kHashBasis;
  std::uint64_t from_bits = kHashBasis;
  hash_mix(from_double, -0.0);
  hash_mix(from_bits, 0x8000000000000000ULL);
  EXPECT_EQ(from_double, from_bits);
  std::uint64_t positive_zero = kHashBasis;
  hash_mix(positive_zero, 0.0);
  EXPECT_NE(positive_zero, from_double);

  // Negative integers widen by sign extension.
  std::uint64_t minus_one = kHashBasis;
  std::uint64_t all_ones = kHashBasis;
  hash_mix(minus_one, -1);
  hash_mix(all_ones, ~std::uint64_t{0});
  EXPECT_EQ(minus_one, all_ones);
}

TEST(Stats, PercentileContracts) {
  EXPECT_THROW(percentile({}, 0.5), PreconditionError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, 1.5), PreconditionError);
}

TEST(Stats, Correlation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(xs, zs), -1.0, 1e-12);
  const std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(correlation(xs, flat), 0.0);
}

TEST(Stats, Histogram) {
  const std::vector<double> xs{0.1, 0.2, 0.6, 0.9, -5.0, 99.0};
  const auto counts = histogram(xs, 0.0, 1.0, 2);
  EXPECT_EQ(counts[0], 3u);  // 0.1, 0.2, and clamped -5.0
  EXPECT_EQ(counts[1], 3u);  // 0.6, 0.9, and clamped 99.0
}

TEST(Stats, RunningStatsMinMax) {
  RunningStats stats;
  stats.add(3.0);
  stats.add(-1.0);
  stats.add(7.0);
  EXPECT_DOUBLE_EQ(stats.min(), -1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(Units, TimeConversions) {
  EXPECT_DOUBLE_EQ(minutes(40.0), 2400.0);
  EXPECT_DOUBLE_EQ(hours(2.0), 7200.0);
  EXPECT_DOUBLE_EQ(to_days(days(146.0)), 146.0);
  EXPECT_DOUBLE_EQ(microseconds(300.0), 3e-4);
}

TEST(Units, TemperatureConversions) {
  EXPECT_DOUBLE_EQ(celsius(0.0), 273.15);
  EXPECT_DOUBLE_EQ(to_celsius(celsius(21.0)), 21.0);
  EXPECT_DOUBLE_EQ(millikelvin(10.0), 0.01);
}

TEST(Units, SoundPressureRoundTrip) {
  EXPECT_NEAR(pascal_to_db_spl(db_spl_to_pascal(80.0)), 80.0, 1e-9);
  EXPECT_NEAR(pascal_to_db_spl(20e-6), 0.0, 1e-9);
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  clock.advance(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  EXPECT_THROW(clock.advance(-1.0), PreconditionError);
  EXPECT_THROW(clock.advance_to(9.0), PreconditionError);
}

TEST(Table, PrintAndCsv) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::num(1.5, 1)});
  table.add_row({"beta, gamma", "x\"y"});
  EXPECT_EQ(table.rows(), 2u);
  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("| name"), std::string::npos);
  std::ostringstream csv;
  table.write_csv(csv);
  EXPECT_NE(csv.str().find("\"beta, gamma\""), std::string::npos);
  EXPECT_NE(csv.str().find("\"x\"\"y\""), std::string::npos);
}

TEST(Table, ArityEnforced) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(table.row(0), PreconditionError);
}

TEST(EventLog, RecordsAndFilters) {
  EventLog log;
  log.info(0.0, "qrm", "starting");
  log.warning(10.0, "cryo", "warm");
  log.error(20.0, "qrm", "offline");
  EXPECT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.by_component("qrm").size(), 2u);
  EXPECT_EQ(log.count(LogLevel::kError), 1u);
}

TEST(EventLog, MinLevelSuppresses) {
  EventLog log;
  log.set_min_level(LogLevel::kWarning);
  log.debug(0.0, "x", "ignored");
  log.info(0.0, "x", "ignored");
  log.warning(0.0, "x", "kept");
  EXPECT_EQ(log.records().size(), 1u);
}

TEST(EventLog, SinkReceivesRecords) {
  EventLog log;
  int received = 0;
  log.set_sink([&](const LogRecord&) { ++received; });
  log.info(0.0, "x", "one");
  log.info(0.0, "x", "two");
  EXPECT_EQ(received, 2);
}

}  // namespace
}  // namespace hpcqc
