// Unit tests for src/util: contracts, rng, math, format, table, gnuplot.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <span>
#include <sstream>
#include <string>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/format.hpp"
#include "util/gnuplot.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace natscale {
namespace {

TEST(Contracts, ExpectsThrowsContractError) {
    auto violate = [] { NATSCALE_EXPECTS(1 == 2); };
    EXPECT_THROW(violate(), contract_error);
}

TEST(Contracts, PassingChecksDoNotThrow) {
    EXPECT_NO_THROW({
        NATSCALE_EXPECTS(true);
        NATSCALE_ENSURES(2 + 2 == 4);
        NATSCALE_CHECK(!false);
    });
}

TEST(Contracts, MessageNamesCondition) {
    try {
        NATSCALE_CHECK(0 > 1);
        FAIL() << "expected throw";
    } catch (const contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("0 > 1"), std::string::npos);
    }
}

TEST(Rng, DeterministicForFixedSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i) {
        const double x = rng.uniform01();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const std::int64_t x = rng.uniform_int(-2, 3);
        EXPECT_GE(x, -2);
        EXPECT_LE(x, 3);
        saw_lo |= x == -2;
        saw_hi |= x == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
    Rng rng(3);
    EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsBadRange) {
    Rng rng(3);
    EXPECT_THROW(rng.uniform_int(4, 3), contract_error);
}

TEST(Rng, ExponentialHasRequestedMean) {
    Rng rng(11);
    KahanSum sum;
    const int samples = 200'000;
    for (int i = 0; i < samples; ++i) sum.add(rng.exponential(0.5));
    EXPECT_NEAR(sum.value() / samples, 2.0, 0.05);
}

TEST(Rng, PoissonSmallMean) {
    Rng rng(13);
    KahanSum sum;
    const int samples = 100'000;
    for (int i = 0; i < samples; ++i) sum.add(static_cast<double>(rng.poisson(3.5)));
    EXPECT_NEAR(sum.value() / samples, 3.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
    Rng rng(17);
    KahanSum sum;
    const int samples = 50'000;
    for (int i = 0; i < samples; ++i) sum.add(static_cast<double>(rng.poisson(200.0)));
    EXPECT_NEAR(sum.value() / samples, 200.0, 2.0);
}

TEST(Rng, PoissonZeroMeanIsZero) {
    Rng rng(1);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(23);
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, Hash64IsDeterministicAndSpreads) {
    EXPECT_EQ(hash64(12345), hash64(12345));
    EXPECT_NE(hash64(1), hash64(2));
}

TEST(WeightedSampler, MatchesWeights) {
    Rng rng(31);
    WeightedSampler sampler({1.0, 2.0, 7.0});
    std::vector<int> counts(3, 0);
    const int samples = 100'000;
    for (int i = 0; i < samples; ++i) ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[0] / static_cast<double>(samples), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(samples), 0.2, 0.015);
    EXPECT_NEAR(counts[2] / static_cast<double>(samples), 0.7, 0.015);
}

TEST(WeightedSampler, ZeroWeightNeverSampled) {
    Rng rng(37);
    WeightedSampler sampler({0.0, 1.0});
    for (int i = 0; i < 1'000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(WeightedSampler, RejectsInvalidWeights) {
    EXPECT_THROW(WeightedSampler(std::vector<double>{}), contract_error);
    EXPECT_THROW(WeightedSampler({0.0, 0.0}), contract_error);
    EXPECT_THROW(WeightedSampler({-1.0, 2.0}), contract_error);
}

TEST(Math, KahanSumIsAccurate) {
    KahanSum sum;
    sum.add(1e16);
    for (int i = 0; i < 10'000; ++i) sum.add(1.0);
    sum.add(-1e16);
    EXPECT_DOUBLE_EQ(sum.value(), 10'000.0);
}

TEST(Math, MeanAndVariance) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(population_variance(xs), 1.25);
    EXPECT_DOUBLE_EQ(population_stddev(xs), std::sqrt(1.25));
}

TEST(Math, MeanOfEmptyIsZero) {
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(population_variance({}), 0.0);
}

TEST(Math, Linspace) {
    const auto xs = linspace(0.0, 1.0, 5);
    ASSERT_EQ(xs.size(), 5u);
    EXPECT_DOUBLE_EQ(xs[0], 0.0);
    EXPECT_DOUBLE_EQ(xs[2], 0.5);
    EXPECT_DOUBLE_EQ(xs[4], 1.0);
}

TEST(Math, Geomspace) {
    const auto xs = geomspace(1.0, 1000.0, 4);
    ASSERT_EQ(xs.size(), 4u);
    EXPECT_NEAR(xs[0], 1.0, 1e-12);
    EXPECT_NEAR(xs[1], 10.0, 1e-9);
    EXPECT_NEAR(xs[2], 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(xs[3], 1000.0);
}

TEST(Math, GeomspaceRejectsNonPositive) {
    EXPECT_THROW(geomspace(0.0, 10.0, 3), contract_error);
}

TEST(Math, CeilDiv) {
    EXPECT_EQ(ceil_div(10, 3), 4);
    EXPECT_EQ(ceil_div(9, 3), 3);
    EXPECT_EQ(ceil_div(1, 100), 1);
}

TEST(Math, ArithmeticSeries) {
    EXPECT_DOUBLE_EQ(arithmetic_series(1, 100), 5050.0);
    EXPECT_DOUBLE_EQ(arithmetic_series(5, 5), 5.0);
    EXPECT_DOUBLE_EQ(arithmetic_series(7, 6), 0.0);  // empty
    EXPECT_DOUBLE_EQ(arithmetic_series(-3, 3), 0.0);
}

TEST(Format, Duration) {
    EXPECT_EQ(format_duration(42.0), "42.0s");
    EXPECT_EQ(format_duration(90.0), "1.5min");
    EXPECT_EQ(format_duration(3600.0 * 18), "18.0h");
    EXPECT_EQ(format_duration(86400.0 * 3), "3.0d");
    EXPECT_EQ(format_duration(-90.0), "-1.5min");
}

TEST(Format, FixedAndCount) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_count(82894), "82,894");
    EXPECT_EQ(format_count(999), "999");
    EXPECT_EQ(format_count(1000), "1,000");
}

TEST(Format, SecondsToHours) {
    EXPECT_DOUBLE_EQ(seconds_to_hours(7200.0), 2.0);
}

TEST(Table, PrintAlignsColumns) {
    ConsoleTable table({"a", "long-header"});
    table.add_row({"1", "2"});
    table.add_row({"333", "4"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("long-header"), std::string::npos);
    EXPECT_NE(text.find("| 333"), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);  // header, rule, 2 rows
}

TEST(Table, RowArityEnforced) {
    ConsoleTable table({"a", "b"});
    EXPECT_THROW(table.add_row({"only-one"}), contract_error);
}

TEST(Gnuplot, WritesBlocks) {
    const auto path = std::filesystem::temp_directory_path() / "natscale_gnuplot_test.dat";
    DataSeries s;
    s.name = "series";
    s.column_names = {"x", "y"};
    s.rows = {{1.0, 2.0}, {3.0, 4.0}};
    write_dat_blocks(path.string(), {s, s});
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("# series"), std::string::npos);
    EXPECT_NE(text.find("1 2"), std::string::npos);
    EXPECT_NE(text.find("\n\n"), std::string::npos);  // block separator
    std::filesystem::remove(path);
}

TEST(Gnuplot, RaggedRowThrows) {
    const auto path = std::filesystem::temp_directory_path() / "natscale_gnuplot_bad.dat";
    DataSeries s;
    s.name = "bad";
    s.column_names = {"x", "y"};
    s.rows = {{1.0}};
    EXPECT_THROW(write_dat(path.string(), s), std::runtime_error);
    std::filesystem::remove(path);
}

TEST(Timer, MeasuresElapsedTime) {
    Stopwatch watch;
    EXPECT_GE(watch.elapsed_seconds(), 0.0);
    watch.reset();
    EXPECT_LT(watch.elapsed_seconds(), 1.0);
}

// The NATSCALE_FAULT grammar atomic_write_file honours: torn_write[:nth=N].
// Nothing else in this binary arms the hook, so its save ordinal starts at 0
// here (test_atomic_file.cpp covers the plain torn_write form).
TEST(AtomicFileFault, TearsFromTheNthSaveAndIgnoresOtherValues) {
    const auto path = std::filesystem::temp_directory_path() /
                      ("natscale_fault_" + std::to_string(::getpid()) + ".bin");
    const auto save = [&](const std::string& text) {
        atomic_write_file(path.string(), std::as_bytes(std::span(text)));
    };
    const auto content = [&] {
        std::ifstream in(path);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    for (const char* ignored : {"torn_write:nth=0", "torn_write:nth=", "torn_write:nth=2x",
                                "torn_writer", "crash_before_reply:nth=1"}) {
        ::setenv("NATSCALE_FAULT", ignored, 1);
        save(ignored);
        EXPECT_EQ(content(), ignored);
    }
    ::setenv("NATSCALE_FAULT", "torn_write:nth=2", 1);
    save("first armed save lands");
    EXPECT_EQ(content(), "first armed save lands");
    save("second is torn");
    save("and so is every later one");
    EXPECT_EQ(content(), "first armed save lands");
    ::unsetenv("NATSCALE_FAULT");

    for (const auto& entry : std::filesystem::directory_iterator(path.parent_path())) {
        if (entry.path().filename().string().rfind(path.filename().string(), 0) == 0) {
            std::filesystem::remove(entry.path());  // the target and torn temp files
        }
    }
}

}  // namespace
}  // namespace natscale
