// Tests for the parallel sweep runner: determinism across --jobs and
// in-sweep-order row reporting.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sweep.hpp"

namespace cbps::bench {
namespace {

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.sys.nodes = 32;
  cfg.sys.chord.ring = RingParams{10};
  cfg.sys.seed = seed;
  cfg.sys.mapping = pubsub::MappingKind::kSelectiveAttribute;
  cfg.driver.max_subscriptions = 30;
  cfg.driver.max_publications = 30;
  cfg.verify = true;
  return cfg;
}

std::vector<std::vector<std::pair<std::string, double>>> run_with_jobs(
    std::size_t jobs) {
  Sweep<> sweep("sweep_test");
  SweepOptions opts;
  opts.jobs = jobs;
  sweep.set_options(opts);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sweep.add("seed=" + std::to_string(seed), small_config(seed));
  }
  std::vector<std::vector<std::pair<std::string, double>>> rows;
  for (const ExperimentResult& r : sweep.run()) {
    EXPECT_TRUE(r.verified);
    auto fields = json_fields(r);
    fields.emplace_back("sim_events", static_cast<double>(r.sim_events));
    rows.push_back(std::move(fields));
  }
  return rows;
}

TEST(SweepTest, ParallelSmoke) {
  // The TSan preset runs this too: five simulations across eight
  // workers must be race-free.
  const auto rows = run_with_jobs(8);
  EXPECT_EQ(rows.size(), 5u);
}

TEST(SweepTest, JobsDoNotChangeResults) {
  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    for (std::size_t f = 0; f < serial[i].size(); ++f) {
      EXPECT_EQ(serial[i][f].first, parallel[i][f].first);
      // Bit-identical, not merely approximately equal.
      EXPECT_EQ(serial[i][f].second, parallel[i][f].second)
          << "point " << i << " field " << serial[i][f].first;
    }
  }
}

struct SlowRow {
  std::size_t index = 0;
};

JsonFields json_fields(const SlowRow& r) {
  return {{"index", static_cast<double>(r.index)}};
}

TEST(SweepTest, RowsReportInSweepOrderEvenWhenLaterPointsFinishFirst) {
  Sweep<SlowRow> sweep("sweep_order_test");
  SweepOptions opts;
  opts.jobs = 4;
  sweep.set_options(opts);
  // Earlier points sleep longer, so completion order is roughly the
  // reverse of sweep order.
  for (std::size_t i = 0; i < 8; ++i) {
    sweep.add("p" + std::to_string(i), [i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * (8 - i)));
      return SlowRow{i};
    });
  }
  std::vector<std::size_t> reported;
  sweep.run([&](std::size_t i, const SlowRow& r) {
    EXPECT_EQ(i, r.index);
    reported.push_back(i);
  });
  ASSERT_EQ(reported.size(), 8u);
  for (std::size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(reported[i], i);
  }
}

TEST(SweepTest, BodyExceptionPropagatesFromRun) {
  Sweep<SlowRow> sweep("sweep_throw_test");
  SweepOptions opts;
  opts.jobs = 2;
  sweep.set_options(opts);
  sweep.add("ok", [] { return SlowRow{0}; });
  sweep.add("bad", []() -> SlowRow { throw std::runtime_error("boom"); });
  EXPECT_THROW(sweep.run(), std::runtime_error);
}

TEST(SweepTest, WritesJsonRecord) {
  const std::string path = ::testing::TempDir() + "/sweep_test.json";
  Sweep<SlowRow> sweep("sweep_json_test");
  SweepOptions opts;
  opts.jobs = 1;
  opts.json_path = path;
  sweep.set_options(opts);
  sweep.add("a", [] { return SlowRow{0}; });
  sweep.add("b", [] { return SlowRow{1}; });
  sweep.run();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"bench\": \"sweep_json_test\""), std::string::npos);
  EXPECT_NE(text.find("\"label\": \"a\""), std::string::npos);
  EXPECT_NE(text.find("\"label\": \"b\""), std::string::npos);
  EXPECT_NE(text.find("\"index\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_s\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cbps::bench
