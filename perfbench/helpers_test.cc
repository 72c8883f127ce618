// Self-test of the benchmark's measurement helpers (harness.h). Runs
// without the program under test:
//
//   cmake --build .bench_build --target perfbench_helpers_test
//   .bench_build/perfbench_helpers_test
//
// or `python3 perfbench/run.py --selftest`. Exits non-zero on the first
// failed check.
#include <cmath>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

bool Near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

using perfbench::Clock;

void TestTailRule() {
  // The highest percentile with at least ten samples beyond it.
  Check(perfbench::TailPercentile(9) == 0.0, "9 samples: no percentile");
  Check(perfbench::TailPercentile(20) == 50.0, "20 samples: p50");
  Check(perfbench::TailPercentile(99) == 50.0, "99 samples: p50");
  Check(perfbench::TailPercentile(100) == 90.0, "100 samples: p90");
  Check(perfbench::TailPercentile(999) == 90.0, "999 samples: p90");
  Check(perfbench::TailPercentile(1000) == 99.0, "1000 samples: p99");
  Check(perfbench::TailPercentile(9999) == 99.0, "9999 samples: p99");
  Check(perfbench::TailPercentile(10000) == 99.9, "10000 samples: p99.9");
  Check(perfbench::SamplesBeyond(1000, 99) == 10, "10 beyond p99 of 1000");
  Check(perfbench::SamplesBeyond(999, 99) == 9, "9 beyond p99 of 999");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Check(perfbench::Percentile(v, 50) == 500, "p50 of 1..1000");
  Check(perfbench::Percentile(v, 99) == 990, "p99 of 1..1000");
  Check(perfbench::Percentile({}, 99) == 0.0, "percentile of nothing");
  Check(perfbench::Median({3, 1, 2}) == 2, "median of 3");
  Check(perfbench::FastHalfMedian({9, 1, 5, 3, 100}) == 3, "faster half of 5");
  Check(perfbench::FastHalfMedian({4, 2}) == 2, "faster half of 2");
  Check(perfbench::FastestMedian({9, 1, 5, 3, 100, 7, 2, 8}, 0.25) == 1,
        "fastest quarter of 8");
  Check(perfbench::FastestMedian({9, 1, 5}, 0.1) == 1, "at least one value");

  // Blocks: the faster half by median, widened until enough samples.
  std::vector<std::vector<double>> blocks = {
      {10, 11, 12}, {30, 31, 32}, {9, 10}, {50}, {}};
  std::vector<size_t> fast = perfbench::FastBlocks(blocks, 0);
  Check(fast == std::vector<size_t>({2, 0, 1}), "faster half of five blocks");
  fast = perfbench::FastBlocks(blocks, 9);
  Check(fast == std::vector<size_t>({2, 0, 1, 3}), "widened for samples");
  fast = perfbench::FastBlocks(blocks, 100);
  Check(fast.size() == blocks.size(), "every block when samples are short");
  fast = perfbench::FastBlocks(blocks, 0, 1.0 / 3.0);
  Check(fast == std::vector<size_t>({2, 0}), "faster third of five blocks");
  fast = perfbench::FastBlocks(blocks, 4, 1.0 / 3.0);
  Check(fast == std::vector<size_t>({2, 0}), "faster third holds 5 samples");
  fast = perfbench::FastBlocks(blocks, 6, 1.0 / 3.0);
  Check(fast == std::vector<size_t>({2, 0, 1}), "faster third widened");
}

void TestOpenLoop() {
  // A generator stall at request 1 makes it and request 2 late; both are
  // charged from their due times, so the stall shows in their latency.
  Clock::time_point t0 = Clock::now();
  auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  std::vector<perfbench::OpenLoopSample> s = {
      {at(0), at(0), at(2)},      // on time, 2 ms service.
      {at(10), at(25), at(27)},   // sent 15 ms late, 2 ms service.
      {at(20), at(27), at(29)},   // the stall carries over: 7 ms late.
      {at(30), at(30), at(32)},   // caught up.
  };
  Check(Near(s[0].latency_ms(), 2), "on-time latency");
  Check(Near(s[1].latency_ms(), 17), "late request counts its lateness");
  Check(Near(s[1].lag_ms(), 15), "generator lag");
  Check(Near(s[2].latency_ms(), 9), "lateness carried to the next request");
  Check(Near(s[3].lag_ms(), 0), "caught up");

  std::vector<double> a = perfbench::PoissonSchedule(400, 10, 7);
  std::vector<double> b = perfbench::PoissonSchedule(400, 10, 7);
  Check(a == b, "schedule repeats for a seed");
  Check(a.size() > 3600 && a.size() < 4400, "about rate x duration arrivals");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] >= a[i - 1];
  Check(sorted && !a.empty() && a.back() < 10, "arrivals ordered within the run");
  Check(perfbench::PoissonSchedule(400, 10, 8) != a, "another seed, another schedule");
}

void TestMetricNames() {
  Check(perfbench::ValidMetricName("latency_p99_ms"), "plain name");
  Check(perfbench::ValidMetricName("lite.tower_int8_ms"), "dotted name");
  Check(perfbench::ValidMetricName("trace.attributed-pct"), "dash");
  Check(!perfbench::ValidMetricName(""), "empty name");
  Check(!perfbench::ValidMetricName("a b"), "space");
  Check(!perfbench::ValidMetricName("p99/ms"), "slash");
  Check(!perfbench::ValidMetricName("é"), "non-ascii");
  Check(!perfbench::ValidMetricName(std::string(65, 'a')), "too long");
  perfbench::MetricSet m;
  bool threw = false;
  try {
    m.Set("bad name", 1.0, "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Check(threw, "MetricSet rejects an invalid name");
  threw = false;
  try {
    m.Set("nan_metric", std::nan(""), "ms");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Check(threw, "MetricSet rejects NaN");
  m.Set("x", 0.125, "s");
  Check(m.ToJson() == "{\"x\": {\"value\": 0.125, \"unit\": \"s\"}}", "JSON form");
}

void TestGeoMean() {
  Check(Near(perfbench::GeoMean({2, 8}), 4), "geomean of 2 and 8");
  Check(Near(perfbench::GeoMean({1.5}), 1.5), "geomean of one");
  Check(Near(perfbench::GeoMean({0.5, 2}), 1), "reciprocals cancel");
  Check(perfbench::GeoMean({}) == 0.0, "geomean of nothing");
  Check(perfbench::GeoMean({1, 0}) == 0.0, "zero is rejected");
  Check(perfbench::GeoMean({1, -2}) == 0.0, "negative is rejected");
}

void TestRoundBoundaries() {
  Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  perfbench::RoundLog log;
  log.AddBlock({at(0), at(100)});
  log.AddRound({at(100), at(130)});  // touches the block end: allowed.
  log.AddBlock({at(130), at(230)});
  log.AddRound({at(240), at(290)});
  log.AddBlock({at(300), at(400)});
  Check(log.Disjoint(), "rounds between blocks");
  Check(Near(log.FastRoundMs(), 30, 1e-6), "faster of two rounds");
  Check(Near(log.BlockSeconds(), 0.3, 1e-9), "block time");
  Check(log.rounds() == 2, "round count");

  perfbench::RoundLog overlap;
  overlap.AddBlock({at(0), at(100)});
  overlap.AddRound({at(90), at(120)});
  Check(!overlap.Disjoint(), "a round inside a block is rejected");

  perfbench::RoundLog five;
  five.AddRound({at(0), at(10)});
  five.AddRound({at(20), at(50)});
  five.AddRound({at(60), at(80)});
  five.AddRound({at(90), at(190)});  // a round slowed by a burst.
  five.AddRound({at(200), at(215)});
  Check(Near(five.FastRoundMs(), 10, 1e-6),
        "median of the fastest two of five rounds");
}

void TestSpansAndScratch() {
  Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  perfbench::SpanLog log(t0);
  int64_t root = log.Open("request", at(0), -1, 7);
  log.Add("a", at(1), at(4), root, 7);
  log.Add("b", at(3), at(6), root, 7);  // overlaps a: covered once.
  log.Close(root, at(10));
  std::vector<double> self = log.SelfMs();
  Check(Near(self[0], 5, 1e-6), "root self time excludes the children's union");
  Check(Near(self[1], 3, 1e-6) && Near(self[2], 3, 1e-6), "leaf self time");

  std::string path;
  {
    perfbench::ScopedTempDir a("perfbench_selftest_tmp");
    perfbench::ScopedTempDir b("perfbench_selftest_tmp");
    path = a.path();
    Check(a.path() != b.path(), "scratch directories are unique");
    Check(std::filesystem::is_directory(a.path()), "scratch directory exists");
    std::ofstream(a.path() + "/f") << "x";
  }
  Check(!std::filesystem::exists(path), "scratch directory removed");
  std::filesystem::remove_all("perfbench_selftest_tmp");
}

}  // namespace

int main() {
  TestTailRule();
  TestOpenLoop();
  TestMetricNames();
  TestGeoMean();
  TestRoundBoundaries();
  TestSpansAndScratch();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench helpers: all checks passed\n";
  return 0;
}
