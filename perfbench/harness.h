// Measurement helpers of the serving benchmark: percentiles and the tail
// rule, open-loop timing, update-round bookkeeping, in-memory spans,
// metric records, a private scratch directory and peak memory. Header-only
// and free of library dependencies, so perfbench_helpers_test checks them
// without building the program under test.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

// ---------------------------------------------------------------------------
// Percentiles.

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty input.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Median of the fastest (lowest) `share` of `v`, at least one value.
/// Repeated timings on a shared host are slowed by phases of other
/// tenants' load; the fastest share filters those phases out.
inline double FastestMedian(std::vector<double> v, double share) {
  std::sort(v.begin(), v.end());
  const double keep = std::ceil(share * static_cast<double>(v.size()));
  v.resize(std::min(v.size(), std::max<size_t>(1, static_cast<size_t>(keep))));
  return Median(std::move(v));
}

/// Median of the faster half of `v`, i.e. its lower quartile.
inline double FastHalfMedian(std::vector<double> v) {
  return FastestMedian(std::move(v), 0.5);
}

/// The blocks whose samples a run reports: blocks in ascending order of
/// their median sample, taken until at least `share` of the blocks and at
/// least `min_samples` samples are in (or every block is). Empty blocks
/// sort last.
inline std::vector<size_t> FastBlocks(
    const std::vector<std::vector<double>>& blocks, size_t min_samples,
    double share = 0.5) {
  std::vector<std::pair<double, size_t>> order;
  for (size_t b = 0; b < blocks.size(); ++b) {
    double key = blocks[b].empty() ? std::numeric_limits<double>::infinity()
                                   : Median(blocks[b]);
    order.push_back({key, b});
  }
  std::sort(order.begin(), order.end());
  std::vector<size_t> out;
  size_t samples = 0;
  for (const auto& [key, b] : order) {
    if (static_cast<double>(out.size()) >=
            share * static_cast<double>(blocks.size()) &&
        samples >= min_samples) {
      break;
    }
    out.push_back(b);
    samples += blocks[b].size();
  }
  return out;
}

/// Number of samples strictly above the nearest-rank p-th percentile's
/// position, i.e. n - ceil(p/100 * n).
inline size_t SamplesBeyond(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return n - std::min(n, static_cast<size_t>(rank));
}

/// The tail rule: the highest of p50/p90/p99/p99.9 that has at least ten
/// samples beyond it, or 0 when even p50 has fewer.
inline double TailPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

/// Geometric mean of positive values; 0 for an empty input or when any
/// value is not a positive finite number.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0) || !std::isfinite(x)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Open-loop timing.

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply arrived. Latency counts from the due time,
/// so a generator stall is charged to every request it delays.
struct OpenLoopSample {
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point replied;

  double latency_ms() const { return Ms(scheduled, replied); }
  double lag_ms() const { return Ms(scheduled, sent); }
};

/// Poisson arrival offsets (seconds from the start) at `rate` per second,
/// covering [0, duration).
inline std::vector<double> PoissonSchedule(double rate, double duration,
                                           uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> out;
  for (double t = gap(gen); t < duration; t += gap(gen)) out.push_back(t);
  return out;
}

// ---------------------------------------------------------------------------
// Update rounds.

struct Interval {
  Clock::time_point begin;
  Clock::time_point end;
};

/// Timed request blocks and the synchronous update rounds between them.
/// A round runs from the update call to the moment every replica serves
/// the new version; it must never overlap a timed block.
class RoundLog {
 public:
  void AddBlock(Interval block) { blocks_.push_back(block); }
  void AddRound(Interval round) { rounds_.push_back(round); }

  /// True when no round overlaps any block and every interval is ordered.
  bool Disjoint() const {
    for (const Interval& r : rounds_) {
      if (r.end < r.begin) return false;
      for (const Interval& b : blocks_) {
        if (b.end < b.begin) return false;
        if (r.begin < b.end && b.begin < r.end) return false;
      }
    }
    return true;
  }
  /// Median of the fastest quarter of the round durations, in
  /// milliseconds (0 without rounds).
  double FastRoundMs() const {
    std::vector<double> ms;
    for (const Interval& r : rounds_) ms.push_back(Ms(r.begin, r.end));
    return ms.empty() ? 0.0 : FastestMedian(ms, 0.25);
  }
  /// Total time inside timed blocks, in seconds.
  double BlockSeconds() const {
    double s = 0.0;
    for (const Interval& b : blocks_) s += Seconds(b.begin, b.end);
    return s;
  }
  size_t rounds() const { return rounds_.size(); }

 private:
  std::vector<Interval> blocks_;
  std::vector<Interval> rounds_;
};

// ---------------------------------------------------------------------------
// Spans.

/// In-memory span log: each span has a name, start, end, parent span and
/// the request id shared by the spans of one request. Written out once, at
/// the end of the run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = -1;
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit SpanLog(Clock::time_point origin = Clock::now()) : origin_(origin) {}

  /// Appends a finished span and returns its id.
  int64_t Add(std::string name, Clock::time_point begin, Clock::time_point end,
              int64_t parent = -1, int64_t request = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s{std::move(name), static_cast<int64_t>(spans_.size()), parent,
           request, begin, end};
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Reserves an id for a parent span whose end is not known yet.
  int64_t Open(std::string name, Clock::time_point begin, int64_t parent = -1,
               int64_t request = -1) {
    return Add(std::move(name), begin, begin, parent, request);
  }
  void Close(int64_t id, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(static_cast<size_t>(id)).end = end;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span in ms: its duration minus the union of its
  /// children's intervals (clipped to the parent).
  std::vector<double> SelfMs() const {
    std::vector<Span> all = spans();
    std::vector<std::vector<Interval>> kids(all.size());
    for (const Span& s : all) {
      if (s.parent >= 0 && static_cast<size_t>(s.parent) < all.size()) {
        kids[static_cast<size_t>(s.parent)].push_back({s.begin, s.end});
      }
    }
    std::vector<double> self(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      std::vector<Interval>& k = kids[i];
      std::sort(k.begin(), k.end(), [](const Interval& a, const Interval& b) {
        return a.begin < b.begin;
      });
      double covered = 0.0;
      Clock::time_point cursor = all[i].begin;
      for (const Interval& c : k) {
        Clock::time_point b = std::max(c.begin, cursor);
        Clock::time_point e = std::min(c.end, all[i].end);
        if (e > b) {
          covered += Ms(b, e);
          cursor = e;
        }
      }
      self[i] = Ms(all[i].begin, all[i].end) - covered;
    }
    return self;
  }

  /// One JSON object per line: name, id, parent, request, start/end in
  /// microseconds since the log's origin.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans()) {
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"start_us\": " << Ms(origin_, s.begin) * 1e3
          << ", \"end_us\": " << Ms(origin_, s.end) * 1e3 << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metrics.

/// Metric names: letters, digits, '_', '.', '-' (at least one).
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) map; rejects invalid names and
/// non-finite values at insertion.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!ValidMetricName(name)) {
      throw std::invalid_argument("invalid metric name: " + name);
    }
    if (!std::isfinite(value)) {
      throw std::invalid_argument("non-finite value for metric " + name);
    }
    metrics_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

  /// {"name": {"value": v, "unit": "u"}, ...} with full double precision.
  std::string ToJson() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}";
    return os.str();
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Process resources.

/// A directory unique to this process (pid plus a random suffix) under
/// `base`, removed with everything in it when the object is destroyed.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& base) {
    std::random_device rd;
    std::filesystem::create_directories(base);
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::ostringstream name;
      name << "run-" << ::getpid() << "-" << std::hex << rd();
      std::filesystem::path p = std::filesystem::path(base) / name.str();
      if (std::filesystem::create_directory(p)) {
        path_ = p.string();
        return;
      }
    }
    throw std::runtime_error("could not create a scratch directory in " + base);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Peak resident set size of this process, in MB.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Total bytes of the regular files directly under `dir`.
inline uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
