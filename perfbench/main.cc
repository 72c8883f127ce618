// lite_perfbench: runs one workload of the serving benchmark and prints a
// report followed by one JSON result line.
//
//   lite_perfbench --workload pool1k|mixed_open|staged|update_plane
//                  --seed N --seconds S --trace 0|1
//                  [--scratch DIR] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run,
// which reports the per-layer metrics and writes its spans to --trace-out.
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line then says "correct": false), 2 on a usage or run error
// (no result line).
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) {
      std::cerr << "usage: lite_perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--scratch DIR] [--trace-out FILE]\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  }

  perfbench::SpanLog spans;
  perfbench::Outcome out;
  try {
    out = perfbench::RunWorkload(args, &spans);
  } catch (const std::exception& e) {
    std::cerr << "lite_perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }
  if (args.trace && !args.trace_out.empty() &&
      !spans.WriteJsonLines(args.trace_out)) {
    std::cerr << "lite_perfbench: could not write spans to " << args.trace_out
              << "\n";
  }

  const perfbench::MetricSet& metrics = args.trace ? out.layers : out.end_to_end;
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << (args.trace ? " (traced)" : "")
            << "\n";
  for (const auto& [name, count] : out.counts) {
    std::cout << "  " << std::left << std::setw(40) << name << count << "\n";
  }
  for (const auto& [name, m] : metrics.all()) {
    std::cout << "  " << std::left << std::setw(40) << name << std::setw(16)
              << m.value << m.unit << "\n";
  }
  for (const std::string& e : out.errors) std::cout << "  CHECK FAILED: " << e << "\n";
  std::cout << "{\"correct\": " << (out.errors.empty() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics.ToJson() << "}" << std::endl;
  return out.errors.empty() ? 0 : 1;
}
