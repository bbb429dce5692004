// perfbench: one serving benchmark over the library's public entry points.
//
//   perfbench --workload <paper_trace|sharded_reuse|tcp_flood> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints every metric with its unit, the attempted/failed operation
// counts, and as its last line one JSON object with the same content.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_trace|sharded_reuse|"
               "tcp_flood> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds <= 0.0)
    return usage();
  return perfbench::run(opt);
}
