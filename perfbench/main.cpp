// perfbench: the end-to-end benchmark program. run.py builds it and
// runs it as
//   perfbench --workload <capture|recall|fleet> --seed <n> --seconds <s>
//             --trace <0|1> --dir <scratch dir> [--trace-out <file>]
// It prints its result as the last line of standard output.
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload capture|recall|fleet --seed N "
               "--seconds S --trace 0|1 --dir DIR [--trace-out FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Compression stays at its default (off) whatever the calling shell
  // set; the engine reads this variable when options are built.
  unsetenv("BP_COMPRESSION");

  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage();
    }
  }
  if (args.dir.empty() || args.seconds <= 0) Usage();

  perfbench::RemoveTree(args.dir);
  perfbench::MakeDir(args.dir);
  perfbench::Run run(args);
  if (args.workload == "capture") {
    perfbench::RunCapture(run);
  } else if (args.workload == "recall") {
    perfbench::RunRecall(run);
  } else if (args.workload == "fleet") {
    perfbench::RunFleet(run);
  } else {
    Usage();
  }
  perfbench::RemoveTree(args.dir);
  run.report.Set("peak_rss_mib", perfbench::PeakRssMib(), "MiB");
  if (args.trace && !args.trace_out.empty()) {
    const size_t spans = run.tracer.WriteJsonLines(args.trace_out);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans,
                 args.trace_out.c_str());
  }
  std::printf("%s\n", run.report.Json(args.trace).c_str());
  return 0;
}
