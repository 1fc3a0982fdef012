// Repo benchmark entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-dir <dir>] [--source <id>]
//             [--build-type <t>]
// Prints human-readable "# ..." lines, then one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}; exits 0
// whenever that line was printed. An
// untraced run reports the end-to-end metrics, a traced run the
// per-layer ones (perfbench/README.md defines both).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, perfbench::Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--work-dir") {
      opt.work_dir = v;
    } else if (k == "--trace-dir") {
      opt.trace_dir = v;
    } else if (k == "--source") {
      opt.source_id = v;
    } else if (k == "--build-type") {
      opt.build_type = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload offline_fp32|offline_int8|serve_chat "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const bool offline = opt.workload == "offline_fp32" || opt.workload == "offline_int8";
  const bool serving = opt.workload == "serve_chat";
  if (!offline && !serving) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // Each run gets its own scratch directory (sockets, journals,
  // checkpoints), removed when the run ends.
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  std::filesystem::create_directories(opt.trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opt.work_dir.c_str());
    return 2;
  }

  perfbench::print_metadata(opt, serving ? 2 : 0);
  perfbench::Report rep;
  if (offline) {
    perfbench::run_offline(opt, opt.workload == "offline_int8", rep);
  } else {
    perfbench::run_serving(opt, rep);
  }
  if (!opt.trace) rep.set("peak_rss_mb", perfbench::peak_rss_mb());
  std::filesystem::remove_all(opt.work_dir, ec);
  // A printed result (correct or not) is a completed run: exit 0 and let
  // "correct" carry the verdict.
  if (opt.trace) {
    rep.print_result(perfbench::per_layer_metrics(), true);
  } else {
    rep.print_result(perfbench::end_to_end_metrics(), false);
  }
  return 0;
}
