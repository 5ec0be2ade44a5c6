// Benchmark executor: builds one workload and answers commands from
// perfbench/run.py, one per stdin line, each with one JSON line on stdout.
//
//   perfbench_exec --workload score|search|train --seed N
//
// Commands:
//   setup                                  rebuild the workload from scratch
//   phase NAME RATE SECONDS TRACED SEED    run one measured phase
//   layers                                 per-layer microbenchmarks
//   info                                   threads, traffic constants, kernel
//                                          backend, telemetry
//   quit
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "exec/common.h"
#include "nn/kernels/kernels.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_exec --workload score|search|train --seed N\n");
  return 2;
}

std::string Info(const Workload& workload) {
  Json threads;
  int total = 0;
  for (const auto& [name, count] : workload.Threads()) {
    threads.Int(name, count);
    total += count;
  }
  Json reply;
  reply.Raw("threads", threads.Done())
      .Int("threads_total", total)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Num("reference_rate", workload.ReferenceRate())
      .Num("latency_limit_ms", workload.LatencyLimitMs())
      .Str("kernel_backend", adamel::nn::kernels::Active().name)
      .Bool("telemetry", ADAMEL_TELEMETRY_ENABLED != 0)
      .Num("peak_rss_mb", PeakRssMb())
      .Num("cpu_s", CpuSeconds());
  return reply.Done();
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> workload;
  if (name == "score") {
    workload = MakeScoreWorkload(seed);
  } else if (name == "search") {
    workload = MakeSearchWorkload(seed);
  } else if (name == "train") {
    workload = MakeTrainWorkload(seed);
  }
  if (workload == nullptr || !have_seed) {
    return Usage();
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    std::string reply;
    if (command == "setup") {
      reply = workload->Setup();
    } else if (command == "phase") {
      PhaseArgs args;
      int traced = 0;
      in >> args.name >> args.rate >> args.seconds >> traced >> args.seed;
      if (!in || args.rate <= 0 || args.seconds <= 0) {
        std::fprintf(stderr, "bad phase command: %s\n", line.c_str());
        return 2;
      }
      args.traced = traced != 0;
      reply = workload->Phase(args);
    } else if (command == "layers") {
      reply = workload->Layers();
    } else if (command == "info") {
      reply = Info(*workload);
    } else if (command == "quit") {
      break;
    } else {
      std::fprintf(stderr, "unknown command: %s\n", line.c_str());
      return 2;
    }
    std::fwrite(reply.data(), 1, reply.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  return 0;
}
