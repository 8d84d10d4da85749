// calcbench_harness: one benchmark run of one workload in a fresh process.
//
//   calcbench_harness --workload=micro_ckpt --seed=1 --seconds=10 --trace=0
//       --work_dir=DIR --out=result.json [--trace_out=trace.json]
//       [--setup_only=1] [--tamper=1] <workload parameters>
//
// The workload parameters come from calcbench/config.json; calcbench/run.py
// passes them and turns the result file into the benchmark's output line.
// Exit code: 0 correct, 1 the correctness check failed, 2 bad invocation.

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "bench.h"

using namespace calcbench;

namespace {

// The layers' span names, reported as self times in the traced run.
const char* const kSpanNames[] = {
    "db.open",       "storage.load",     "db.start",    "workload.next",
    "txn.execute",   "ckpt.cycle",       "recovery.recover", "db.shutdown",
    "bench.worker",
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string workload = flags.Str("workload");
  uint64_t seed = static_cast<uint64_t>(flags.Int("seed"));
  double seconds = flags.Double("seconds");
  bool trace = flags.Int("trace") != 0;
  std::string work_dir = flags.Str("work_dir");
  std::string out = flags.Str("out");
  bool setup_only = flags.Has("setup_only") && flags.Int("setup_only") != 0;
  bool tamper = flags.Has("tamper") && flags.Int("tamper") != 0;
  if (!flags.missing().empty()) {
    for (const std::string& m : flags.missing()) {
      std::fprintf(stderr, "calcbench_harness: missing --%s\n", m.c_str());
    }
    return 2;
  }
  void (*run)(RunContext&) = nullptr;
  if (workload == "micro_ckpt") run = RunMicroCkpt;
  if (workload == "tpcc_open") run = RunTpccOpen;
  if (workload == "recover_replay") run = RunRecoverReplay;
  if (run == nullptr) {
    std::fprintf(stderr, "calcbench_harness: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "calcbench_harness: cannot create %s\n", work_dir.c_str());
    return 2;
  }

  Tracer tracer(trace, SplitMix(seed ^ static_cast<uint64_t>(NowNs())));
  Report report;
  RunContext ctx{&flags, &tracer, &report, seed, seconds, setup_only,
                 tamper, work_dir, 0};
  {
    ScopedSpan root(&tracer, "bench.run", 0);
    ctx.root_span = root.id();
    run(ctx);
  }
  std::filesystem::remove_all(work_dir, ec);
  if (!flags.missing().empty()) {
    for (const std::string& m : flags.missing()) {
      std::fprintf(stderr, "calcbench_harness: missing --%s\n", m.c_str());
    }
    return 2;
  }

  char run_id[32];
  std::snprintf(run_id, sizeof(run_id), "%016" PRIx64, tracer.run_id());
  report.Stamp("workload", workload);
  report.Stamp("seed", std::to_string(seed));
  report.Stamp("run_id", run_id);
  if (tracer.enabled()) {
    std::map<std::string, double> self = tracer.SelfMillis();
    for (const char* name : kSpanNames) {
      report.Add(std::string("trace.self_ms.") + name, self[name], "ms");
    }
    report.Add("trace.spans", static_cast<double>(tracer.SpanCount()), "count");
    std::string trace_out = flags.Has("trace_out") ? flags.Str("trace_out") : "";
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      report.Fail("cannot write trace " + trace_out);
    }
  }
  if (!report.WriteJson(out)) {
    std::fprintf(stderr, "calcbench_harness: cannot write %s\n", out.c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}
