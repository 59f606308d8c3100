// gendt_perfbench: runs one benchmark workload in-process against the gendt
// libraries and prints one JSON object with every figure it measured.
//
//   gendt_perfbench --workload campaign|covermap|mixed_serve --seed N
//                   --seconds S --trace 0|1 --out-dir DIR
//
// --trace 1 records spans around the benchmark's calls into each layer and
// writes them to DIR/trace_<workload>_<seed>.json; end-to-end figures are
// only meaningful from --trace 0 runs. perfbench/run.py drives this program.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "instrument.h"
#include "trace.h"

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"digest\": " + json_str(r.digest);
  out += ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) out += (i ? ", " : "") + json_str(r.errors[i]);
  out += "], \"notes\": [";
  for (size_t i = 0; i < r.notes.size(); ++i) out += (i ? ", " : "") + json_str(r.notes[i]);
  out += "], \"context\": {";
  for (size_t i = 0; i < r.context.size(); ++i)
    out += (i ? ", " : "") + json_str(r.context[i].first) + ": " + json_str(r.context[i].second);
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i)
    out += (i ? ", " : "") + json_str(r.metrics[i].name) + ": {\"value\": " +
           json_num(r.metrics[i].value) + ", \"unit\": " + json_str(r.metrics[i].unit) + "}";
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: gendt_perfbench --workload campaign|covermap|mixed_serve --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = val == "1";
      else if (key == "--out-dir") opt.out_dir = val;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.out_dir.empty() || !(opt.seconds > 0))
    return usage();

  // Timings from a Debug (or any assert-enabled) build say nothing about the
  // program.
#ifndef NDEBUG
  std::fprintf(stderr, "error: gendt_perfbench refuses to run from a build without NDEBUG "
                       "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  opt.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (opt.nproc < 1) opt.nproc = 1;
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", opt.out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  Tracer::instance().set_enabled(opt.trace);

  Result res;
  try {
    if (opt.workload == "campaign") res = run_campaign(opt);
    else if (opt.workload == "covermap") res = run_covermap(opt);
    else if (opt.workload == "mixed_serve") res = run_mixed_serve(opt);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: workload %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  Tracer::instance().set_enabled(false);

  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_share =
      res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                        : 1.0;
  res.set("failed_share", failed_share, "ratio");
  res.set("ok_share", 1.0 - failed_share, "ratio");
  if (opt.trace)
    report_trace(res, opt.out_dir + "/trace_" + opt.workload + "_" + std::to_string(opt.seed) +
                          ".json");
  print_result(res);
  return 0;
}
