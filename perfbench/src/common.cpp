#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>

#include "gendt/nn/simd.h"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double Samples::max() const { return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end()); }

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

uint64_t fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool bitwise_equal(const gendt::core::GeneratedSeries& a, const gendt::core::GeneratedSeries& b) {
  if (a.channels.size() != b.channels.size()) return false;
  for (size_t c = 0; c < a.channels.size(); ++c) {
    if (a.channels[c].size() != b.channels[c].size()) return false;
    if (std::memcmp(a.channels[c].data(), b.channels[c].data(),
                    a.channels[c].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

void Result::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::set_dist(const std::string& name, const Samples& s, double q,
                      const std::string& pname, const std::string& unit) {
  set(name + "_p50", s.median(), unit);
  set(name + "_" + pname, s.quantile(q), unit);
  note(name + ": " + std::to_string(s.size()) + " samples");
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

gendt::context::ContextConfig bench_context() {
  gendt::context::ContextConfig cfg;
  cfg.window_len = 50;
  cfg.train_step = 10;
  cfg.max_cells = 6;
  return cfg;
}

gendt::core::GenDTConfig bench_model_config(int num_channels, int threads) {
  gendt::core::GenDTConfig cfg;
  cfg.num_channels = num_channels;
  cfg.hidden = 48;
  cfg.parallelism = {.threads = threads};
  return cfg;
}

gendt::sim::DatasetScale bench_scale(uint64_t seed, double train_s, double test_s, int records) {
  gendt::sim::DatasetScale scale;
  scale.seed = seed;
  scale.train_duration_s = train_s;
  scale.test_duration_s = test_s;
  scale.records_per_scenario = records;
  return scale;
}

int kpi_index(const std::vector<gendt::sim::Kpi>& kpis, gendt::sim::Kpi k) {
  for (size_t i = 0; i < kpis.size(); ++i)
    if (kpis[i] == k) return static_cast<int>(i);
  return -1;
}

namespace {

// One LSTM-shaped step per iteration: gates = W [x; h] for 4H rows, then
// sigmoid/tanh and the cell update, H = X = 48 (the benchmark model's
// hidden size). Weights are 147 KB of doubles, so the kernel lives in L2.
// It is plain C++ compiled for the baseline ISA: on the host this was
// tuned on it tracked the program's run-to-run swings (see METRICS.md),
// where a version with AVX-512 matvecs tracked them worse.
constexpr int kProbeH = 48;
constexpr int kProbeCols = 2 * kProbeH;
constexpr int kProbeSteps = 400;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

Probe probe() {
  std::vector<double> w(static_cast<size_t>(4 * kProbeH * kProbeCols));
  for (size_t i = 0; i < w.size(); ++i) w[i] = 0.05 * std::sin(static_cast<double>(i));
  std::vector<double> in(kProbeCols, 0.1), gates(4 * kProbeH), c(kProbeH, 0.0);
  const double t0 = wall_s(), c0 = thread_cpu_s();
  for (int step = 0; step < kProbeSteps; ++step) {
    for (int r = 0; r < 4 * kProbeH; ++r) {
      const double* row = &w[static_cast<size_t>(r * kProbeCols)];
      double acc = 0.0;
      for (int k = 0; k < kProbeCols; ++k) acc += row[k] * in[static_cast<size_t>(k)];
      gates[static_cast<size_t>(r)] = acc;
    }
    for (int j = 0; j < kProbeH; ++j) {
      const auto g = [&](int block) { return gates[static_cast<size_t>(block * kProbeH + j)]; };
      const double i_g = 1.0 / (1.0 + std::exp(-g(0)));
      const double f_g = 1.0 / (1.0 + std::exp(-g(1)));
      const double o_g = 1.0 / (1.0 + std::exp(-g(3)));
      double& cj = c[static_cast<size_t>(j)];
      cj = f_g * cj + i_g * std::tanh(g(2));
      in[static_cast<size_t>(kProbeH + j)] = o_g * std::tanh(cj);
      in[static_cast<size_t>(j)] = std::sin(0.01 * step + 0.1 * j);
    }
  }
  const Probe p{1e3 * (wall_s() - t0), 1e3 * (thread_cpu_s() - c0)};
  // Keep the result observable so the loop cannot be dropped.
  static std::atomic<double> sink{0.0};
  sink.store(in[kProbeCols - 1], std::memory_order_relaxed);
  return p;
}

void record_setup(Result& res, const Samples& raw, const Samples& scaled) {
  res.set("setup_s", scaled.median(), "s");
  res.set("setup_s.raw", raw.median(), "s");
}

void PassRates::report(Result& res, const std::string& what) const {
  res.set("gen.kpi_samples_per_s", kpi_samples_per_s.median(), "1/s");
  res.set("gen.cpu_ms_per_window", cpu_ms_per_window.median(), "ms");
  res.set("gen.kpi_samples_per_s.raw", kpi_samples_per_s_raw.median(), "1/s");
  res.set("gen.cpu_ms_per_window.raw", cpu_ms_per_window_raw.median(), "ms");
  res.note(what + ": medians over " + std::to_string(kpi_samples_per_s.size()) + " passes");
}

void record_phase(Result& res, const std::string& phase, double wall, double cpu) {
  res.set("runtime.cpu_per_wall." + phase, wall > 0.0 ? cpu / wall : 0.0, "ratio");
}

void record_common_context(Result& res, const Options& opt, const gendt::core::GenDTConfig& mcfg,
                           const gendt::context::ContextConfig& ccfg) {
  res.ctx("workload", opt.workload);
  res.ctx("nproc", std::to_string(opt.nproc));
  res.ctx("simd_route", gendt::nn::simd::route_name(gendt::nn::simd::active_route()));
  res.ctx("build_type", PERFBENCH_BUILD_TYPE);
  res.ctx("compiler", PERFBENCH_COMPILER);
  res.ctx("model.hidden", std::to_string(mcfg.hidden));
  res.ctx("context.max_cells", std::to_string(ccfg.max_cells));
  res.ctx("context.window_len", std::to_string(ccfg.window_len));
  res.ctx("seconds", std::to_string(opt.seconds));
  res.ctx("trace", opt.trace ? "1" : "0");
}

}  // namespace perfbench
