// Shared pieces of the benchmark program: clocks, sample statistics, the
// result record every workload fills, and the model/context shapes all
// three workloads run at.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gendt/context/context.h"
#include "gendt/core/model.h"
#include "gendt/sim/dataset.h"

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
double wall_s();
/// CPU seconds (user + sys) of the whole process, every thread included.
double process_cpu_s();
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// A timing sample set. Percentiles interpolate linearly between ranks.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  /// q in [0, 1]; 0 for an empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double max() const;
  double sum() const;

 private:
  std::vector<double> v_;
};

/// FNV-1a over raw bytes, chainable through `h`.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
uint64_t fnv1a(const void* data, size_t n, uint64_t h = kFnvBasis);
bool bitwise_equal(const gendt::core::GeneratedSeries& a, const gendt::core::GeneratedSeries& b);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch directory for CSVs, sockets and traces
  int nproc = 1;
};

/// Everything one workload run reports. `metrics` holds every figure the
/// run measured (end-to-end and per-layer); the caller selects by name.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::string> notes;
  std::string digest;  ///< digest of the run's output, for cross-run checks

  void set(const std::string& name, double value, const std::string& unit);
  /// Record a timing distribution as <name>_p50 and <name>_<pname> plus the
  /// sample count as a note.
  void set_dist(const std::string& name, const Samples& s, double q, const std::string& pname,
                const std::string& unit);
  void fail(const std::string& why);
  void note(const std::string& text) { notes.push_back(text); }
  void ctx(const std::string& key, const std::string& value) { context.emplace_back(key, value); }
};

/// The context shapes of `gendt train/generate` (L = 50, Δt = 10, 6 cells).
gendt::context::ContextConfig bench_context();
/// The CLI's model shape (H = 48) for `num_channels` KPIs.
gendt::core::GenDTConfig bench_model_config(int num_channels, int threads);
/// Dataset A at the benchmark's scale: `records` trajectories per scenario.
gendt::sim::DatasetScale bench_scale(uint64_t seed, double train_s, double test_s, int records);

/// Index of `k` in `kpis`, or -1.
int kpi_index(const std::vector<gendt::sim::Kpi>& kpis, gendt::sim::Kpi k);

/// Host-speed probe. On a shared host the same code runs for minutes at a
/// time up to ~40% slower while other tenants are busy (lower clock, shared
/// caches), in CPU time as much as in wall time, so no statistic over one
/// run removes it. The probe runs a fixed reference kernel of the
/// benchmark's own (LSTM-shaped double matvecs with tanh/sigmoid gates, none
/// of it the program's code) on the calling thread and returns its wall and
/// CPU time in ms. Gated timings are scaled by kProbeNominalMs / (probe
/// time right before and after the work they time), wall times by the
/// probe's wall time and CPU times by its CPU time: a slower program moves
/// them, a slower host does not.
struct Probe {
  double wall_ms = 0.0, cpu_ms = 0.0;
};
Probe probe();
/// Unit of the scaled timings: the probe's time on an uncontended 4-vCPU
/// 2.1 GHz Xeon host, where scaled and raw figures read about the same.
inline constexpr double kProbeNominalMs = 3.0;
/// Factors that turn wall and CPU durations timed between two probes into
/// nominal-host time.
struct HostScale {
  double wall = 1.0, cpu = 1.0;
};
inline HostScale host_scale(const Probe& before, const Probe& after) {
  return {2.0 * kProbeNominalMs / (before.wall_ms + after.wall_ms),
          2.0 * kProbeNominalMs / (before.cpu_ms + after.cpu_ms)};
}

/// Set up `reps` times and keep the last result. Each repetition builds
/// everything from scratch between two host probes; earlier
/// copies are destroyed before the next starts so peak memory reflects one.
/// `raw` gets the set-up times, `scaled` the host-scaled ones.
template <typename T, typename Fn>
T repeat_setup(int reps, Samples& raw, Samples& scaled, Fn&& build) {
  Probe before = probe();
  for (int r = 0;; ++r) {
    const double t0 = wall_s();
    T value = build();
    const double dt = wall_s() - t0;
    const Probe next = probe();
    raw.add(dt);
    scaled.add(dt * host_scale(before, next).wall);
    before = next;
    if (r + 1 >= reps) return value;
  }
}

/// Set setup_s (host-scaled median) and setup_s.raw.
void record_setup(Result& res, const Samples& raw, const Samples& scaled);

/// Throughput of a timed phase made of repeated passes over the same inputs.
/// Each complete pass adds its own rates, raw and host-scaled by the pass's
/// `scale`, and the run reports their medians, so a burst of CPU contention
/// from outside the process moves one pass rather than the run's figure.
struct PassRates {
  Samples kpi_samples_per_s, kpi_samples_per_s_raw;
  Samples cpu_ms_per_window, cpu_ms_per_window_raw;
  void add(double wall, double cpu, double samples, double windows, const HostScale& scale) {
    kpi_samples_per_s_raw.add(samples / wall);
    cpu_ms_per_window_raw.add(1e3 * cpu / windows);
    kpi_samples_per_s.add(samples / (wall * scale.wall));
    cpu_ms_per_window.add(1e3 * cpu * scale.cpu / windows);
  }
  void report(Result& res, const std::string& note) const;
};

/// Record the process CPU / wall ratio of a timed phase and the standard
/// run-context fields every workload shares.
void record_phase(Result& res, const std::string& phase, double wall, double cpu);
void record_common_context(Result& res, const Options& opt, const gendt::core::GenDTConfig& mcfg,
                           const gendt::context::ContextConfig& ccfg);

/// Per-workload entry points (campaign.cpp, covermap.cpp, mixed_serve.cpp).
Result run_campaign(const Options& opt);
Result run_covermap(const Options& opt);
Result run_mixed_serve(const Options& opt);

}  // namespace perfbench
