// Workload `campaign`: simulate a Dataset A walk/bus/tram campaign, train
// GenDT on the train split for a fixed number of epochs, then generate every
// held-out test trajectory one GenDTGenerator::generate call at a time — the
// `gendt generate` flow: build the trajectory's windows, roll them out, write
// the series CSV — and score it against the simulator's ground truth.
//
// Why: long autoregressive window chains on one lane with one G^n rollout
// per visible cell, plus the only use of the autograd graph and optimiser.
// The lane-batched GEMM path does almost no work here.
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>

#include "common.h"
#include "gendt/io/csv.h"
#include "gendt/metrics/metrics.h"
#include "gendt/nn/simd.h"
#include "gendt/runtime/thread_pool.h"
#include "gendt/sim/roads.h"
#include "instrument.h"
#include "trace.h"

namespace perfbench {

namespace gc = gendt::context;
namespace gcore = gendt::core;
namespace gsim = gendt::sim;

namespace {

// Scale: two 200 s training drives per scenario, each cut to its first 200
// points (96 training windows); held-out test drives are the dataset's own
// 400 s drive per scenario plus two more over the same world, each cut to
// its first 400 points: one run averages over 9 routes of 8-window chains.
// Bus and tram drives sample denser than 1 Hz, so the cuts are what keep
// the work (and memory) of a run the same for every seed.
constexpr double kTrainS = 200.0;
constexpr size_t kTrainPoints = 200;
constexpr double kTestS = 400.0;
constexpr size_t kTestPoints = 400;
constexpr int kRecords = 2;
constexpr int kExtraTestPerScenario = 2;
constexpr int kEpochs = 3;
// Generation rolls the per-cell G^n out serially. Fanned out over nproc
// threads, each timestep is a fork-join of a few microseconds of work per
// cell, and on a shared host that made this workload's throughput swing by
// up to a quarter of its median between runs; training keeps nproc threads.
constexpr int kGenerateThreads = 1;
constexpr int kSetupReps = 3;

struct Setup {
  gsim::Dataset ds;
  gc::KpiNorm norm;
  std::unique_ptr<gc::ContextBuilder> builder;
  std::vector<gc::Window> train_windows;
  std::unique_ptr<gcore::GenDTGenerator> gen;
  double dataset_s = 0.0;
};

// The first `n` samples of a drive.
gsim::DriveTestRecord truncated(gsim::DriveTestRecord rec, size_t n) {
  if (rec.samples.size() <= n) return rec;
  rec.samples.resize(n);
  const auto pts = rec.trajectory.points();
  rec.trajectory = gendt::geo::Trajectory(
      std::vector<gendt::geo::TrajectoryPoint>(pts.begin(), pts.begin() + static_cast<long>(n)));
  return rec;
}

std::unique_ptr<Setup> build_setup(const Options& opt) {
  auto s = std::make_unique<Setup>();
  {
    Span span("sim.make_dataset_a");
    const double t0 = wall_s();
    s->ds = gsim::make_dataset_a(bench_scale(opt.seed, kTrainS, kTestS, kRecords));
    const gsim::RoadNetwork roads(s->ds.world.region);
    const gsim::DriveTestSimulator sim(s->ds.world, s->ds.sim_config);
    std::mt19937_64 rng(gendt::runtime::derive_stream_seed(opt.seed, 2));
    const std::vector<gsim::DriveTestRecord> own = s->ds.test;
    for (int k = 0; k < kExtraTestPerScenario; ++k) {
      for (const gsim::DriveTestRecord& rec : own) {
        const gendt::geo::Trajectory tr =
            gsim::scenario_trajectory(s->ds.world.region, roads, rec.scenario, kTestS, rng);
        s->ds.test.push_back(sim.run(tr, rec.scenario, rng()));
      }
    }
    for (auto& rec : s->ds.train) rec = truncated(std::move(rec), kTrainPoints);
    for (auto& rec : s->ds.test) rec = truncated(std::move(rec), kTestPoints);
    s->dataset_s = wall_s() - t0;
  }
  {
    Span span("context.fit_kpi_norm");
    s->norm = gc::fit_kpi_norm(s->ds.train, s->ds.kpis);
  }
  s->builder = std::make_unique<gc::ContextBuilder>(s->ds.world, bench_context(), s->norm,
                                                    s->ds.kpis);
  for (const auto& rec : s->ds.train) {
    Span span("context.training_windows");
    auto w = s->builder->training_windows(rec);
    s->train_windows.insert(s->train_windows.end(), w.begin(), w.end());
  }
  s->gen = std::make_unique<gcore::GenDTGenerator>(
      bench_model_config(static_cast<int>(s->ds.kpis.size()), kGenerateThreads), gcore::TrainConfig{},
      s->norm);
  s->gen->set_kpis(s->ds.kpis);
  // Lazy state (the session pool and its workspaces) is built here, on the
  // initial weights: sessions read the weights live, so training later does
  // not invalidate them.
  s->gen->prewarm(1);
  (void)s->gen->generate(s->builder->generation_windows(s->ds.test.front().trajectory), 0);
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

}  // namespace

Result run_campaign(const Options& opt) {
  Result res;
  Samples setup_times, setup_scaled;
  std::unique_ptr<Setup> s = repeat_setup<std::unique_ptr<Setup>>(
      kSetupReps, setup_times, setup_scaled, [&] { return build_setup(opt); });
  const gcore::GenDTConfig& mcfg = s->gen->model().config();
  record_common_context(res, opt, mcfg, s->builder->config());
  res.ctx("threads.train", std::to_string(opt.nproc));
  res.ctx("threads.generate", std::to_string(kGenerateThreads));
  res.ctx("train.epochs", std::to_string(kEpochs));
  res.note("campaign: " + std::to_string(s->train_windows.size()) + " training windows");
  record_setup(res, setup_times, setup_scaled);
  res.set("sim.dataset_s", s->dataset_s, "s");

  // ---- training (timed) ----
  {
    Span span("core.train_gendt");
    const double t0 = wall_s(), c0 = process_cpu_s();
    gcore::TrainConfig tcfg;
    tcfg.epochs = kEpochs;
    tcfg.seed = gendt::runtime::derive_stream_seed(opt.seed, 1);
    tcfg.parallelism = {.threads = opt.nproc};
    const gcore::TrainStats st = gcore::train_gendt(s->gen->model(), s->train_windows, tcfg);
    const double wall = wall_s() - t0;
    record_phase(res, "train", wall, process_cpu_s() - c0);
    if (!st.error.empty()) res.fail("training refused: " + st.error);
    res.set("train.s_per_epoch", wall / kEpochs, "s");
    res.set("core.train.windows_per_s",
            static_cast<double>(s->train_windows.size()) * kEpochs / wall, "1/s");
  }

  // ---- generation (timed): every test trajectory, pass after pass ----
  std::vector<std::string> names;
  for (auto k : s->ds.kpis) names.emplace_back(gsim::kpi_name(k));
  const size_t n_test = s->ds.test.size();
  std::vector<gcore::GeneratedSeries> first(n_test);
  std::vector<uint64_t> csv_digest(n_test, 0);
  std::vector<std::string> paths(n_test);
  for (size_t i = 0; i < n_test; ++i)
    paths[i] = opt.out_dir + "/campaign_" + std::to_string(i) + ".csv";

  RolloutMeter meter(s->gen->model());
  Samples op_ms, pass_ms, pass_ms_raw, ctx_s, csv_ms, probes;
  double phase_wall = 0.0, phase_cpu = 0.0, csv_bytes = 0.0;
  uint64_t ctx_windows = 0;
  PassRates rates;
  Probe before = probe();
  probes.add(before.wall_ms);
  const double deadline = wall_s() + opt.seconds;
  for (int pass = 0; pass == 0 || wall_s() < deadline; ++pass) {
    double pass_wall = 0.0, pass_cpu = 0.0, pass_samples = 0.0, pass_windows = 0.0;
    size_t i = 0;
    for (; i < n_test && (pass == 0 || wall_s() < deadline); ++i) {
      const gsim::DriveTestRecord& rec = s->ds.test[i];
      const uint64_t gen_seed = gendt::runtime::derive_stream_seed(opt.seed, 100 + i);
      ++res.attempted;
      gcore::GeneratedSeries series;
      bool wrote = false;
      const double t0 = wall_s(), c0 = process_cpu_s();
      {
        Span op("bench.campaign_op", i + 1);
        std::vector<gc::Window> w;
        {
          Span span("context.generation_windows", i + 1);
          const double a = wall_s();
          w = s->builder->generation_windows(rec.trajectory);
          ctx_s.add(wall_s() - a);
        }
        {
          Span span("core.generate", i + 1);
          const double a = wall_s();
          series = s->gen->generate(w, gen_seed);
          meter.add_call(w, wall_s() - a);
        }
        {
          Span span("io.write_series_csv", i + 1);
          const double a = wall_s();
          const double period =
              rec.trajectory.size() > 1 ? rec.trajectory[1].t - rec.trajectory[0].t : 1.0;
          wrote = gendt::io::write_series_csv(series, names, paths[i], rec.trajectory.front().t,
                                              period);
          csv_ms.add(1e3 * (wall_s() - a));
        }
        pass_windows += static_cast<double>(w.size());
        ctx_windows += w.size();
      }
      const double dt = wall_s() - t0;
      pass_wall += dt;
      pass_cpu += process_cpu_s() - c0;
      op_ms.add(1e3 * dt);
      pass_samples += static_cast<double>(series.length());

      // Untimed checks: the CSV bytes of every pass match the first pass.
      const std::string bytes = read_file(paths[i]);
      const uint64_t d = fnv1a(bytes.data(), bytes.size());
      csv_bytes += static_cast<double>(bytes.size());
      if (pass == 0) {
        csv_digest[i] = d;
        first[i] = series;
      }
      if (!wrote || bytes.empty() || d != csv_digest[i] || !bitwise_equal(series, first[i])) {
        ++res.failed;
        res.fail("campaign: trajectory " + std::to_string(i) + " pass " + std::to_string(pass) +
                 " differs from pass 0 or failed to write");
      }
    }
    phase_wall += pass_wall;
    phase_cpu += pass_cpu;
    if (i == n_test) {
      const Probe next = probe();
      probes.add(next.wall_ms);
      const HostScale scale = host_scale(before, next);
      before = next;
      rates.add(pass_wall, pass_cpu, pass_samples, pass_windows, scale);
      pass_ms.add(1e3 * pass_wall * scale.wall);
      pass_ms_raw.add(1e3 * pass_wall);
    }
  }
  record_phase(res, "gen", phase_wall, phase_cpu);
  rates.report(res, "campaign");
  // The user-visible operation is regenerating the held-out campaign: every
  // test drive, one generate call and CSV each.
  res.set_dist("latency_ms", pass_ms, 0.9, "p90", "ms");
  res.set("latency_ms_p50.raw", pass_ms_raw.median(), "ms");
  res.set("host.probe_ms", probes.median(), "ms");
  res.set_dist("campaign.trajectory_ms", op_ms, 0.9, "p90", "ms");
  res.note("campaign: " + std::to_string(n_test) + " test trajectories, " +
           std::to_string(res.attempted) + " generate calls");
  meter.report(res);
  res.set("context.windows", static_cast<double>(ctx_windows), "count");
  res.set("context.us_per_window", 1e6 * ctx_s.sum() / static_cast<double>(ctx_windows), "us");
  res.set("io.csv_ms", csv_ms.sum(), "ms");
  res.set("io.csv_bytes", csv_bytes, "B");
  res.set("core.workspace_peak_bytes", static_cast<double>(s->gen->warm_peak_bytes()), "B");

  // ---- scoring (untimed): §5.1 fidelity on RSRP against ground truth ----
  {
    Span span("metrics.score");
    const double t0 = wall_s();
    const int rsrp = kpi_index(s->ds.kpis, gsim::Kpi::kRsrp);
    double mae = 0.0, dtw = 0.0, hwd = 0.0;
    for (size_t i = 0; i < n_test; ++i) {
      const gcore::GeneratedSeries real = gcore::real_series(
          s->builder->generation_windows(s->ds.test[i]), s->norm);
      const auto& r = real.channels[static_cast<size_t>(rsrp)];
      const auto& g = first[i].channels[static_cast<size_t>(rsrp)];
      if (r.size() != g.size()) {
        res.fail("campaign: ground truth and generated lengths differ for trajectory " +
                 std::to_string(i));
        continue;
      }
      mae += gendt::metrics::mae(r, g);
      dtw += gendt::metrics::dtw(r, g);
      hwd += gendt::metrics::hwd(r, g);
    }
    const double n = static_cast<double>(n_test);
    res.set("fidelity.rsrp_mae_db", mae / n, "dB");
    res.set("fidelity.rsrp_dtw_db", dtw / n, "dB");
    res.set("fidelity.rsrp_hwd", hwd / n, "ratio");
    res.set("metrics.score_ms", 1e3 * (wall_s() - t0), "ms");
    // Fidelity is a quality figure, not a check: a briefly trained model may
    // drift on a long route. Only a non-finite score is an error.
    if (!std::isfinite(mae) || !std::isfinite(dtw) || !std::isfinite(hwd))
      res.fail("campaign: fidelity triple is not finite");
  }

  // ---- correctness (untimed) ----
  // On the scalar anchor route the fast path must give the reference autograd
  // graph's bits (vector routes agree within tolerance, not bits), and the
  // written CSV must read back to the generated values.
  {
    const std::vector<gc::Window> w =
        s->builder->generation_windows(s->ds.test.front().trajectory);
    const uint64_t seed = gendt::runtime::derive_stream_seed(opt.seed, 100);
    gendt::nn::simd::ScopedRoute scalar(gendt::nn::simd::Route::kScalar);
    const gcore::GeneratedSeries fast = s->gen->generate(w, seed);
    s->gen->set_fast_path(false);
    const gcore::GeneratedSeries ref = s->gen->generate(w, seed);
    s->gen->set_fast_path(true);
    ++res.attempted;
    if (!scalar.ok() || !bitwise_equal(ref, fast)) {
      ++res.failed;
      res.fail("campaign: fast path differs from the reference graph path on the scalar route");
    }
    const auto back = gendt::io::read_series_csv(paths.back());
    bool same = back.has_value() && back->channels.size() == first.back().channels.size();
    for (size_t c = 0; same && c < back->channels.size(); ++c) {
      const auto& a = back->channels[c];
      const auto& b = first.back().channels[c];
      same = a.size() == b.size();
      for (size_t t = 0; same && t < a.size(); ++t)
        same = std::fabs(a[t] - b[t]) <= 1e-8 * std::max(1.0, std::fabs(b[t]));
    }
    if (!same) res.fail("campaign: series CSV does not read back to the generated values");
  }
  uint64_t digest = kFnvBasis;
  for (uint64_t d : csv_digest) digest = fnv1a(&d, sizeof(d), digest);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  res.digest = hex;

  if (opt.trace) run_nn_probes(s->gen->model(), res);
  return res;
}

}  // namespace perfbench
