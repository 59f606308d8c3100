// Workload `covermap`: the `gendt covermap` flow over a fixed W x H lattice
// of stationary points. Each point gets one ContextBuilder::generation_windows
// call; points roll out through GenDTGenerator::generate_batch in lanes of 8
// under runtime::parallel_tasks at threads = nproc, on deterministic-init
// weights of the campaign model's shape.
//
// Why: one window per point over many lanes, so context building and the
// [B x d] batched GEMMs do most of the work; the serial InferenceSession and
// ResGen's cross-window chain do almost none.
#include <atomic>
#include <memory>

#include "common.h"
#include "gendt/runtime/thread_pool.h"
#include "instrument.h"
#include "trace.h"

namespace perfbench {

namespace gc = gendt::context;
namespace gcore = gendt::core;
namespace gsim = gendt::sim;

namespace {

constexpr long kGridW = 32;
constexpr long kGridH = 32;
constexpr int kLanes = 8;
constexpr int kSetupReps = 3;
// Points whose full series the correctness check replays through the
// single-lane generate(): every kCheckStride-th point of the lattice.
constexpr long kCheckStride = 97;

// A stationary trajectory: one window of `len` samples at one position.
gendt::geo::Trajectory stationary(gendt::geo::LatLon pos, int len) {
  std::vector<gendt::geo::TrajectoryPoint> pts;
  pts.reserve(static_cast<size_t>(len));
  for (int t = 0; t < len; ++t) pts.push_back({static_cast<double>(t), pos});
  return gendt::geo::Trajectory(std::move(pts));
}

struct Setup {
  gsim::Dataset ds;
  std::unique_ptr<gc::ContextBuilder> builder;
  std::unique_ptr<gcore::GenDTGenerator> gen;
  std::vector<gendt::geo::LatLon> positions;
  double dataset_s = 0.0;
};

std::unique_ptr<Setup> build_setup(const Options& opt) {
  auto s = std::make_unique<Setup>();
  {
    Span span("sim.make_dataset_a");
    const double t0 = wall_s();
    s->ds = gsim::make_dataset_a(bench_scale(opt.seed, 120.0, 60.0, 1));
    s->dataset_s = wall_s() - t0;
  }
  gc::KpiNorm norm;
  {
    Span span("context.fit_kpi_norm");
    norm = gc::fit_kpi_norm(s->ds.train, s->ds.kpis);
  }
  s->builder = std::make_unique<gc::ContextBuilder>(s->ds.world, bench_context(), norm,
                                                    s->ds.kpis);
  s->gen = std::make_unique<gcore::GenDTGenerator>(
      bench_model_config(static_cast<int>(s->ds.kpis.size()), 1), gcore::TrainConfig{}, norm);
  s->gen->set_kpis(s->ds.kpis);

  // Lattice over the central 80% of the modelled square, as `gendt covermap`.
  const double extent = s->ds.world.region.extent_m;
  s->positions.resize(static_cast<size_t>(kGridW * kGridH));
  for (long p = 0; p < kGridW * kGridH; ++p) {
    const double east = -0.8 * extent + static_cast<double>(p % kGridW) * 1.6 * extent /
                                             static_cast<double>(kGridW - 1);
    const double north = -0.8 * extent + static_cast<double>(p / kGridW) * 1.6 * extent /
                                              static_cast<double>(kGridH - 1);
    s->positions[static_cast<size_t>(p)] =
        s->ds.world.projection().to_latlon(gendt::geo::Enu{east, north});
  }
  // Warm one batched session per worker so the timed phase starts warm.
  s->gen->prewarm(static_cast<size_t>(opt.nproc));
  gendt::runtime::parallel_tasks({.threads = opt.nproc}, opt.nproc, [&](int) {
    std::vector<std::vector<gc::Window>> w(kLanes);
    std::vector<gcore::GenerateBatchItem> items(kLanes);
    for (int l = 0; l < kLanes; ++l) {
      w[static_cast<size_t>(l)] = s->builder->generation_windows(
          stationary(s->positions[static_cast<size_t>(l)], bench_context().window_len));
      items[static_cast<size_t>(l)] = {.windows = &w[static_cast<size_t>(l)], .seed = 1};
    }
    (void)s->gen->generate_batch(items);
  });
  return s;
}

}  // namespace

Result run_covermap(const Options& opt) {
  Result res;
  Samples setup_times, setup_scaled;
  std::unique_ptr<Setup> s = repeat_setup<std::unique_ptr<Setup>>(
      kSetupReps, setup_times, setup_scaled, [&] { return build_setup(opt); });
  record_common_context(res, opt, s->gen->model().config(), s->builder->config());
  res.ctx("grid", std::to_string(kGridW) + "x" + std::to_string(kGridH));
  res.ctx("lanes", std::to_string(kLanes));
  res.ctx("threads.covermap", std::to_string(opt.nproc));
  record_setup(res, setup_times, setup_scaled);
  res.set("sim.dataset_s", s->dataset_s, "s");

  const long n_points = kGridW * kGridH;
  const long n_blocks = (n_points + kLanes - 1) / kLanes;
  const int wlen = bench_context().window_len;
  const size_t nch = s->ds.kpis.size();
  const gendt::runtime::Parallelism par{.threads = opt.nproc};

  RolloutMeter meter(s->gen->model());
  std::vector<double> means(static_cast<size_t>(n_points) * nch);
  std::vector<gcore::GeneratedSeries> checked(static_cast<size_t>(n_points));
  std::vector<double> block_ms(static_cast<size_t>(n_blocks));
  std::atomic<int64_t> ctx_ns{0};
  std::atomic<uint64_t> ctx_windows{0}, windows{0}, failures{0};
  uint64_t map_digest = 0;
  double phase_wall = 0.0, phase_cpu = 0.0;
  long points_done = 0;
  PassRates rates;
  // A point completes with its block, so each point's latency is its
  // block's duration.
  Samples points_per_s, point_ms, point_ms_raw, probes;
  Probe before = probe();
  probes.add(before.wall_ms);
  const double deadline = wall_s() + opt.seconds;
  for (int pass = 0; pass == 0 || wall_s() < deadline; ++pass) {
    const double t0 = wall_s(), c0 = process_cpu_s();
    {
      Span pass_span("bench.covermap_pass", static_cast<uint64_t>(pass) + 1);
      const uint64_t parent = pass_span.id();
      gendt::runtime::parallel_tasks(par, static_cast<int>(n_blocks), [&](int block) {
        Span block_span("bench.covermap_block", static_cast<uint64_t>(block) + 1, parent);
        const double b0 = wall_s();
        const long lo = static_cast<long>(block) * kLanes;
        const long hi = std::min(n_points, lo + kLanes);
        std::vector<std::vector<gc::Window>> w(static_cast<size_t>(hi - lo));
        std::vector<gcore::GenerateBatchItem> items(static_cast<size_t>(hi - lo));
        for (long p = lo; p < hi; ++p) {
          const gendt::geo::Trajectory traj = stationary(s->positions[static_cast<size_t>(p)], wlen);
          const size_t k = static_cast<size_t>(p - lo);
          {
            Span span("context.generation_windows", static_cast<uint64_t>(p) + 1);
            const double a = wall_s();
            w[k] = s->builder->generation_windows(traj);
            ctx_ns.fetch_add(static_cast<int64_t>(1e9 * (wall_s() - a)));
          }
          ctx_windows.fetch_add(w[k].size());
          items[k] = {.windows = &w[k],
                      .seed = gendt::runtime::derive_stream_seed(opt.seed,
                                                                 static_cast<uint64_t>(p))};
        }
        std::vector<gcore::GenerateBatchResult> results;
        {
          Span span("core.generate_batch", static_cast<uint64_t>(block) + 1);
          const double a = wall_s();
          results = s->gen->generate_batch(items);
          std::vector<const std::vector<gc::Window>*> lanes;
          for (const auto& it : items) lanes.push_back(it.windows);
          meter.add_call(lanes, wall_s() - a);
        }
        for (long p = lo; p < hi; ++p) {
          const size_t k = static_cast<size_t>(p - lo);
          const gcore::GenerateBatchResult& r = results[k];
          if (!r.ok) {
            failures.fetch_add(1);
            continue;
          }
          windows.fetch_add(w[k].size());
          for (size_t ch = 0; ch < nch; ++ch) {
            double sum = 0.0;
            for (double v : r.series.channels[ch]) sum += v;
            means[static_cast<size_t>(p) * nch + ch] =
                sum / static_cast<double>(r.series.channels[ch].size());
          }
          if (pass == 0 && p % kCheckStride == 0) checked[static_cast<size_t>(p)] = r.series;
        }
        block_ms[static_cast<size_t>(block)] = 1e3 * (wall_s() - b0);
      });
    }
    const double pass_wall = wall_s() - t0, pass_cpu = process_cpu_s() - c0;
    phase_wall += pass_wall;
    phase_cpu += pass_cpu;
    const Probe next = probe();
    probes.add(next.wall_ms);
    const HostScale scale = host_scale(before, next);
    before = next;
    points_done += n_points;
    rates.add(pass_wall, pass_cpu, static_cast<double>(n_points * wlen),
              static_cast<double>(windows.exchange(0)), scale);
    points_per_s.add(static_cast<double>(n_points) / pass_wall);
    for (double ms : block_ms) {
      for (int l = 0; l < kLanes; ++l) {
        point_ms.add(ms * scale.wall);
        point_ms_raw.add(ms);
      }
    }
    res.attempted += static_cast<uint64_t>(n_points);

    // Untimed: every pass must produce the first pass's map, bit for bit.
    const uint64_t d = fnv1a(means.data(), means.size() * sizeof(double));
    if (pass == 0) map_digest = d;
    if (d != map_digest) {
      res.failed += static_cast<uint64_t>(n_points);
      res.fail("covermap: pass " + std::to_string(pass) + " map differs from pass 0");
    }
  }
  res.failed += failures.load();
  if (failures.load() > 0) res.fail("covermap: " + std::to_string(failures.load()) + " lanes failed");

  record_phase(res, "gen", phase_wall, phase_cpu);
  res.set("covermap.points_per_s", points_per_s.median(), "1/s");
  rates.report(res, "covermap");
  res.set_dist("latency_ms", point_ms, 0.9, "p90", "ms");
  res.set("latency_ms_p50.raw", point_ms_raw.median(), "ms");
  res.set("host.probe_ms", probes.median(), "ms");
  meter.report(res);
  res.set("context.windows", static_cast<double>(ctx_windows.load()), "count");
  res.set("context.us_per_window",
          1e-3 * static_cast<double>(ctx_ns.load()) / static_cast<double>(ctx_windows.load()),
          "us");
  res.set("core.workspace_peak_bytes", static_cast<double>(s->gen->warm_peak_bytes()), "B");

  // Correctness (untimed): sampled lattice points replayed one at a time
  // through the single-lane generate() must match their batched lanes.
  for (long p = 0; p < n_points; p += kCheckStride) {
    const auto w =
        s->builder->generation_windows(stationary(s->positions[static_cast<size_t>(p)], wlen));
    const gcore::GeneratedSeries single = s->gen->generate(
        w, gendt::runtime::derive_stream_seed(opt.seed, static_cast<uint64_t>(p)));
    ++res.attempted;
    if (!bitwise_equal(single, checked[static_cast<size_t>(p)])) {
      ++res.failed;
      res.fail("covermap: point " + std::to_string(p) + " lane differs from single generate()");
    }
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(map_digest));
  res.digest = hex;

  if (opt.trace) run_nn_probes(s->gen->model(), res);
  return res;
}

}  // namespace perfbench
