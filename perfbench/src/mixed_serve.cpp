// Workload `mixed_serve`: an in-process serve::stream::StreamServer on a
// unix socket. Stream sessions arrive open-loop on a seeded Poisson schedule
// at one fixed rate; each streams a slice (1 or 2 chunks) of one of the
// campaign's walk/bus/tram drives in the server's default 8-window chunks
// through StreamClient. Meanwhile a bulk submitter pushes batches of one-shot
// requests, on a fixed period, through serve::GenerationEngine::serve on the
// same GenDTGenerator, with the shed policy, lane batching, a deadline on a
// quarter of the requests and the FDaS fallback.
//
// Why: the same core and serve layers serve latency-bound interactive chunks
// beside lane-batched bulk requests, so a scheduler or batching change that
// helps one at the other's cost shows here.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "gendt/baselines/baselines.h"
#include "gendt/runtime/thread_pool.h"
#include "gendt/serve/engine.h"
#include "gendt/serve/stream/client.h"
#include "gendt/serve/stream/server.h"
#include "instrument.h"
#include "trace.h"

namespace perfbench {

namespace gc = gendt::context;
namespace gcore = gendt::core;
namespace gsim = gendt::sim;
namespace gserve = gendt::serve;
namespace gstream = gendt::serve::stream;

namespace {

constexpr int kSetupReps = 3;
// Open-loop arrival rates (stream sessions, bulk batches) and the bulk batch
// size: together about a tenth of a 4-CPU host, so the interactive latency
// is measured at a stated load where queueing does not amplify the speed
// drift of a shared host (at a fifth of the host, an 18% drift in CPU cost
// moved the median first-chunk latency by 48%).
constexpr double kSessionsPerS = 12.0;
constexpr double kBulkBatchesPerS = 1.0;
constexpr size_t kBulkBatch = 8;
constexpr int64_t kBulkDeadlineMs = 5000;
// Latency limits: a session whose first chunk (from its scheduled arrival)
// or any later chunk gap exceeds these counts as failed in failed_share.
constexpr double kFirstChunkLimitMs = 500.0;
constexpr double kChunkGapLimitMs = 250.0;
// Routes: all nine 600 s drives of the campaign (two training drives and the
// test drive per scenario), so no single route's cost sets the latency.
// Stream lengths in trajectory points (1 s each on a walk; denser on bus and
// tram): 12 windows (2 chunks) of a route, or an 8-window slice of its
// middle. Fixed point counts keep the offered work the same for every seed,
// and every stream's first chunk is a full 8-window chunk.
constexpr double kRouteS = 600.0;
constexpr size_t kEntryPoints[] = {600, 400};

// Arrival times of `n` events over `seconds`: exponential gaps (a Poisson
// process), rescaled so the count is fixed and the last arrival falls inside
// the run — every seed offers the same amount of work.
std::vector<double> arrivals(size_t n, double seconds, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<double> t(n + 1);
  double sum = 0.0;
  for (double& g : t) {
    sum += -std::log(1.0 - unif(rng));
    g = sum;
  }
  t.pop_back();
  for (double& v : t) v *= seconds / sum;
  return t;
}

// Pool indices for `n` events: the pool in a fresh seeded shuffle per cycle,
// so every entry is used equally often.
std::vector<size_t> balanced_picks(size_t n, size_t pool, std::mt19937_64& rng) {
  std::vector<size_t> out, cycle(pool);
  while (out.size() < n) {
    std::iota(cycle.begin(), cycle.end(), size_t{0});
    std::shuffle(cycle.begin(), cycle.end(), rng);
    out.insert(out.end(), cycle.begin(), cycle.end());
  }
  out.resize(n);
  return out;
}

struct Entry {
  std::vector<gstream::TrajectoryPoint> points;
  std::vector<gc::Window> windows;
  uint64_t seed = 0;
};

struct Setup {
  gsim::Dataset ds;
  gc::KpiNorm norm;
  std::unique_ptr<gc::ContextBuilder> builder;
  std::unique_ptr<gcore::GenDTGenerator> gen;
  std::unique_ptr<gendt::baselines::FDaS> fallback;
  std::vector<Entry> pool;
  std::vector<std::string> names;
  std::string socket_path;
  std::unique_ptr<gstream::StreamServer> server;
  std::thread server_thread;
  // The bulk path: on traced runs the engine sees the timing wrapper.
  std::unique_ptr<RolloutMeter> meter;
  std::unique_ptr<TimedGenerator> timed;
  std::unique_ptr<gserve::GenerationEngine> engine;
  double dataset_s = 0.0;

  // Per-session generation samples (ms), filled by the timing chunk source
  // on traced runs; guarded by the event loop being the only factory caller.
  std::vector<std::shared_ptr<std::vector<double>>> gen_ms;
  std::atomic<uint64_t> factory_ctx_ns{0}, factory_ctx_windows{0};
  bool tracing = false;

  ~Setup() {
    if (server) server->request_drain();
    if (server_thread.joinable()) server_thread.join();
  }
};

// One bulk batch: `kBulkBatch` one-shot requests for the given pool
// entries; every fourth carries a deadline, the rest can ride lane batches.
std::vector<gserve::Request> bulk_batch(const std::vector<Entry>& pool, const size_t* entries) {
  std::vector<gserve::Request> reqs(kBulkBatch);
  for (size_t i = 0; i < kBulkBatch; ++i) {
    const Entry& e = pool[entries[i]];
    reqs[i].windows = e.windows;
    reqs[i].seed = e.seed;
    reqs[i].deadline_ms = i % 4 == 0 ? kBulkDeadlineMs : -1;
  }
  return reqs;
}

Entry make_entry(const gc::ContextBuilder& builder, const gendt::geo::Trajectory& full,
                 size_t begin, size_t end, uint64_t seed) {
  Entry e;
  std::vector<gendt::geo::TrajectoryPoint> pts(full.points().begin() + static_cast<long>(begin),
                                               full.points().begin() + static_cast<long>(end));
  for (const auto& p : pts) e.points.push_back({p.t, p.pos.lat, p.pos.lon});
  e.windows = builder.generation_windows(gendt::geo::Trajectory(std::move(pts)));
  e.seed = seed;
  return e;
}

std::unique_ptr<Setup> build_setup(const Options& opt, const gstream::StreamServerConfig& scfg) {
  auto s = std::make_unique<Setup>();
  s->tracing = opt.trace;
  {
    Span span("sim.make_dataset_a");
    const double t0 = wall_s();
    s->ds = gsim::make_dataset_a(bench_scale(opt.seed, kRouteS, kRouteS, 2));
    s->dataset_s = wall_s() - t0;
  }
  {
    Span span("context.fit_kpi_norm");
    s->norm = gc::fit_kpi_norm(s->ds.train, s->ds.kpis);
  }
  s->builder = std::make_unique<gc::ContextBuilder>(s->ds.world, bench_context(), s->norm,
                                                    s->ds.kpis);
  for (auto k : s->ds.kpis) s->names.emplace_back(gsim::kpi_name(k));
  s->gen = std::make_unique<gcore::GenDTGenerator>(
      bench_model_config(static_cast<int>(s->ds.kpis.size()), 1), gcore::TrainConfig{}, s->norm);
  s->gen->set_kpis(s->ds.kpis);

  std::vector<gc::Window> train_windows;
  for (const auto& rec : s->ds.train) {
    auto w = s->builder->training_windows(rec);
    train_windows.insert(train_windows.end(), w.begin(), w.end());
  }
  s->fallback = std::make_unique<gendt::baselines::FDaS>(s->norm);
  s->fallback->fit(train_windows);

  // Trajectory pool: slices of every drive, from its middle.
  std::vector<const gsim::DriveTestRecord*> routes;
  for (const auto& rec : s->ds.train) routes.push_back(&rec);
  for (const auto& rec : s->ds.test) routes.push_back(&rec);
  uint64_t k = 0;
  for (const gsim::DriveTestRecord* rec : routes) {
    const gendt::geo::Trajectory& tr = rec->trajectory;
    for (size_t points : kEntryPoints) {
      const size_t n = std::min(tr.size(), points);
      const size_t begin = (tr.size() - n) / 2;
      s->pool.push_back(make_entry(*s->builder, tr, begin, begin + n,
                                   gendt::runtime::derive_stream_seed(opt.seed, 1000 + k++)));
    }
  }

  // The server: its factory builds a session's windows from the OPEN's
  // points (as `gendt serve --stream` does) over the shared model.
  Setup* sp = s.get();
  s->server = std::make_unique<gstream::StreamServer>(
      scfg, [sp](const gstream::OpenRequest& open, gstream::StreamErrorCode* code,
                 std::string* error) -> std::unique_ptr<gstream::ChunkSource> {
        std::vector<gendt::geo::TrajectoryPoint> pts;
        pts.reserve(open.points.size());
        for (const auto& p : open.points) pts.push_back({p.t, {p.lat, p.lon}});
        if (pts.size() < 2) {
          *code = gstream::StreamErrorCode::kInvalidRequest;
          *error = "trajectory needs at least two points";
          return nullptr;
        }
        const double t0 = pts.front().t;
        const double period = pts[1].t - pts[0].t;
        std::vector<gc::Window> windows;
        {
          Span span("context.generation_windows", open.seed);
          const double a = wall_s();
          windows = sp->builder->generation_windows(gendt::geo::Trajectory(std::move(pts)));
          sp->factory_ctx_ns.fetch_add(static_cast<uint64_t>(1e9 * (wall_s() - a)));
          sp->factory_ctx_windows.fetch_add(windows.size());
        }
        std::unique_ptr<gstream::ChunkSource> src = std::make_unique<gstream::GenDTChunkSource>(
            sp->gen->model(), sp->norm, sp->ds.kpis, std::move(windows), open.seed,
            static_cast<int>(open.chunk_windows), sp->names, t0, period);
        if (!sp->tracing) return src;
        sp->gen_ms.push_back(std::make_shared<std::vector<double>>());
        return std::make_unique<TimedChunkSource>(std::move(src), open.seed, sp->gen_ms.back());
      });
  s->socket_path = opt.out_dir + "/mixed_serve.sock";
  std::string err;
  if (!s->server->listen_unix(s->socket_path, &err))
    throw std::runtime_error("cannot listen on " + s->socket_path + ": " + err);
  s->server_thread = std::thread([sp] { sp->server->run(); });

  // The bulk engine: as many workers as the server's chunk fan-out (nproc/2
  // each); both draw on the shared runtime pool.
  gserve::EngineConfig ecfg;
  ecfg.max_queue = 64;
  ecfg.backpressure = gserve::EngineConfig::Backpressure::kShed;
  ecfg.workers = scfg.parallelism.threads;
  ecfg.batch_max = 8;
  ecfg.lane_batch = true;
  ecfg.expected_channels = static_cast<int>(s->ds.kpis.size());
  s->meter = std::make_unique<RolloutMeter>(s->gen->model());
  s->timed = std::make_unique<TimedGenerator>(*s->gen, *s->meter);
  s->engine = std::make_unique<gserve::GenerationEngine>(
      opt.trace ? static_cast<const gcore::TimeSeriesGenerator&>(*s->timed) : *s->gen, ecfg);
  s->engine->set_fallback(s->fallback.get());

  // Warm-up: the session pools, two concurrent bulk batches through the
  // engine (both workers' batched sessions) and one stream.
  s->gen->prewarm(static_cast<size_t>(opt.nproc));
  std::vector<size_t> warm_entries(2 * kBulkBatch);
  for (size_t i = 0; i < warm_entries.size(); ++i) warm_entries[i] = i % s->pool.size();
  std::vector<gserve::Request> warm = bulk_batch(s->pool, warm_entries.data());
  const std::vector<gserve::Request> warm2 = bulk_batch(s->pool, warm_entries.data() + kBulkBatch);
  warm.insert(warm.end(), warm2.begin(), warm2.end());
  (void)s->engine->serve(warm);
  gstream::StreamClient client;
  gstream::OpenRequest req;
  req.seed = 1;
  req.points = s->pool[1].points;
  gstream::OpenAck ack;
  if (!client.connect_unix(s->socket_path, &err) ||
      client.open(req, &ack) != gstream::StreamClient::Status::kOk)
    throw std::runtime_error("warm-up stream failed to open: " + err);
  for (bool last = false; !last;) {
    gstream::ChunkMsg msg;
    if (client.recv_chunk(&msg, &last) != gstream::StreamClient::Status::kOk)
      throw std::runtime_error("warm-up stream failed");
    client.ack(msg.index);
  }
  gstream::CloseStats cs;
  client.close_session(&cs);
  return s;
}

// One stream session as the client saw it.
struct SessionLog {
  size_t entry = 0;
  double scheduled = 0.0;
  double late_ms = 0.0;
  double first_chunk_ms = -1.0;
  std::vector<double> gap_ms;
  std::vector<double> values;  // row-major [points x channels], reassembled
  uint32_t channels = 0;
  uint64_t windows = 0;
  uint64_t bytes_rx = 0, frames_rx = 0;
  bool ok = false;
  std::string error;
};

void run_session(const Setup& s, const std::string& path, SessionLog& log, bool count_bytes) {
  using Status = gstream::StreamClient::Status;
  const Entry& e = s.pool[log.entry];
  Span span("net.stream_session", e.seed);
  gstream::StreamClient client;
  std::string err;
  if (!client.connect_unix(path, &err)) {
    log.error = "connect: " + err;
    return;
  }
  gstream::OpenRequest req;
  req.seed = e.seed;
  req.points = e.points;
  gstream::OpenAck ack;
  if (client.open(req, &ack) != Status::kOk) {
    log.error = "open refused";
    return;
  }
  ++log.frames_rx;
  if (count_bytes)
    log.bytes_rx += gstream::kHeaderLen + gstream::encode_open_ack(ack).size();
  double ack_sent = 0.0;
  for (bool last = false; !last;) {
    gstream::ChunkMsg msg;
    const Status st = client.recv_chunk(&msg, &last);
    const double now = wall_s();
    if (st != Status::kOk) {
      log.error = "chunk receive failed";
      return;
    }
    if (log.first_chunk_ms < 0.0)
      log.first_chunk_ms = 1e3 * (now - log.scheduled);
    else
      log.gap_ms.push_back(1e3 * (now - ack_sent));
    ++log.frames_rx;
    if (count_bytes) log.bytes_rx += gstream::kHeaderLen + gstream::encode_chunk(msg).size();
    log.channels = msg.num_channels;
    log.windows += msg.num_windows;
    log.values.insert(log.values.end(), msg.values.begin(), msg.values.end());
    ack_sent = wall_s();
    if (!client.ack(msg.index)) {
      log.error = "ack failed";
      return;
    }
  }
  gstream::CloseStats cs;
  if (client.close_session(&cs) != Status::kOk) {
    log.error = "close failed";
    return;
  }
  ++log.frames_rx;
  if (count_bytes) log.bytes_rx += gstream::kHeaderLen + gstream::encode_close_stats(cs).size();
  log.ok = true;
}

struct BulkLog {
  size_t entry = 0;
  gserve::Outcome outcome = gserve::Outcome::kError;
  gcore::GeneratedSeries series;
};

}  // namespace

Result run_mixed_serve(const Options& opt) {
  Result res;
  const int half = std::max(1, opt.nproc / 2);
  gstream::StreamServerConfig scfg;
  scfg.chunk_windows = 8;
  scfg.parallelism = {.threads = half};
  scfg.max_sessions = 64;

  Samples setup_times, setup_scaled;
  std::unique_ptr<Setup> s = repeat_setup<std::unique_ptr<Setup>>(
      kSetupReps, setup_times, setup_scaled, [&] { return build_setup(opt, scfg); });
  record_common_context(res, opt, s->gen->model().config(), s->builder->config());
  res.ctx("threads.stream_server", std::to_string(half));
  res.ctx("workers.engine", std::to_string(half));
  res.ctx("connections.max", std::to_string(opt.nproc));
  res.ctx("rate.sessions_per_s", std::to_string(kSessionsPerS));
  res.ctx("bulk.batch", std::to_string(kBulkBatch));
  res.ctx("rate.bulk_batches_per_s", std::to_string(kBulkBatchesPerS));
  record_setup(res, setup_times, setup_scaled);
  res.set("sim.dataset_s", s->dataset_s, "s");

  RolloutMeter& meter = *s->meter;
  TimedGenerator& timed = *s->timed;
  gserve::GenerationEngine& engine = *s->engine;
  meter.reset();
  (void)timed.take_calls();

  // Seeded open-loop schedules for the stream sessions and the bulk batches.
  std::mt19937_64 sched_rng(gendt::runtime::derive_stream_seed(opt.seed, 7));
  const auto n_sessions = static_cast<size_t>(std::lround(kSessionsPerS * opt.seconds));
  const std::vector<double> session_at = arrivals(n_sessions, opt.seconds, sched_rng);
  const std::vector<size_t> session_entry = balanced_picks(n_sessions, s->pool.size(), sched_rng);
  std::vector<SessionLog> sessions(n_sessions);
  for (size_t k = 0; k < n_sessions; ++k) {
    sessions[k].scheduled = session_at[k];
    sessions[k].entry = session_entry[k];
  }
  std::mt19937_64 bulk_rng(gendt::runtime::derive_stream_seed(opt.seed, 8));
  const auto n_batches = static_cast<size_t>(std::max(1L, std::lround(kBulkBatchesPerS * opt.seconds)));
  // Bulk batches arrive on a fixed period: a batch job's submitter paces
  // itself, and an even bulk load keeps the contention streams see steady.
  std::vector<double> batch_at(n_batches);
  for (size_t b = 0; b < n_batches; ++b)
    batch_at[b] = (static_cast<double>(b) + 0.5) * opt.seconds / static_cast<double>(n_batches);
  const std::vector<size_t> bulk_entry =
      balanced_picks(n_batches * kBulkBatch, s->pool.size(), bulk_rng);

  // The phase is one open-loop stretch. It is scaled by the median of host
  // probes taken before it, after every bulk batch (the submitter idles
  // until the next one) and after it; their CPU time is not charged to it.
  Samples probe_wall, probe_cpu;
  const auto take_probe = [&] {
    const Probe p = probe();
    probe_wall.add(p.wall_ms);
    probe_cpu.add(p.cpu_ms);
    return p.cpu_ms;
  };
  for (int k = 0; k < 5; ++k) take_probe();
  double probe_cpu_ms_in_phase = 0.0;
  const double c0 = process_cpu_s();
  const double t0 = wall_s() + 0.01;
  for (auto& log : sessions) log.scheduled += t0;
  std::atomic<size_t> next_session{0};
  std::vector<std::thread> clients;
  {
    Span phase("bench.mixed_serve_phase");
    for (int c = 0; c < opt.nproc; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          const size_t k = next_session.fetch_add(1);
          if (k >= sessions.size()) return;
          SessionLog& log = sessions[k];
          const double wait = log.scheduled - wall_s();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          log.late_ms = std::max(0.0, 1e3 * (wall_s() - log.scheduled));
          run_session(*s, s->socket_path, log, opt.trace);
        }
      });
    }
    // Bulk submitter: each batch of kBulkBatch one-shot requests is submitted
    // at its scheduled time (or at once, if the previous serve() overran);
    // a quarter of the requests carry a deadline.
    std::vector<BulkLog> bulk;
    std::vector<double> queue_wait_ms, exec_ms;
    uint64_t bulk_windows = 0;
    for (size_t b = 0; b < n_batches; ++b) {
      const double wait = t0 + batch_at[b] - wall_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      const size_t* entries = bulk_entry.data() + b * kBulkBatch;
      const std::vector<gserve::Request> reqs = bulk_batch(s->pool, entries);
      std::vector<gserve::Response> out;
      const double b0 = wall_s();
      {
        Span span("serve.engine_serve");
        timed.set_parent_span(span.id());
        out = engine.serve(reqs);
      }
      if (opt.trace) {
        // Queue wait = time from submission to the generator starting on the
        // request; exec = time inside the generator.
        for (const auto& call : timed.take_calls()) {
          queue_wait_ms.push_back(1e3 * (call.t0 - b0));
          exec_ms.push_back(1e3 * (call.t1 - call.t0));
        }
      }
      for (size_t i = 0; i < out.size(); ++i) {
        bulk.push_back({entries[i], out[i].outcome, std::move(out[i].series)});
        if (out[i].outcome == gserve::Outcome::kOk) bulk_windows += reqs[i].windows.size();
      }
      probe_cpu_ms_in_phase += take_probe();
    }
    for (auto& th : clients) th.join();
    const double phase_wall = wall_s() - t0;
    const double phase_cpu = process_cpu_s() - c0 - 1e-3 * probe_cpu_ms_in_phase;
    for (int k = 0; k < 5; ++k) take_probe();
    const Probe host{probe_wall.median(), probe_cpu.median()};
    const HostScale scale = host_scale(host, host);

    // ---- metrics ----
    Samples first_ms, first_ms_scaled, gap_ms, late_ms;
    uint64_t points = 0, windows = bulk_windows, bytes = 0, frames = 0;
    for (const auto& log : sessions) {
      late_ms.add(log.late_ms);
      bytes += log.bytes_rx;
      frames += log.frames_rx;
      if (!log.ok) continue;
      first_ms.add(log.first_chunk_ms);
      first_ms_scaled.add(log.first_chunk_ms * scale.wall);
      for (double g : log.gap_ms) gap_ms.add(g);
      points += log.channels > 0 ? log.values.size() / log.channels : 0;
      windows += log.windows;
    }
    uint64_t bulk_ok = 0;
    for (const auto& b : bulk) {
      if (b.outcome != gserve::Outcome::kOk) continue;
      ++bulk_ok;
      points += b.series.length();
    }
    record_phase(res, "gen", phase_wall, phase_cpu);
    res.set("gen.kpi_samples_per_s", static_cast<double>(points) / phase_wall, "1/s");
    res.set("gen.cpu_ms_per_window", 1e3 * phase_cpu * scale.cpu / static_cast<double>(windows), "ms");
    res.set("gen.cpu_ms_per_window.raw", 1e3 * phase_cpu / static_cast<double>(windows), "ms");
    res.set("bulk.requests_per_s", static_cast<double>(bulk_ok) / phase_wall, "1/s");
    res.set_dist("latency_ms", first_ms_scaled, 0.9, "p90", "ms");
    res.set("latency_ms_p50.raw", first_ms.median(), "ms");
    res.set("host.probe_ms", host.wall_ms, "ms");
    res.set_dist("stream.first_chunk_ms", first_ms, 0.9, "p90", "ms");
    res.set_dist("stream.chunk_gap_ms", gap_ms, 0.99, "p99", "ms");
    res.set("stream.sched_late_ms_p99", late_ms.quantile(0.99), "ms");
    res.set("stream.sched_late_ms_max", late_ms.max(), "ms");
    res.set("net.bytes_rx", static_cast<double>(bytes), "B");
    res.set("net.frames_rx", static_cast<double>(frames), "count");
    res.note("mixed_serve: " + std::to_string(sessions.size()) + " stream sessions, " +
             std::to_string(bulk.size()) + " bulk requests");

    const gserve::GenerationEngine::Stats est = engine.stats();
    res.set("serve.shed", static_cast<double>(est.shed), "count");
    res.set("serve.degraded", static_cast<double>(est.degraded), "count");
    res.set("serve.retries", static_cast<double>(est.retries), "count");
    res.set("serve.deadline_expirations", static_cast<double>(est.deadline_expirations), "count");
    if (opt.trace) {
      Samples qw, ex, gen, wire;
      for (double v : queue_wait_ms) qw.add(v);
      for (double v : exec_ms) ex.add(v);
      for (const auto& per : s->gen_ms)
        for (double v : *per) gen.add(v);
      res.set_dist("serve.queue_wait_ms", qw, 0.99, "p99", "ms");
      res.set_dist("serve.exec_ms", ex, 0.99, "p99", "ms");
      res.set_dist("stream.gen_ms", gen, 0.99, "p99", "ms");
      // Wire time: chunk gap minus generation, matched at the percentile.
      res.set("stream.wire_ms_p99", std::max(0.0, gap_ms.quantile(0.99) - gen.quantile(0.99)),
              "ms");
      meter.report(res);
      const uint64_t cw = s->factory_ctx_windows.load();
      res.set("context.windows", static_cast<double>(cw), "count");
      res.set("context.us_per_window",
              cw > 0 ? 1e-3 * static_cast<double>(s->factory_ctx_ns.load()) /
                           static_cast<double>(cw)
                     : 0.0,
              "us");
    }
    res.set("core.workspace_peak_bytes", static_cast<double>(s->gen->warm_peak_bytes()), "B");

    // ---- correctness (untimed) ----
    // Every kOk response and every reassembled stream must equal a direct
    // generate() of the same windows and seed.
    std::vector<gcore::GeneratedSeries> expected(s->pool.size());
    gendt::runtime::parallel_tasks({.threads = opt.nproc}, static_cast<int>(s->pool.size()),
                                   [&](int i) {
                                     const Entry& e = s->pool[static_cast<size_t>(i)];
                                     expected[static_cast<size_t>(i)] =
                                         s->gen->generate(e.windows, e.seed);
                                   });
    uint64_t stream_bad = 0, bulk_bad = 0, bulk_not_ok = 0, late_sessions = 0;
    for (const auto& log : sessions) {
      ++res.attempted;
      const gcore::GeneratedSeries& ex = expected[log.entry];
      bool same = log.ok && log.channels == ex.channels.size();
      const size_t n = same ? log.values.size() / log.channels : 0;
      same = same && n == ex.length();
      for (size_t t = 0; same && t < n; ++t)
        for (size_t c = 0; same && c < log.channels; ++c)
          same = std::memcmp(&log.values[t * log.channels + c], &ex.channels[c][t],
                             sizeof(double)) == 0;
      if (!same) {
        ++stream_bad;
        continue;
      }
      double worst_gap = 0.0;
      for (double g : log.gap_ms) worst_gap = std::max(worst_gap, g);
      if (log.first_chunk_ms > kFirstChunkLimitMs || worst_gap > kChunkGapLimitMs) ++late_sessions;
    }
    for (const auto& b : bulk) {
      ++res.attempted;
      if (b.outcome != gserve::Outcome::kOk) {
        ++bulk_not_ok;
        continue;
      }
      if (!bitwise_equal(b.series, expected[b.entry])) ++bulk_bad;
    }
    if (stream_bad > 0)
      res.fail("mixed_serve: " + std::to_string(stream_bad) +
               " streams failed or differ from direct generate()");
    if (bulk_bad > 0)
      res.fail("mixed_serve: " + std::to_string(bulk_bad) +
               " kOk responses differ from direct generate()");
    // Failed = wrong or failed streams, non-kOk bulk responses (shed,
    // degraded, error) and correct streams over the latency limit.
    res.failed += stream_bad + bulk_bad + bulk_not_ok + late_sessions;
    res.note("mixed_serve: " + std::to_string(late_sessions) + " sessions over the latency limit, " +
             std::to_string(bulk_not_ok) + " bulk requests not kOk");
  }
  if (opt.trace) run_nn_probes(s->gen->model(), res);
  return res;
}

}  // namespace perfbench
