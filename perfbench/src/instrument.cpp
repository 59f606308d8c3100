#include "instrument.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "gendt/nn/infer.h"
#include "trace.h"

namespace perfbench {

namespace gc = gendt::context;
namespace gcore = gendt::core;

namespace {

uint64_t lstm_flops(const gendt::nn::LstmCell& cell) {
  const auto in = static_cast<uint64_t>(cell.input_size());
  const auto h = static_cast<uint64_t>(cell.hidden_size());
  return 2 * (in + h) * 4 * h;
}

}  // namespace

RolloutMeter::RolloutMeter(const gcore::GenDTModel& model) {
  node_flops_per_cell_step_ = lstm_flops(model.node_cell());
  const gendt::nn::LstmNetwork& agg = model.agg_net();
  flops_per_step_ = lstm_flops(agg.cell()) +
                    2 * static_cast<uint64_t>(agg.head().in_features()) *
                        static_cast<uint64_t>(agg.head().out_features());
  if (model.config().use_resgen)
    for (const auto& layer : model.resgen().layers())
      flops_per_step_ += 2 * static_cast<uint64_t>(layer.in_features()) *
                         static_cast<uint64_t>(layer.out_features());
}

void RolloutMeter::add_call(const std::vector<const std::vector<gc::Window>*>& lanes,
                            double seconds) {
  uint64_t windows = 0, flops = 0;
  for (const auto* list : lanes) {
    windows += list->size();
    for (const gc::Window& w : *list) {
      const auto len = static_cast<uint64_t>(w.len);
      flops += len * (static_cast<uint64_t>(w.cell_attrs.size()) * node_flops_per_cell_step_ +
                      flops_per_step_);
    }
  }
  calls_.fetch_add(1);
  lanes_.fetch_add(lanes.size());
  windows_.fetch_add(windows);
  flops_.fetch_add(flops);
  busy_ns_.fetch_add(static_cast<int64_t>(seconds * 1e9));
}

void RolloutMeter::reset() {
  calls_ = 0;
  lanes_ = 0;
  windows_ = 0;
  flops_ = 0;
  busy_ns_ = 0;
}

void RolloutMeter::report(Result& res) const {
  const double w = static_cast<double>(windows());
  res.set("core.rollout.windows", w, "count");
  res.set("core.rollout.us_per_window", w > 0 ? 1e6 * busy_s() / w : 0.0, "us");
  res.set("core.rollout.lanes_per_call",
          calls() > 0 ? static_cast<double>(lanes()) / static_cast<double>(calls()) : 0.0,
          "count");
  res.set("nn.gflop_computed", 1e-9 * flops(), "GFLOP");
  res.set("nn.gflops_achieved", busy_s() > 0 ? 1e-9 * flops() / busy_s() : 0.0, "GFLOP/s");
}

void TimedGenerator::fit(const std::vector<gc::Window>&) {
  throw std::logic_error("TimedGenerator wraps a trained generator; fit() is not supported");
}

void TimedGenerator::record(double t0, double t1, size_t n) const {
  gendt::runtime::MutexLock lock(mu_);
  calls_.insert(calls_.end(), n, Call{t0, t1});
}

gcore::GeneratedSeries TimedGenerator::generate(const std::vector<gc::Window>& windows,
                                                uint64_t seed,
                                                const gendt::runtime::CancelToken* cancel) const {
  Span span("core.generate", seed, parent_span_.load());
  const double t0 = wall_s();
  gcore::GeneratedSeries out = inner_.generate(windows, seed, cancel);
  const double t1 = wall_s();
  meter_.add_call(windows, t1 - t0);
  record(t0, t1, 1);
  return out;
}

std::vector<gcore::GenerateBatchResult> TimedGenerator::generate_batch(
    const std::vector<gcore::GenerateBatchItem>& items) const {
  Span span("core.generate_batch", 0, parent_span_.load());
  const double t0 = wall_s();
  std::vector<gcore::GenerateBatchResult> out = inner_.generate_batch(items);
  const double t1 = wall_s();
  std::vector<const std::vector<gc::Window>*> lanes;
  lanes.reserve(items.size());
  for (const auto& it : items) lanes.push_back(it.windows);
  meter_.add_call(lanes, t1 - t0);
  record(t0, t1, items.size());
  return out;
}

std::vector<TimedGenerator::Call> TimedGenerator::take_calls() {
  gendt::runtime::MutexLock lock(mu_);
  std::vector<Call> out;
  out.swap(calls_);
  return out;
}

gendt::serve::stream::ChunkMsg TimedChunkSource::next_chunk(
    const gendt::runtime::CancelToken* cancel) {
  Span span("stream.next_chunk", session_);
  const double t0 = wall_s();
  gendt::serve::stream::ChunkMsg msg = inner_->next_chunk(cancel);
  gen_ms_->push_back(1e3 * (wall_s() - t0));
  return msg;
}

namespace {

// Median microseconds per call of `body` over `reps` timed blocks of
// `iters` calls each (after one untimed warm-up block).
template <typename Fn>
double probe_us(int reps, int iters, Fn&& body) {
  for (int i = 0; i < iters; ++i) body();
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_s();
    for (int i = 0; i < iters; ++i) body();
    s.add(1e6 * (wall_s() - t0) / iters);
  }
  return s.median();
}

void fill(gendt::nn::Mat& m, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (double& v : m.data()) v = u(rng);
}

}  // namespace

void run_nn_probes(const gcore::GenDTModel& model, Result& res) {
  namespace infer = gendt::nn::infer;
  using gendt::nn::Mat;
  constexpr int kLanes = 8;
  const gendt::nn::LstmCell& cell = model.node_cell();
  const int in = cell.input_size();
  const int h = cell.hidden_size();
  const gendt::nn::StochasticConfig& stoch = model.config().stochastic;
  std::mt19937_64 init(12345);

  {
    Mat x(1, in), hs(1, h), cs(1, h), gates(1, 4 * h), scratch(1, h);
    fill(x, init);
    std::mt19937_64 rng(1);
    res.set("nn.probe.lstm_step_us_b1", probe_us(7, 4000, [&] {
              std::fill(hs.data().begin(), hs.data().end(), 0.1);
              std::fill(cs.data().begin(), cs.data().end(), 0.1);
              infer::lstm_step_fwd(cell, x, stoch, rng, hs, cs, gates, scratch);
            }),
            "us");
  }
  std::vector<std::mt19937_64> lane_rng(kLanes);
  std::vector<std::mt19937_64*> rngs(kLanes);
  for (int i = 0; i < kLanes; ++i) {
    lane_rng[static_cast<size_t>(i)].seed(static_cast<uint64_t>(i) + 1);
    rngs[static_cast<size_t>(i)] = &lane_rng[static_cast<size_t>(i)];
  }
  {
    Mat x(kLanes, in), hs(kLanes, h), cs(kLanes, h), gates(kLanes, 4 * h), scratch(kLanes, h);
    fill(x, init);
    res.set("nn.probe.lstm_step_us_b8", probe_us(7, 1000, [&] {
              std::fill(hs.data().begin(), hs.data().end(), 0.1);
              std::fill(cs.data().begin(), cs.data().end(), 0.1);
              infer::lstm_step_fwd_batch(cell, x, stoch, rngs.data(), hs, cs, gates, scratch);
            }),
            "us");
  }
  {
    const gendt::nn::Mlp& mlp = model.resgen();
    Mat x(kLanes, mlp.layers().front().in_features());
    Mat out(kLanes, mlp.layers().back().out_features());
    fill(x, init);
    infer::Workspace ws;
    res.set("nn.probe.mlp_us_b8", probe_us(7, 1000, [&] {
              infer::mlp_fwd_batch(mlp, x, rngs.data(), false, ws, 0, out);
            }),
            "us");
  }
}

void report_trace(Result& res, const std::string& path) {
  for (const auto& [layer, s] : Tracer::instance().self_seconds_by_layer())
    res.set(layer + ".self_s", s, "s");
  if (!Tracer::instance().write_chrome_json(path)) res.fail("cannot write trace " + path);
  res.ctx("trace_file", path);
}

}  // namespace perfbench
