// Layer instrumentation the benchmark wraps around the program's public
// calls: rollout counters for the core layer, computed FLOPs for nn, a timing
// wrapper generator for the serve paths, a timing wrapper chunk source for
// serve/stream, and the nn kernel probes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "gendt/core/generator.h"
#include "gendt/core/model.h"
#include "gendt/runtime/mutex.h"
#include "gendt/serve/stream/source.h"

namespace perfbench {

/// Counts for calls into GenDTGenerator::generate / generate_batch.
/// FLOPs are computed from the model's GEMM shapes per window, per visible
/// cell, per timestep — an operation count, not a hardware counter.
class RolloutMeter {
 public:
  explicit RolloutMeter(const gendt::core::GenDTModel& model);

  /// Account one call that rolled out `lanes` window lists in `seconds`.
  void add_call(const std::vector<const std::vector<gendt::context::Window>*>& lanes,
                double seconds);
  void add_call(const std::vector<gendt::context::Window>& windows, double seconds) {
    add_call(std::vector<const std::vector<gendt::context::Window>*>{&windows}, seconds);
  }

  uint64_t calls() const { return calls_.load(); }
  uint64_t lanes() const { return lanes_.load(); }
  uint64_t windows() const { return windows_.load(); }
  double busy_s() const { return 1e-9 * static_cast<double>(busy_ns_.load()); }
  double flops() const { return static_cast<double>(flops_.load()); }
  void reset();

  /// core.rollout.* and nn.gflop* metrics.
  void report(Result& res) const;

 private:
  uint64_t node_flops_per_cell_step_ = 0;
  uint64_t flops_per_step_ = 0;  // aggregation LSTM + head + ResGen
  std::atomic<uint64_t> calls_{0}, lanes_{0}, windows_{0}, flops_{0};
  std::atomic<int64_t> busy_ns_{0};
};

/// The generator the serve engine sees on traced runs: forwards to the real
/// GenDTGenerator, opens a span and feeds the meter per call, and records
/// each request's start/end time inside the generator.
class TimedGenerator final : public gendt::core::TimeSeriesGenerator {
 public:
  struct Call {
    double t0 = 0.0, t1 = 0.0;
  };

  TimedGenerator(const gendt::core::TimeSeriesGenerator& inner, RolloutMeter& meter)
      : inner_(inner), meter_(meter) {}

  std::string name() const override { return inner_.name(); }
  void fit(const std::vector<gendt::context::Window>&) override;
  gendt::core::GeneratedSeries generate(const std::vector<gendt::context::Window>& windows,
                                        uint64_t seed) const override {
    return generate(windows, seed, nullptr);
  }
  gendt::core::GeneratedSeries generate(const std::vector<gendt::context::Window>& windows,
                                        uint64_t seed,
                                        const gendt::runtime::CancelToken* cancel) const override;
  std::vector<gendt::core::GenerateBatchResult> generate_batch(
      const std::vector<gendt::core::GenerateBatchItem>& items) const override;

  /// Calls recorded since the last take_calls().
  std::vector<Call> take_calls() GENDT_EXCLUDES(mu_);

  /// Span the generator's spans hang under: the submitter's serve() span,
  /// which runs on another thread than the engine workers that call here.
  void set_parent_span(uint64_t id) { parent_span_.store(id); }

 private:
  void record(double t0, double t1, size_t n) const GENDT_EXCLUDES(mu_);

  const gendt::core::TimeSeriesGenerator& inner_;
  RolloutMeter& meter_;
  mutable gendt::runtime::Mutex mu_;
  mutable std::vector<Call> calls_ GENDT_GUARDED_BY(mu_);
  std::atomic<uint64_t> parent_span_{0};
};

/// Chunk source wrapper: times every next_chunk() into `gen_ms` under a
/// "stream.next_chunk" span tagged with the session id.
class TimedChunkSource final : public gendt::serve::stream::ChunkSource {
 public:
  TimedChunkSource(std::unique_ptr<ChunkSource> inner, uint64_t session,
                   std::shared_ptr<std::vector<double>> gen_ms)
      : inner_(std::move(inner)), session_(session), gen_ms_(std::move(gen_ms)) {}

  const Meta& meta() const override { return inner_->meta(); }
  bool done() const override { return inner_->done(); }
  uint64_t next_chunk_index() const override { return inner_->next_chunk_index(); }
  gendt::serve::stream::ChunkMsg next_chunk(const gendt::runtime::CancelToken* cancel) override;
  std::unique_ptr<gendt::serve::stream::SourceSnapshot> snapshot() const override {
    return inner_->snapshot();
  }
  void restore(const gendt::serve::stream::SourceSnapshot& snap) override {
    inner_->restore(snap);
  }

 private:
  std::unique_ptr<ChunkSource> inner_;
  uint64_t session_;
  // One vector per session: a session generates at most one chunk at a
  // time, so its own samples are never appended concurrently.
  std::shared_ptr<std::vector<double>> gen_ms_;
};

/// Timed calls into nn::infer::lstm_step_fwd (1 lane), lstm_step_fwd_batch
/// (8 lanes) and mlp_fwd_batch (8 lanes) at the model's shapes on the
/// active kernel route; sets nn.probe.* in microseconds per call.
void run_nn_probes(const gendt::core::GenDTModel& model, Result& res);

/// Set self-time metrics (<layer>.self_s) from the tracer and write the
/// Chrome trace to `path`.
void report_trace(Result& res, const std::string& path);

}  // namespace perfbench
