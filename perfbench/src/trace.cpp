#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local Tracer::ThreadBuf* t_buf = nullptr;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(bufs_mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    bufs_.back()->tid = static_cast<uint32_t>(bufs_.size());
    bufs_.back()->spans.reserve(1 << 14);
    t_buf = bufs_.back().get();
  }
  return *t_buf;
}

Span::Span(const char* name, uint64_t req, uint64_t parent) {
  Tracer& tr = Tracer::instance();
  if (!tr.enabled()) return;
  buf_ = &tr.local();
  id_ = tr.next_id_.fetch_add(1, std::memory_order_relaxed);
  if (parent == kInheritParent)
    parent = buf_->open.empty() ? 0 : buf_->spans[buf_->open.back()].id;
  index_ = buf_->spans.size();
  buf_->spans.push_back(SpanRecord{name, now_ns(), -1, id_, parent, req, buf_->tid});
  buf_->open.push_back(index_);
}

Span::~Span() {
  if (buf_ == nullptr) return;
  buf_->spans[index_].t1_ns = now_ns();
  buf_->open.pop_back();
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(bufs_mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : bufs_)
    for (const SpanRecord& s : b->spans)
      if (s.t1_ns >= s.t0_ns) all.push_back(s);
  return all;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<SpanRecord> spans = collect();
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);

  std::map<std::string, double> self;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span: children on
      // pool threads may overlap each other.
      iv.clear();
      for (size_t c : it->second) {
        const int64_t a = std::max(spans[c].t0_ns, s.t0_ns);
        const int64_t b = std::min(spans[c].t1_ns, s.t1_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += 1e-9 * static_cast<double>(s.t1_ns - s.t0_ns - covered);
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = collect();
  int64_t origin = spans.empty() ? 0 : spans.front().t0_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.t0_ns);
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"req\":%llu}}%s\n",
                  s.name, static_cast<int>(std::string(s.name).find('.')), s.name, s.tid,
                  1e-3 * static_cast<double>(s.t0_ns - origin),
                  1e-3 * static_cast<double>(s.t1_ns - s.t0_ns),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.req), i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
